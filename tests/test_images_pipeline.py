"""Image payload pipeline: decode invariants over a real crawl's references."""

import pytest

from crusty_ray.config import test_config as _tc
from crusty_ray.datagen.webgraph import WebConfig

WEB_CFG = WebConfig(n_domains=40, max_pages_per_domain=10)


@pytest.fixture(scope="module")
def crawl_out(ray_session, tmp_path_factory):
    from crusty_ray.pipelines.crawl import CrawlEngine
    cfg = _tc()
    cfg.rules.total_link_budget = 20
    cfg.rules.links_per_task_budget = 8
    cfg.rules.max_level = 5
    out = str(tmp_path_factory.mktemp("crawl"))
    CrawlEngine(cfg, WEB_CFG, out).run(15)
    return out


def test_image_pipeline_invariants(ray_session, crawl_out, tmp_path):
    from crusty_ray.pipelines.images import run_image_pipeline
    cfg = _tc()
    summary = run_image_pipeline(f"{crawl_out}/crawl_log", str(tmp_path / "images"),
                                 WEB_CFG, cfg)
    assert summary["n_images"] > 10
    assert summary["decode_ok_rate"] == 1.0
    assert summary["caption_ok_rate"] == 1.0
    assert summary["min_lossy_psnr_db"] >= 40.0
    assert summary["max_phash_dist"] <= 8


def test_image_table_schema(ray_session, crawl_out, tmp_path):
    import pyarrow.dataset as pads
    from crusty_ray.pipelines.images import IMAGE_SCHEMA, run_image_pipeline
    out = str(tmp_path / "img2")
    run_image_pipeline(f"{crawl_out}/crawl_log", out, WEB_CFG, _tc())
    t = pads.dataset(out, format="parquet").to_table()
    assert set(t.column_names) == set(IMAGE_SCHEMA.names)
    # input_hint columns all present with right types
    assert t.schema.field("bytes").type == "binary"
    assert t.schema.field("phash").type == "int64"
    # one row per distinct referenced image
    ids = t["image_id"].to_pylist()
    assert len(ids) == len(set(ids))


def test_image_channel_stats_exact(ray_session, crawl_out, tmp_path):
    """Distributed channel stats == serial Python-int oracle over the same
    stored table, exactly (integer algebraic moments commute)."""
    import pyarrow.dataset as pads
    from crusty_ray.codecs.images import decode_image
    from crusty_ray.ops.multimodal import image_channel_stats
    from crusty_ray.pipelines.images import run_image_pipeline

    out = str(tmp_path / "img3")
    run_image_pipeline(f"{crawl_out}/crawl_log", out, WEB_CFG, _tc())
    got = image_channel_stats(out).sort_values("channel") \
        .reset_index(drop=True)

    t = pads.dataset(out, format="parquet").to_table()
    n = [0, 0, 0]
    s = [0, 0, 0]
    ss = [0, 0, 0]
    for blob, fmt in zip(t["bytes"].to_pylist(), t["fmt"].to_pylist()):
        px = decode_image(blob, fmt).astype("int64")
        for c in range(3):
            ch = px[:, :, c]
            n[c] += int(ch.size)
            s[c] += int(ch.sum())
            ss[c] += int((ch * ch).sum())
    assert got["channel"].tolist() == [0, 1, 2]
    for c in range(3):
        row = got.iloc[c]
        assert int(row["n_pixels"]) == n[c]
        assert int(row["sum_val"]) == s[c]
        assert int(row["sum_sq"]) == ss[c]
        assert int(row["mean_pm"]) == (1000 * s[c]) // n[c]
        assert int(row["var_pm"]) == \
            (1000 * (n[c] * ss[c] - s[c] * s[c])) // (n[c] * n[c])
    # sane range: means strictly inside (0, 255) per-mille scale
    assert all(0 < m < 255_000 for m in got["mean_pm"])


def test_image_patch_grid_exact(ray_session, crawl_out, tmp_path):
    """Distributed patchify == serial Python-int oracle, exactly; full
    g x g coverage per decodable image."""
    import pyarrow.dataset as pads
    from crusty_ray.codecs.images import decode_image
    from crusty_ray.ops.multimodal import image_patch_grid
    from crusty_ray.pipelines.images import run_image_pipeline
    import numpy as np

    out = str(tmp_path / "img4")
    run_image_pipeline(f"{crawl_out}/crawl_log", out, WEB_CFG, _tc())
    g = 4
    got = image_patch_grid(out, grid=g).to_pandas() \
        .set_index(["image_id", "patch_row", "patch_col"]).sort_index()

    t = pads.dataset(out, format="parquet").to_table()
    n_img = 0
    w601 = np.array([299, 587, 114], dtype=np.int64)
    for iid, blob, fmt in zip(t["image_id"].to_pylist(),
                              t["bytes"].to_pylist(), t["fmt"].to_pylist()):
        px = decode_image(blob, fmt).astype(np.int64)
        n_img += 1
        h, w = px.shape[:2]
        lum = px @ w601
        for r in range(g):
            for c in range(g):
                p = lum[(r * h) // g:((r + 1) * h) // g,
                        (c * w) // g:((c + 1) * w) // g]
                assert int(got.loc[(iid, r, c), "mean_millilum"]) == \
                    int(p.sum()) // int(p.size)
    assert len(got) == n_img * g * g  # every image fully covered


def test_image_augment_exact(ray_session, crawl_out, tmp_path):
    """Distributed augmentation manifest == serial transforms, md5-exact;
    involutions hold (flip twice == identity on the raw pixels)."""
    import hashlib

    import pyarrow.dataset as pads
    import numpy as np
    from crusty_ray.codecs.images import decode_image
    from crusty_ray.ops.multimodal import _augment, image_augment
    from crusty_ray.pipelines.images import run_image_pipeline

    out = str(tmp_path / "img5")
    run_image_pipeline(f"{crawl_out}/crawl_log", out, WEB_CFG, _tc())
    got = image_augment(out).to_pandas() \
        .set_index(["image_id", "aug"]).sort_index()

    t = pads.dataset(out, format="parquet").to_table()
    n = 0
    for iid, blob, fmt in zip(t["image_id"].to_pylist(),
                              t["bytes"].to_pylist(), t["fmt"].to_pylist()):
        px = decode_image(blob, fmt)
        for aug in ("flip_h", "rot180", "crop_center"):
            o = np.ascontiguousarray(_augment(px, aug))
            row = got.loc[(iid, aug)]
            assert row["pixel_md5"] == hashlib.md5(o.tobytes()).hexdigest()
            assert (int(row["h"]), int(row["w"])) == o.shape[:2]
            n += 1
        # involution sanity on the raw arrays
        assert (_augment(_augment(px, "flip_h"), "flip_h") == px).all()
        assert (_augment(_augment(px, "rot180"), "rot180") == px).all()
    assert len(got) == n


def _write_log(log_dir, parts: dict) -> str:
    """A crawl_log of hand-picked ``image_ids`` lists: one parquet file per
    ``{"epoch=N/part.parquet": [[ids of a page], ...]}`` entry."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    for rel, pages in parts.items():
        os.makedirs(os.path.dirname(f"{log_dir}/{rel}"), exist_ok=True)
        pq.write_table(pa.table({"image_ids": pa.array(pages, pa.list_(pa.string()))}),
                       f"{log_dir}/{rel}")
    return str(log_dir)


def _assert_exact_table(out: str, log_dir: str):
    """The stored ids are exactly the log's distinct ids; every row decodes,
    and every lossy row is within 40 dB."""
    import pyarrow.dataset as pads
    log = pads.dataset(log_dir, format="parquet").to_table(columns=["image_ids"])
    want = sorted({i for ids in log["image_ids"].to_pylist() for i in ids or []})
    t = pads.dataset(out, format="parquet").to_table()
    assert sorted(t["image_id"].to_pylist()) == want
    assert t["decode_ok"].to_pylist() == [True] * t.num_rows
    assert all(p >= 40.0 for p, f in zip(t["psnr_db"].to_pylist(),
                                         t["fmt"].to_pylist()) if f != "png")
    return t


def test_small_decode_batches_use_several_parts(ray_session, crawl_out, tmp_path):
    import glob

    from crusty_ray.pipelines.images import run_image_pipeline
    cfg = _tc()
    cfg.engine.decode_batch_size = 4
    out = str(tmp_path / "parts")
    summary = run_image_pipeline(f"{crawl_out}/crawl_log", out, WEB_CFG, cfg)
    t = _assert_exact_table(out, f"{crawl_out}/crawl_log")
    assert summary["n_images"] == t.num_rows > 8
    assert len(glob.glob(f"{out}/*.parquet")) > 1


def test_image_shared_across_log_files_is_stored_once(ray_session, tmp_path):
    from crusty_ray.pipelines.images import run_image_pipeline
    log = _write_log(tmp_path / "log", {
        "epoch=0/a.parquet": [["im1_0_0", "im2_0_0"], None, []],
        "epoch=1/b.parquet": [["im2_0_0"], ["im3_0_0", "im1_0_0"]],
    })
    out = str(tmp_path / "img")
    summary = run_image_pipeline(log, out, WEB_CFG, _tc())
    t = _assert_exact_table(out, log)
    assert t["image_id"].to_pylist().count("im2_0_0") == 1
    assert summary["n_images"] == 3


def test_wide_binary_rows_small_batches(ray_session, tmp_path):
    """SURVEY §7.4.5: large image payloads with small decode batches — the
    pipeline streams wide binary rows without blowing up block sizes."""
    from crusty_ray.pipelines.images import run_image_pipeline

    big_cfg = WebConfig(n_domains=4, img_min=256, img_max=384)  # ~0.2-0.4 MB rows
    log = _write_log(tmp_path / "log", {
        "epoch=0/a.parquet": [[f"im{i}_0_0" for i in range(24)]]})
    cfg = _tc()
    cfg.engine.decode_batch_size = 4  # small batches for wide rows
    out = str(tmp_path / "wide")
    summary = run_image_pipeline(log, out, big_cfg, cfg)
    t = _assert_exact_table(out, log)
    assert summary["n_images"] == t.num_rows == 24
    sizes = [len(b) for b in t["bytes"].to_pylist()]
    assert min(sizes) > 50_000  # genuinely wide rows


@pytest.mark.parametrize("pages", [[[], None, []], None],
                         ids=["no_image_ids", "no_log_files"])
def test_log_without_images_gives_zero_summary(ray_session, tmp_path, pages):
    from crusty_ray.pipelines.images import run_image_pipeline
    log = tmp_path / "log"
    if pages is None:
        (log / "epoch=0").mkdir(parents=True)
    else:
        _write_log(log, {"epoch=0/a.parquet": pages})
    assert run_image_pipeline(str(log), str(tmp_path / "img"), WEB_CFG, _tc()) == {
        "n_images": 0, "decode_ok_rate": 1.0, "caption_ok_rate": 1.0,
        "min_lossy_psnr_db": float("inf"), "max_phash_dist": 0}


def test_corrupt_payload_is_a_decode_failure(monkeypatch):
    import pyarrow as pa

    import crusty_ray.pipelines.images as images
    monkeypatch.setattr(images, "encode_image", lambda px, fmt: b"\x00corrupt")
    t = images.ImageFetchStage(WEB_CFG)(pa.table({"image_id": ["im1_0_0", "im2_0_0"]}))
    assert t["decode_ok"].to_pylist() == [False, False]
    assert t["phash_dist"].to_pylist() == [64, 64]


def test_decode_bug_propagates(monkeypatch):
    import pyarrow as pa

    import crusty_ray.pipelines.images as images

    def broken(data, fmt):
        raise TypeError("a bug, not a bad payload")
    monkeypatch.setattr(images, "decode_image", broken)
    with pytest.raises(TypeError):
        images.ImageFetchStage(WEB_CFG)(pa.table({"image_id": ["im1_0_0"]}))
