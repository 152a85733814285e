"""Image payload pipeline — fetch/decode/verify the image+caption rows.

The north_rule's payload leg: every fetched image row must satisfy
decoded-pixel allclose (PSNR ≥ 40 dB for lossy formats) + exact caption
equality, over a Lance-shaped table ``images(image_id, bytes, w, h, fmt,
caption, phash)`` (BASELINE.json ``input_hint``).

Pipeline (plain Ray tasks): the driver reads the crawl log's ``image_ids``
and takes the sorted distinct ids → one ``@ray.remote`` task per contiguous
part runs ``ImageFetchStage`` over ``decode_batch_size`` slices (wide binary
rows → small batches, SURVEY §7.4.5) → the parts' tables go from the object
store through the storage seam; no payload passes through the driver.

In production the fetch would be HTTP GET + a real codec; here bytes come from
the deterministic synthetic web and the codecs in ``codecs/images.py``. The
*verification* columns (psnr_db, caption_ok, phash_dist) are computed on the
decoded pixels — the part the rule actually grades.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray

from ..codecs.images import decode_image, encode_image, phash64, psnr
from ..config import Config
from ..datagen.webgraph import SyntheticWeb, WebConfig
from ..ops.io import read_dataset, write_dataset

IMAGE_SCHEMA = pa.schema([
    ("image_id", pa.string()),
    ("bytes", pa.binary()),
    ("w", pa.int32()),
    ("h", pa.int32()),
    ("fmt", pa.string()),
    ("caption", pa.string()),
    ("phash", pa.int64()),
    ("n_bytes", pa.int64()),  # payload size: lets curation/shard-packing
    #                           stages plan over metadata without reading bytes
    ("psnr_db", pa.float64()),
    ("caption_ok", pa.bool_()),
    ("phash_dist", pa.int32()),
    ("decode_ok", pa.bool_()),
])


def explode_image_ids(batch: pa.Table) -> pa.Table:
    """crawl_log batch → one row per referenced image id (vectorized)."""
    flat = pc.list_flatten(batch["image_ids"])
    return pa.table({"image_id": flat})


class ImageFetchStage:
    """Synthesize/fetch the payload, decode, verify.

    ``__init__`` holds the web handle (once per task); ``__call__``
    processes one small batch of wide binary rows.
    """

    def __init__(self, web_cfg: WebConfig):
        self.web = SyntheticWeb(web_cfg)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for iid in batch["image_id"].to_pylist():
            # one generation pass: pixels → encode once ("HTTP fetch" payload)
            raw, fmt, caption = self.web.image_pixels_raw(iid)
            h, w = raw.shape[:2]
            rec = {"image_id": iid, "bytes": encode_image(raw, fmt),
                   "w": w, "h": h, "fmt": fmt, "caption": caption,
                   "phash": phash64(raw)}
            try:
                px = decode_image(rec["bytes"], rec["fmt"])
                decode_ok = px.shape == (rec["h"], rec["w"], 3)
            except (ValueError, NotImplementedError):
                px, decode_ok = None, False
            if decode_ok:
                p = psnr(raw, px) if rec["fmt"] != "png" else float("inf")
                dist = int(bin((phash64(px) ^ rec["phash"]) & ((1 << 64) - 1)).count("1"))
            else:
                p, dist = 0.0, 64
            expect_caption = rec["caption"].endswith(f"({iid})")
            rows.append({
                **{k: rec[k] for k in ("image_id", "bytes", "w", "h", "fmt",
                                       "caption", "phash")},
                "n_bytes": len(rec["bytes"]),
                "psnr_db": p, "caption_ok": bool(expect_caption),
                "phash_dist": dist, "decode_ok": bool(decode_ok),
            })
        cols = {n: [r[n] for r in rows] for n in IMAGE_SCHEMA.names}
        return pa.table({n: pa.array(cols[n], type=IMAGE_SCHEMA.field(n).type)
                         for n in IMAGE_SCHEMA.names})


@ray.remote
def _fetch_part(web_cfg: WebConfig, ids: list[str], batch_size: int) -> pa.Table:
    stage = ImageFetchStage(web_cfg)
    return pa.concat_tables(stage(pa.table({"image_id": ids[i:i + batch_size]}))
                            for i in range(0, len(ids), batch_size))


def run_image_pipeline(crawl_log_dir: str, out_dir: str, web_cfg: WebConfig,
                       cfg: Config) -> dict:
    """Decode every image referenced by the crawl; returns invariant summary."""
    log = pads.dataset(crawl_log_dir, format="parquet")
    ids = [] if not log.files else pc.unique(explode_image_ids(
        log.to_table(columns=["image_ids"]))["image_id"]).sort().to_pylist()
    if not ids:
        return {"n_images": 0, "decode_ok_rate": 1.0, "caption_ok_rate": 1.0,
                "min_lossy_psnr_db": float("inf"), "max_phash_dist": 0}
    bs = cfg.engine.decode_batch_size
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    parts = min(128, max(8, ncpu * 2), -(-len(ids) // bs))
    bounds = [i * len(ids) // parts for i in range(parts + 1)]
    refs = [_fetch_part.remote(web_cfg, ids[lo:hi], bs)
            for lo, hi in zip(bounds, bounds[1:])]
    # the image+caption table goes through the storage seam (Lance per the
    # north rule when available; parquet otherwise — ops/io.py)
    write_dataset(ray.data.from_arrow_refs(refs), out_dir)

    check = read_dataset(
        out_dir, columns=["fmt", "psnr_db", "caption_ok", "phash_dist", "decode_ok"])
    df = check.to_pandas()  # small result — fine to materialize
    lossy = df[df["fmt"] != "png"]
    return {
        "n_images": len(df),
        "decode_ok_rate": float(df["decode_ok"].mean()),
        "caption_ok_rate": float(df["caption_ok"].mean()),
        "min_lossy_psnr_db": float(lossy["psnr_db"].min()) if len(lossy) else float("inf"),
        "max_phash_dist": int(df["phash_dist"].max()),
    }
