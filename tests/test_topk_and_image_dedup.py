"""TopK sketch parity + image phash dedup tests."""

import numpy as np
import pandas as pd
import pytest

from crusty_ray.core.hashing import stable_rng
from crusty_ray.state.topk_sketch import TopKSketch


class TestTopKSketch:
    def _stream(self, n=20_000, n_keys=2_000, seed=1):
        rng = stable_rng("topk-stream", seed)
        z = rng.zipf(1.4, n)
        return [f"dom{int(v) % n_keys}.com" for v in z]

    def test_heavy_hitters_recovered(self):
        stream = self._stream()
        sk = TopKSketch(k=20, width=2048, depth=4)
        exact = {}
        for item in stream:
            sk.add(item)
            exact[item] = exact.get(item, 0) + 1
        true_top = [m for m, _ in sorted(exact.items(),
                                         key=lambda t: (-t[1], t[0]))[:10]]
        got = [m for m, _ in sk.topk()[:20]]
        overlap = len(set(true_top) & set(got))
        assert overlap >= 8, (true_top, got[:10])

    def test_flat_stream_survives_heap_trim(self):
        # regression: with every candidate tied at count 1 (typical early
        # stream), the trim's strict `> cutoff` filter used to empty the
        # candidate heap entirely and topk() returned []
        sk = TopKSketch(k=10, width=4096, depth=4)
        for i in range(500):  # > k*4 distinct items, all count 1
            sk.add(f"flat{i}.com")
        top = sk.topk()
        assert len(top) == 10
        assert all(c >= 1 for _, c in top)
        assert len(sk.heap) <= sk.k * 4

    def test_deterministic(self):
        stream = self._stream(5_000)
        a, b = TopKSketch(width=512, depth=4, seed=3), TopKSketch(width=512, depth=4, seed=3)
        for item in stream:
            a.add(item)
            b.add(item)
        assert a.topk() == b.topk()
        assert np.array_equal(a.counts, b.counts)

    def test_counts_near_exact_for_dominant_key(self):
        sk = TopKSketch(width=1024, depth=4)
        for _ in range(500):
            sk.add("big.com")
        for i in range(200):
            sk.add(f"small{i}.net")
        assert abs(sk.query("big.com") - 500) <= 25

    def test_bounded_memory(self):
        sk = TopKSketch(k=10, width=256, depth=2)
        for i in range(5_000):
            sk.add(f"x{i}.com")
        assert len(sk.heap) <= 40 + 5  # k*4 bound (+ slack during trim)


class TestImagePhashDedup:
    @pytest.fixture(scope="class")
    def images_path(self, tmp_path_factory):
        import pyarrow as pa
        import pyarrow.parquet as pq
        rng = stable_rng("imgdedup", 0)
        rows = []
        base_hashes = rng.integers(0, 1 << 63, 30, dtype=np.int64)
        for i, h in enumerate(base_hashes):
            rows.append({"image_id": f"a{i}", "phash": int(h), "w": 10, "h": 10})
        # near-dups: flip ≤2 bits of the first five
        for i in range(5):
            flipped = int(base_hashes[i]) ^ (1 << int(rng.integers(0, 63)))
            rows.append({"image_id": f"dup{i}", "phash": flipped, "w": 10, "h": 10})
        # exact dup
        rows.append({"image_id": f"copy0", "phash": int(base_hashes[0]),
                     "w": 10, "h": 10})
        p = tmp_path_factory.mktemp("imgs") / "images.parquet"
        pq.write_table(pa.Table.from_pylist(rows), p)
        return str(p)

    def test_phash_pairs(self, ray_session, images_path):
        from crusty_ray.ops.image_dedup import image_phash_pairs
        pairs = image_phash_pairs(images_path, max_hamming=2).to_pandas()
        got = {tuple(sorted(t)) for t in
               zip(pairs["image_a"], pairs["image_b"])}
        for i in range(5):
            assert tuple(sorted((f"a{i}", f"dup{i}"))) in got
        assert tuple(sorted(("a0", "copy0"))) in got

    def test_phash_pairs_match_bruteforce(self, ray_session, images_path):
        """Distributed quadrant plan ≡ brute-force quadrant candidates +
        hamming verify (the exact pre-r2 driver-side semantics)."""
        import numpy as np
        import pandas as pd
        import pyarrow.parquet as pq
        from crusty_ray.ops.image_dedup import image_phash_pairs
        res = image_phash_pairs(images_path, max_hamming=6).to_pandas() \
            .sort_values(["image_a", "image_b"]).reset_index(drop=True)
        t = pq.read_table(images_path, columns=["image_id", "phash"])
        sig = {i: np.int64(p).astype(np.uint64)
               for i, p in zip(t["image_id"].to_pylist(), t["phash"].to_pylist())}
        from collections import defaultdict
        cand = set()
        for q in range(4):
            buckets = defaultdict(list)
            for iid, v in sig.items():
                buckets[int((v >> np.uint64(16 * q)) & np.uint64(0xFFFF))].append(iid)
            for ids in buckets.values():
                ids = sorted(ids)
                for i in range(len(ids)):
                    for j in range(i + 1, len(ids)):
                        cand.add((ids[i], ids[j]))
        rows = [{"image_a": a, "image_b": b,
                 "hamming": bin(int(sig[a]) ^ int(sig[b])).count("1")}
                for a, b in sorted(cand)
                if bin(int(sig[a]) ^ int(sig[b])).count("1") <= 6]
        exp = pd.DataFrame(rows, columns=["image_a", "image_b", "hamming"])
        exp["hamming"] = exp["hamming"].astype("int64")
        pd.testing.assert_frame_equal(res, exp)

    def test_dedup_groups_bsp_equals_driver(self, ray_session, images_path):
        """The scale path (forced BSP components over dictionary-encoded
        string image_ids) labels every image identically to the driver
        union-find path."""
        from crusty_ray.ops.image_dedup import image_dedup_groups

        def run(**kw):
            df = image_dedup_groups(images_path, max_hamming=2, **kw) \
                .to_pandas().sort_values("image_id").reset_index(drop=True)
            return dict(zip(df["image_id"], df["component_id"]))

        driver, bsp = run(), run(driver_threshold=0, num_partitions=4)
        assert bsp == driver
        assert driver["copy0"] == driver["dup0"] == driver["a0"] == "a0"

    def test_exact_dedup(self, ray_session, images_path):
        from crusty_ray.ops.image_dedup import image_exact_dedup
        df = image_exact_dedup(images_path).to_pandas()
        dup_groups = df[df["n_dups"] > 1]
        assert len(dup_groups) == 1
        assert dup_groups.iloc[0]["keep_image_id"] == "a0"  # min("a0","copy0")


def test_sketch_mode_engine_matches_simulator(ray_session, tmp_path):
    """cfg.topk.use_sketch=True: engine and simulator still agree exactly
    (both run the same deterministic sketch)."""
    import pandas as pd
    from crusty_ray.config import test_config
    from crusty_ray.datagen.webgraph import WebConfig
    from crusty_ray.pipelines.crawl import CrawlEngine
    from crusty_ray.sim.simulator import CrawlSimulator

    cfg = test_config()
    cfg.rules.total_link_budget = 20
    cfg.rules.links_per_task_budget = 8
    cfg.rules.max_level = 5
    cfg.engine.max_epochs = 12
    cfg.topk.use_sketch = True
    cfg.topk.consume_every_epochs = 5
    cfg.topk.width = 512
    cfg.topk.depth = 4
    web_cfg = WebConfig(n_domains=40, max_pages_per_domain=10)

    sim = CrawlSimulator(cfg, web_cfg).run()
    eng = CrawlEngine(cfg, web_cfg, str(tmp_path / "o")).run()
    assert eng.topk_rows == sim.topk_rows
    assert len(sim.topk_rows) > 0
    # sketch top-k should broadly agree with exact top-k at this scale
    cfg2 = test_config()
    cfg2.rules.total_link_budget = 20
    cfg2.rules.links_per_task_budget = 8
    cfg2.rules.max_level = 5
    cfg2.engine.max_epochs = 12
    cfg2.topk.consume_every_epochs = 5
    exact = CrawlSimulator(cfg2, web_cfg).run()
    top_exact = {r["domain"] for r in exact.topk_rows if r["tld"] == ""}
    top_sketch = {r["domain"] for r in sim.topk_rows if r["tld"] == ""}
    if top_exact:
        assert len(top_exact & top_sketch) / len(top_exact) >= 0.6


def test_sketch_mode_exchange_path_matches_simulator(ray_session, tmp_path):
    """Sketch-mode top-k THROUGH the storage exchange (forced Dataset path):
    per-shard (owner, bucket, domain, cnt) exchange rows, int-merged at the
    owner, must still reproduce the central sketch bit-exactly."""
    from crusty_ray.config import test_config
    from crusty_ray.datagen.webgraph import WebConfig
    from crusty_ray.pipelines.crawl import CrawlEngine
    from crusty_ray.sim.simulator import CrawlSimulator

    cfg = test_config()
    cfg.rules.total_link_budget = 20
    cfg.rules.links_per_task_budget = 8
    cfg.rules.max_level = 5
    cfg.engine.max_epochs = 12
    cfg.topk.use_sketch = True
    cfg.topk.consume_every_epochs = 5
    cfg.topk.width = 512
    cfg.topk.depth = 4
    web_cfg = WebConfig(n_domains=40, max_pages_per_domain=10)

    sim = CrawlSimulator(cfg, web_cfg).run()
    eng = CrawlEngine(cfg, web_cfg, str(tmp_path / "o")).run()
    assert len(sim.topk_rows) > 0
    assert eng.topk_rows == sim.topk_rows


class TestImageQualityGate:
    @pytest.fixture(scope="class")
    def meta_path(self, tmp_path_factory):
        """Synthetic image-metadata table exercising every reject reason."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        rng = stable_rng("imgquality", 0)
        n = 400
        w = rng.integers(8, 300, n)
        h = rng.integers(8, 300, n)
        fmts = np.array(["png", "jpeg", "bmp"])[rng.integers(0, 3, n)]
        decode_ok = rng.random(n) > 0.1
        captions = np.array(
            ["", "short", "a perfectly fine caption about the picture"]
        )[rng.integers(0, 3, n)]
        t = pa.table({
            "image_id": pa.array([f"im{i}" for i in range(n)]),
            "w": pa.array(w, type=pa.int32()),
            "h": pa.array(h, type=pa.int32()),
            "fmt": pa.array(fmts.tolist()),
            "decode_ok": pa.array(decode_ok.tolist()),
            "psnr_db": pa.array(rng.uniform(30, 60, n).tolist()),
            "caption": pa.array(captions.tolist()),
        })
        p = tmp_path_factory.mktemp("imgq") / "images.parquet"
        pq.write_table(t, p)
        return str(p)

    ORACLE_KEEP = """
        SELECT image_id, CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h, fmt
        FROM read_parquet('{p}')
        WHERE decode_ok AND w >= 32 AND h >= 32
          AND greatest(w, h) * 1000 // greatest(least(w, h), 1) <= 3000
          AND length(caption) >= 8
    """

    def test_filter_matches_duckdb(self, ray_session, meta_path):
        import duckdb
        from crusty_ray.ops.image_quality import image_quality_filter
        got = image_quality_filter(meta_path).to_pandas() \
            .sort_values("image_id").reset_index(drop=True)
        exp = duckdb.sql(self.ORACLE_KEEP.format(p=meta_path)).df() \
            .sort_values("image_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert 0 < len(got) < 400  # both sides of the gate exercised

    def test_report_matches_duckdb(self, ray_session, meta_path):
        import duckdb
        from crusty_ray.ops.image_quality import image_quality_report
        got = image_quality_report(meta_path)
        exp = duckdb.sql(f"""
            SELECT fmt, count(*) AS n_total,
                   sum(CASE WHEN decode_ok AND w >= 32 AND h >= 32
                        AND greatest(w,h)*1000 // greatest(least(w,h),1) <= 3000
                        AND length(caption) >= 8 THEN 1 ELSE 0 END) AS n_kept,
                   sum(CASE WHEN NOT decode_ok THEN 1 ELSE 0 END)
                       AS n_undecodable,
                   sum(CASE WHEN w < 32 OR h < 32 THEN 1 ELSE 0 END)
                       AS n_too_small,
                   sum(CASE WHEN greatest(w,h)*1000
                        // greatest(least(w,h),1) > 3000
                        THEN 1 ELSE 0 END) AS n_bad_aspect,
                   sum(CASE WHEN length(caption) < 8 THEN 1 ELSE 0 END)
                       AS n_short_caption
            FROM read_parquet('{meta_path}') GROUP BY fmt ORDER BY fmt
        """).df()
        pd.testing.assert_frame_equal(
            got, exp[got.columns], check_dtype=False)
        assert (got["n_total"] > got["n_kept"]).any()

    def test_report_totals_consistent(self, ray_session, meta_path):
        from crusty_ray.ops.image_quality import (image_quality_filter,
                                                  image_quality_report)
        rep = image_quality_report(meta_path)
        kept = image_quality_filter(meta_path).to_pandas()
        assert int(rep["n_kept"].sum()) == len(kept)
        assert int(rep["n_total"].sum()) == 400


class TestApproxDistinct:
    def _ds(self, values, n_blocks=6):
        import pyarrow as pa
        import ray
        parts = np.array_split(pd.DataFrame({"v": values}), n_blocks)
        return ray.data.from_arrow([
            pa.Table.from_pandas(p, preserve_index=False)
            for p in parts if len(p)])

    @pytest.mark.parametrize("true_n", [50, 5_000, 60_000])
    def test_error_within_hll_bound(self, ray_session, true_n):
        from crusty_ray.ops.sketch import approx_distinct
        rng = stable_rng("hll", true_n)
        vals = rng.integers(0, true_n, true_n * 3)  # dups; ~true_n distinct
        exact = len(np.unique(vals))
        got = int(approx_distinct(self._ds(vals), "v")["estimate"].iloc[0])
        # p=14 → σ ≈ 0.81%; 5σ ≈ 4% (linear counting is tighter below 2.5m)
        assert abs(got - exact) / exact < 0.04, (got, exact)

    def test_block_layout_independent(self, ray_session):
        """Register max is associative: the estimate must not depend on how
        rows are split into blocks."""
        from crusty_ray.ops.sketch import approx_distinct
        rng = stable_rng("hll-layout", 0)
        vals = rng.integers(0, 10_000, 30_000)
        a = approx_distinct(self._ds(vals, 2), "v")["estimate"].iloc[0]
        b = approx_distinct(self._ds(vals, 17), "v")["estimate"].iloc[0]
        assert a == b

    def test_strings_and_empty(self, ray_session):
        from crusty_ray.ops.sketch import approx_distinct
        strs = [f"user-{i % 700}" for i in range(5_000)]
        got = int(approx_distinct(self._ds(strs, 4), "v")["estimate"].iloc[0])
        assert abs(got - 700) / 700 < 0.04
        empty = approx_distinct(
            self._ds(pd.Series([], dtype="int64"), 1), "v")
        assert int(empty["estimate"].iloc[0]) == 0


def test_caption_reuse_matches_duckdb(ray_session, tmp_path):
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq
    from crusty_ray.ops.image_quality import caption_reuse_report
    rng = stable_rng("capreuse", 0)
    caps = [f"caption {i % 7}" for i in range(60)]  # 7 captions reused
    phash = rng.integers(0, 1 << 62, 60)
    phash[10] = phash[3]  # an exact-dup image under a reused caption
    t = pa.table({"image_id": [f"i{k}" for k in range(60)],
                  "caption": caps,
                  "phash": pa.array(phash.tolist(), pa.int64())})
    p = tmp_path / "imgs.parquet"
    pq.write_table(t, p)
    got = caption_reuse_report(str(p)) \
        .sort_values("caption_md5").reset_index(drop=True)
    exp = duckdb.sql(f"""
        SELECT md5(caption) AS caption_md5, count(*) AS n_rows,
               count(DISTINCT phash) AS n_distinct_images
        FROM read_parquet('{p}') GROUP BY caption
        HAVING count(DISTINCT phash) > 1 ORDER BY caption_md5
    """).df()
    pd.testing.assert_frame_equal(got, exp[got.columns], check_dtype=False)
    assert len(got) == 7


class TestImageTextCuration:
    @pytest.fixture(scope="class")
    def meta_phash_path(self, tmp_path_factory):
        """Image metadata with REPEATED phashes (watermark-style dup images)
        so the dedup leg of the composition is exercised, plus every gate
        reject reason."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        rng = stable_rng("imgcuration", 0)
        n = 500
        w = rng.integers(8, 300, n)
        h = rng.integers(8, 300, n)
        fmts = np.array(["png", "jpeg", "bmp"])[rng.integers(0, 3, n)]
        decode_ok = rng.random(n) > 0.1
        captions = np.array(
            ["", "short", "a perfectly fine caption about the picture"]
        )[rng.integers(0, 3, n)]
        # ~60 distinct phashes over 500 rows → heavy duplication incl.
        # dup groups that straddle the quality gate
        phash = rng.integers(0, 60, n).astype(np.int64)
        t = pa.table({
            "image_id": pa.array([f"im{i:04d}" for i in range(n)]),
            "w": pa.array(w, type=pa.int32()),
            "h": pa.array(h, type=pa.int32()),
            "fmt": pa.array(fmts.tolist()),
            "decode_ok": pa.array(decode_ok.tolist()),
            "caption": pa.array(captions.tolist()),
            "phash": pa.array(phash, type=pa.int64()),
        })
        p = tmp_path_factory.mktemp("imgcur") / "images.parquet"
        pq.write_table(t, p)
        return str(p)

    def test_matches_duckdb(self, ray_session, meta_phash_path):
        import duckdb
        from crusty_ray.ops.image_quality import image_text_curation
        got = image_text_curation(meta_phash_path).to_pandas() \
            .sort_values("image_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            WITH kept AS (
              SELECT image_id, phash, CAST(w AS BIGINT) AS w,
                     CAST(h AS BIGINT) AS h, fmt
              FROM read_parquet('{meta_phash_path}')
              WHERE decode_ok AND w >= 32 AND h >= 32
                AND greatest(w, h) * 1000 // greatest(least(w, h), 1) <= 3000
                AND length(caption) >= 8
            ), canon AS (
              SELECT *, row_number() OVER (PARTITION BY phash
                                           ORDER BY image_id) AS rn
              FROM kept
            )
            SELECT image_id, phash, w, h, fmt,
                   CASE WHEN b < 900 THEN 'train'
                        WHEN b < 950 THEN 'val' ELSE 'test' END AS split
            FROM (SELECT *, ('0x' || substr(md5(image_id), 1, 8))::BIGINT
                            % 1000 AS b
                  FROM canon WHERE rn = 1)
        """).df().sort_values("image_id").reset_index(drop=True)
        got = got[list(exp.columns)]
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        # the composition is non-trivial on this fixture: the gate rejects
        # some rows AND the dedup collapses some groups
        n_total = 500
        assert 0 < len(got) < n_total
        assert got["phash"].is_unique
        assert set(got["split"]) <= {"train", "val", "test"}

    def test_hot_phash_bounded(self, ray_session, tmp_path):
        """A single phash repeated across every row (the watermark case)
        collapses to exactly one survivor — the grouped_top_n local-prune
        path, not an all-pairs blowup."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        from crusty_ray.ops.image_quality import image_text_curation
        n = 2000
        t = pa.table({
            "image_id": pa.array([f"w{i:05d}" for i in range(n)]),
            "w": pa.array([100] * n, type=pa.int32()),
            "h": pa.array([100] * n, type=pa.int32()),
            "fmt": pa.array(["png"] * n),
            "decode_ok": pa.array([True] * n),
            "caption": pa.array(["a perfectly fine caption"] * n),
            "phash": pa.array([42] * n, type=pa.int64()),
        })
        p = tmp_path / "hot.parquet"
        pq.write_table(t, p)
        got = image_text_curation(str(p)).to_pandas()
        assert len(got) == 1
        assert got.iloc[0]["image_id"] == "w00000"
