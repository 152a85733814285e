"""Unit oracles for the r3 late-wave operators: integer PageRank
(ops/graph.py), cohort/funnel behavior analytics (ops/behavior.py), and
exact integer-moment variance (ops/stats.py).

The driver-contract suite re-checks the faces against DuckDB at sf0.01;
these tests pin the operator-level semantics — dangling nodes, hub skew,
funnel order-strictness, n<2 variance sentinel — on purpose-built inputs.
"""

import numpy as np
import pandas as pd
import pytest

import ray


def _pagerank_df(edges: list[tuple[int, int]], iters: int = 3):
    from crusty_ray.ops.graph import pagerank
    df = pd.DataFrame(edges, columns=["src", "dst"]).astype("int64")
    got = pagerank(ray.data.from_pandas(df), iters=iters).to_pandas() \
        .sort_values("node").reset_index(drop=True).astype("int64")
    return got


def _reference_df(edges, iters=3):
    from crusty_ray.ops.graph import pagerank_reference
    ref = pagerank_reference(edges, iters=iters)
    return pd.DataFrame(sorted(ref.items()),
                        columns=["node", "rank_q"]).astype("int64")


class TestPagerank:
    def test_matches_reference_with_dangling_nodes(self, ray_session):
        # mod-graph: nodes 100..149 appear only as dst of some edges →
        # genuine dangling nodes (no out-edges, teleport-only rank)
        edges = sorted({(i % 40, (i * i + 1) % 40) for i in range(300)
                        if i % 40 != (i * i + 1) % 40}
                       | {(i % 40, 100 + i % 50) for i in range(0, 300, 7)})
        got = _pagerank_df(edges)
        want = _reference_df(edges)
        pd.testing.assert_frame_equal(got, want)

    def test_hub_skew_exact(self, ray_session):
        # star: node 0 links to/from everyone — the hot-key shuffle case
        edges = [(0, i) for i in range(1, 200)] + \
                [(i, 0) for i in range(1, 200)]
        got = _pagerank_df(edges)
        want = _reference_df(edges)
        pd.testing.assert_frame_equal(got, want)
        # the hub must outrank every leaf
        hub = got.loc[got["node"] == 0, "rank_q"].iloc[0]
        assert (got.loc[got["node"] != 0, "rank_q"] < hub).all()

    def test_single_iteration_and_more_iterations(self, ray_session):
        edges = [(a, b) for a in range(6) for b in range(6) if a != b
                 and (a + b) % 3 != 0]
        for it in (1, 4):
            pd.testing.assert_frame_equal(_pagerank_df(edges, iters=it),
                                          _reference_df(edges, iters=it))

    def test_shuffle_path_equals_broadcast_path(self, ray_session):
        # broadcast_nodes=0 forces the all-Dataset plan; both paths must
        # compute the identical integers (incl. dangling nodes)
        from crusty_ray.ops.graph import pagerank
        edges = sorted({(i % 25, (i * 7 + 3) % 25) for i in range(200)
                        if i % 25 != (i * 7 + 3) % 25}
                       | {(i % 25, 900 + i % 9) for i in range(0, 60, 4)})
        df = pd.DataFrame(edges, columns=["src", "dst"]).astype("int64")
        shuf = pagerank(ray.data.from_pandas(df), iters=3,
                        broadcast_nodes=0).to_pandas() \
            .sort_values("node").reset_index(drop=True).astype("int64")
        pd.testing.assert_frame_equal(shuf, _reference_df(edges))


class TestFunnel:
    def _run(self, rows, steps=("a", "b", "c")):
        from crusty_ray.ops.behavior import funnel_counts
        df = pd.DataFrame(rows, columns=["user_id", "event_type", "ts"])
        df["ts"] = df["ts"].astype("int64")
        ds = ray.data.from_pandas(df)
        out = funnel_counts(ds, list(steps)).to_pandas() \
            .sort_values("step").reset_index(drop=True)
        return dict(zip(out["step"], out["n_users"]))

    def test_order_strictness(self, ray_session):
        rows = [
            (1, "a", 10), (1, "b", 20), (1, "c", 30),   # completes
            (2, "b", 10), (2, "a", 20), (2, "c", 30),   # b BEFORE a: stops at a
            (3, "a", 10), (3, "c", 20), (3, "b", 30),   # c before b: a->b only
            (4, "a", 10), (4, "b", 10),                 # tie is NOT strictly after
        ]
        got = self._run(rows)
        assert got == {1: 4, 2: 2, 3: 1}

    def test_earliest_occurrence_gates_next_step(self, ray_session):
        # user does a(10), b(5), b(15): the a at 10 gates b → only b(15)
        rows = [(1, "a", 10), (1, "b", 5), (1, "b", 15), (1, "c", 16)]
        got = self._run(rows)
        assert got == {1: 1, 2: 1, 3: 1}


class TestCohortRetention:
    def test_matches_duckdb_sf0001(self, ray_session):
        import duckdb
        from crusty_ray.ops.behavior import cohort_retention_ds
        sf = "/root/testdata/sf0.001"
        mine = cohort_retention_ds(sf).to_pandas() \
            .sort_values(["cohort_week", "week"]).reset_index(drop=True)
        want = duckdb.sql(f"""
            WITH uw AS (SELECT DISTINCT user_id,
                          (epoch_us(ts) // 86400000000 // 7)::BIGINT AS week
                        FROM '{sf}/events.parquet'),
            c AS (SELECT user_id, min(week) AS cohort_week FROM uw GROUP BY 1)
            SELECT cohort_week, week, count(*)::BIGINT AS n_users
            FROM uw JOIN c USING (user_id) GROUP BY 1,2 ORDER BY 1,2
        """).df().astype("int64")
        pd.testing.assert_frame_equal(mine.astype("int64"), want)


class TestIntVariance:
    def test_small_groups_and_sentinel(self, ray_session):
        from crusty_ray.ops.stats import grouped_int_variance
        df = pd.DataFrame({
            "g": ["x", "x", "x", "y", "z", "z"],
            "v": [10, 20, 40, 7, 5, 5],
        })
        out = grouped_int_variance(ray.data.from_pandas(df), ["g"], "v") \
            .to_pandas().sort_values("g").reset_index(drop=True)
        # x: n=3, var = (3*2100 - 70^2)//(3*2) = (6300-4900)//6 = 233
        assert out.loc[0].tolist() == ["x", 3, 233]
        assert out.loc[1].tolist() == ["y", 1, -1]   # n<2 sentinel
        assert out.loc[2].tolist() == ["z", 2, 0]

    def test_overflow_safe_across_batches(self, ray_session):
        # 5000 rows of 9e7 (the documented per-value bound): whole-corpus
        # Σx² = 4.05e19 overflows int64 — the Python-int reduce must not
        from crusty_ray.ops.stats import grouped_int_variance
        n = 5000
        v = np.full(n, 90_000_000, dtype=np.int64)
        v[::2] = 89_999_000  # two values → nonzero variance
        df = pd.DataFrame({"g": ["k"] * n, "v": v})
        out = grouped_int_variance(ray.data.from_pandas(df), ["g"], "v") \
            .to_pandas()
        s = int(v.astype(object).sum())
        ss = int((v.astype(object) * v.astype(object)).sum())
        want = (n * ss - s * s) // (n * (n - 1))
        assert out.loc[0, "n"] == n
        assert int(out.loc[0, "var"]) == want


class TestQualitySignals:
    def test_compression_ratio_semantics(self, ray_session):
        from crusty_ray.ops.text import compression_ratio_ds
        sf = "/root/testdata/sf0.001"
        a = compression_ratio_ds(sf).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        b = compression_ratio_ds(sf).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)  # deterministic across runs
        assert (a["ratio_pm"] > 0).all() and (a["ratio_pm"] < 1200).all()
        # exactness: the per-row kernel IS zlib level 6 on utf-8 bytes
        import duckdb
        import zlib
        docs = duckdb.sql(
            f"SELECT doc_id, coalesce(text,'') t FROM "
            f"'{sf}/documents.parquet' ORDER BY doc_id").df()
        want = [len(zlib.compress(t.encode(), 6)) for t in docs["t"]]
        assert a["zlib_len"].tolist() == want

    def test_repetitive_text_flagged(self, ray_session):
        # a doc of one repeated word must compress far better and score
        # dup_2gram_pm = 1000, top_word_pm = 1000
        import tempfile

        import pyarrow as pa
        import pyarrow.parquet as pq

        from crusty_ray.ops.text import compression_ratio_ds, gopher_quality_ds
        d = tempfile.mkdtemp()
        pq.write_table(pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": ["spam " * 200, " ".join(f"w{i}" for i in range(200))],
        }), f"{d}/documents.parquet")
        g = gopher_quality_ds(d).to_pandas().set_index("doc_id")
        # 200 tokens → 199 bigrams, 1 distinct: (1000·198)//199 = 994
        assert g.loc[1, "dup_2gram_pm"] == 994
        assert g.loc[1, "top_word_pm"] == 1000
        assert g.loc[2, "dup_2gram_pm"] == 0
        c = compression_ratio_ds(d).to_pandas().set_index("doc_id")
        assert c.loc[1, "ratio_pm"] < c.loc[2, "ratio_pm"]

    def test_unigram_surprisal_planted(self, ray_session, tmp_path):
        # corpus: N=6 occurrences, c(a)=5, c(b)=1 →
        # bits(a) = (6//5).bit_length()-1 = 0, bits(b) = 6.bit_length()-1 = 2
        import pyarrow as pa
        import pyarrow.parquet as pq

        from crusty_ray.ops.text import unigram_surprisal_ds
        pq.write_table(pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": ["a a a a", "a b", ""],
        }), str(tmp_path / "documents.parquet"))
        s = unigram_surprisal_ds(str(tmp_path)).to_pandas() \
            .set_index("doc_id")
        assert s.loc[1].tolist() == [4, 0, 0]
        assert s.loc[2].tolist() == [2, 2, 1000]   # (0+2) bits over 2 toks
        assert s.loc[3].tolist() == [0, 0, 0]      # empty doc scores zero

    def test_unigram_surprisal_equals_bruteforce(self, ray_session,
                                                 tmp_path):
        # random tiny corpora (3 seeds) vs a pure-Python recomputation —
        # exercises skewed counts, hapaxes, single-token docs
        import pyarrow as pa
        import pyarrow.parquet as pq

        from crusty_ray.ops.text import unigram_surprisal_ds
        from collections import Counter

        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            vocab = [f"t{i}" for i in range(6)]
            texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 9),
                                         p=[.5, .2, .1, .1, .05, .05]))
                     for _ in range(8)]
            d = tmp_path / f"s{seed}"
            d.mkdir()
            pq.write_table(pa.table({
                "doc_id": pa.array(range(8), pa.int64()), "text": texts}),
                str(d / "documents.parquet"))
            got = unigram_surprisal_ds(str(d)).to_pandas() \
                .set_index("doc_id").sort_index()
            c = Counter(t for txt in texts for t in txt.split(" ") if t)
            n = sum(c.values())
            for i, txt in enumerate(texts):
                toks = [t for t in txt.split(" ") if t]
                bits = sum((n // c[t]).bit_length() - 1 for t in toks)
                assert got.loc[i, "n_tokens"] == len(toks)
                assert got.loc[i, "total_bits"] == bits
                assert got.loc[i, "mean_millibits"] == \
                    ((1000 * bits) // len(toks) if toks else 0)


class TestDomainPagerank:
    def test_exact_vs_serial_reference(self, ray_session, tmp_path):
        # synthesize a crawl_log slice (url, domain) — the only columns the
        # edge re-derivation reads — and check the distributed face equals
        # the serial integer reference over the identical edge set
        import pyarrow as pa
        import pyarrow.parquet as pq

        from crusty_ray.core.hashing import hash64_batch
        from crusty_ray.datagen.webgraph import SyntheticWeb, WebConfig
        from crusty_ray.ops.graph import (domain_link_edges, domain_pagerank,
                                          pagerank_reference)

        web_cfg = WebConfig(n_domains=25, max_pages_per_domain=8)
        web = SyntheticWeb(web_cfg)
        urls, doms = [], []
        for i in range(web_cfg.n_domains):
            for j in range(min(4, web.n_pages(i))):
                urls.append(web.page_url(i, j))
                doms.append(web.domain_name(i))
        d = tmp_path / "crawl_log"
        d.mkdir()
        pq.write_table(pa.table({"url": urls, "domain": doms}),
                       str(d / "part.parquet"))

        got = domain_pagerank(str(d), web_cfg).to_pandas() \
            .sort_values("domain").reset_index(drop=True)

        edges = domain_link_edges(str(d), web_cfg).to_pandas()
        enc = lambda s: hash64_batch(list(s)).astype(np.int64)  # noqa: E731
        ref = pagerank_reference(
            list(zip(enc(edges["src_domain"]), enc(edges["dst_domain"]))))
        name_of = {}
        for col in ("src_domain", "dst_domain"):
            for n, dom in zip(enc(edges[col]), edges[col]):
                name_of[int(n)] = dom
        want = pd.DataFrame(
            sorted((name_of[k], v) for k, v in ref.items()),
            columns=["domain", "rank_q"])
        pd.testing.assert_frame_equal(
            got.astype({"rank_q": "int64"}),
            want.astype({"rank_q": "int64"}))


def test_edge_memo_does_not_grow_without_a_session(monkeypatch):
    """Without a Ray job id the edge memo is neither read nor written: each
    call rebuilds, and no placeholder-keyed entry is pinned per call."""
    from crusty_ray.ops import graph

    class _Stub:
        def map_batches(self, *a, **kw):
            return self

        def materialize(self):
            return object()

    def no_session():
        raise RuntimeError("no Ray session")

    monkeypatch.setattr(ray, "get_runtime_context", no_session)
    monkeypatch.setattr(graph, "read_table", lambda *a, **kw: _Stub())
    monkeypatch.setattr(graph, "partitioned_group_apply",
                        lambda *a, **kw: _Stub())
    monkeypatch.setattr(graph, "distinct_rows", lambda *a, **kw: _Stub())
    assert graph._edge_memo_key("cooc", "sf", 4) is None
    before = len(graph._EDGE_MEMO)
    first = graph.part_cooccurrence_edges("sf", num_partitions=4)
    second = graph.part_cooccurrence_edges("sf", num_partitions=4)
    assert first is not second  # rebuilt, not served from the memo
    assert len(graph._EDGE_MEMO) == before
