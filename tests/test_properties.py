"""Property-based invariants over random crawl configurations (SURVEY §5.2).

Run against the simulator (the engine is exact-match-equal to it by
tests/test_crawl_e2e.py, so simulator invariants transfer).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crusty_ray.config import test_config as _tc
from crusty_ray.datagen.webgraph import WebConfig
from crusty_ray.sim.simulator import CrawlSimulator

CFG_STRATEGY = dict(
    seed=st.integers(0, 10_000),
    n_domains=st.integers(20, 80),
    shard_total=st.integers(1, 8),
    total_budget=st.integers(3, 40),
    per_page=st.integers(1, 12),
    max_level=st.integers(1, 8),
    concurrency=st.integers(1, 6),
    delay=st.integers(1, 3),
)


def build(seed, n_domains, shard_total, total_budget, per_page, max_level,
          concurrency, delay):
    cfg = _tc()
    cfg.jobs.shard_total = shard_total
    cfg.jobs.shard_max = shard_total
    cfg.rules.total_link_budget = total_budget
    cfg.rules.links_per_task_budget = per_page
    cfg.rules.max_level = max_level
    cfg.crawl.concurrency = concurrency
    cfg.crawl.delay_epochs = delay
    cfg.engine.max_epochs = 25
    web_cfg = WebConfig(seed=seed, n_domains=n_domains, max_pages_per_domain=12)
    return cfg, web_cfg


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**CFG_STRATEGY)
def test_crawl_invariants(seed, n_domains, shard_total, total_budget,
                          per_page, max_level, concurrency, delay):
    cfg, web_cfg = build(seed, n_domains, shard_total, total_budget, per_page,
                         max_level, concurrency, delay)
    sim = CrawlSimulator(cfg, web_cfg)

    # instrumented run: politeness invariant checked every epoch
    sim.seed()
    for epoch in range(cfg.engine.max_epochs):
        tasks = []
        for s in sim.shards:
            tasks.extend(s.take_ready(epoch))
        for s in sim.shards:
            keys = [j.addr_key for j in s.jobs.values()]
            assert len(keys) == len(set(keys)), "two in-flight jobs share an addr_key"
            for j in s.jobs.values():
                assert j.pages_scheduled <= total_budget
        if not tasks and all(s.idle() for s in sim.shards):
            break
        sim._run_epoch(epoch, tasks)

    # depth bound (PageLevel)
    assert all(r["depth"] < max_level for r in sim.crawl_log)
    # per-(domain,url) fetched at most once; at most one job per domain ever
    pairs = [(r["domain"], r["url"]) for r in sim.crawl_log]
    assert len(pairs) == len(set(pairs))
    assert len(sim.finished_domains) == len(set(sim.finished_domains))
    # seen-set monotone: every finished domain is in the shard's cuckoo filter
    for d in sim.finished_domains:
        assert any(d in s.cuckoo for s in sim.shards)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000),
       shard_total=st.integers(2, 12),
       delay=st.integers(1, 3),
       delay_jitter=st.integers(0, 2),
       hard_jitter=st.integers(0, 2),
       concurrency=st.integers(1, 6))
def test_engine_equals_simulator_random_configs(
        ray_session, tmp_path_factory, seed, shard_total, delay,
        delay_jitter, hard_jitter, concurrency):
    """Distributed engine ≡ simulator across random politeness/jitter/shard
    configs, FORCING the Ray Dataset path (storage exchange active) — the
    conformance net for the delay/jitter/empty-epoch state space."""
    from crusty_ray.pipelines.crawl import CrawlEngine

    cfg, web_cfg = build(seed, 40, shard_total, 15, 6, 5, concurrency, delay)
    cfg.crawl.delay_jitter_epochs = delay_jitter
    cfg.crawl.job_hard_timeout_jitter_epochs = hard_jitter
    cfg.engine.max_epochs = 20
    cfg.engine.fetch_batch_size = 32

    sim = CrawlSimulator(cfg, web_cfg).run()
    base = tmp_path_factory.mktemp(f"prop{seed}")
    eng = CrawlEngine(cfg, web_cfg, str(base / "out")).run()

    assert eng.finished_domains == sim.finished_domains
    assert eng.seen_filter_bytes() == sim.seen_filter_bytes()
    import pandas as pd
    e = pd.DataFrame(eng.read_crawl_log().to_pylist()).drop(columns=["image_ids"])
    s = pd.DataFrame(sim.crawl_log).drop(columns=["image_ids"])
    pd.testing.assert_frame_equal(
        e.sort_values(["epoch", "seq"]).reset_index(drop=True),
        s.sort_values(["epoch", "seq"]).reset_index(drop=True),
        check_dtype=False)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), cut=st.integers(1, 12))
def test_resume_equivalence_random_cutpoints(ray_session, tmp_path_factory,
                                             seed, cut):
    """resume(checkpoint at any epoch) ≡ uninterrupted run (north_rule)."""
    from crusty_ray.pipelines.crawl import CrawlEngine

    cfg, web_cfg = build(seed, 40, 4, 15, 6, 5, 2, 1)
    cfg.engine.max_epochs = 14
    base = tmp_path_factory.mktemp(f"res{seed}_{cut}")

    full = CrawlEngine(cfg, web_cfg, str(base / "full")).run()
    part = CrawlEngine(cfg, web_cfg, str(base / "part")).run(max_epochs=cut)
    resumed = CrawlEngine.resume(cfg, web_cfg, str(base / "part")).run()

    assert resumed.finished_domains == full.finished_domains
    assert resumed.topk_rows == full.topk_rows
    assert resumed.seen_filter_bytes() == full.seen_filter_bytes()
    f = full.read_crawl_log().to_pandas().drop(columns=["image_ids"])
    r = resumed.read_crawl_log().to_pandas().drop(columns=["image_ids"])
    import pandas as pd
    pd.testing.assert_frame_equal(
        f.sort_values(["epoch", "seq"]).reset_index(drop=True),
        r.sort_values(["epoch", "seq"]).reset_index(drop=True),
        check_dtype=False)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10_000),
       n_left=st.integers(0, 120),
       n_right=st.integers(0, 80),
       key_lo=st.integers(0, 3),
       key_hi=st.integers(4, 25),
       how=st.sampled_from(["inner", "left", "outer"]))
def test_hash_join_equals_pandas_merge(ray_session, seed, n_left, n_right,
                                       key_lo, key_hi, how):
    """Property: hash_join(inner|left|outer) ≡ pandas merge for arbitrary
    sizes (incl. empty sides), key ranges (disjoint through fully
    overlapping), duplicate keys on both sides, and extreme int64
    payloads."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray
    from crusty_ray.ops.joins import hash_join

    rng = np.random.default_rng(seed)
    left = pd.DataFrame({
        "k": rng.integers(key_lo, key_hi, n_left),
        "lv": rng.integers(-(1 << 62), 1 << 62, n_left, dtype=np.int64),
    })
    right = pd.DataFrame({
        "k": rng.integers(key_lo, key_hi, n_right),
        "rv": rng.integers(-(1 << 62), 1 << 62, n_right, dtype=np.int64),
    })

    def ds(df, n_blocks):
        parts = [p for p in np.array_split(df, n_blocks) if len(p)]
        if not parts:
            parts = [df]
        return ray.data.from_arrow([
            pa.Table.from_pandas(p, preserve_index=False) for p in parts])

    kwargs = {}
    if how == "left":
        kwargs = {"fill": {"rv": np.int64(-7)}}
    elif how == "outer":
        kwargs = {"fill": {"lv": np.int64(-9), "rv": np.int64(-7)}}
    got = hash_join(ds(left, 3), ds(right, 2), on=["k"], how=how,
                    num_partitions=3, **kwargs).to_pandas()
    # reference: object-dtype payloads so pandas' NaN pad can't round-trip
    # int64 through float64 (the exact corruption hash_join is built to
    # avoid)
    left_obj = left.assign(lv=left["lv"].astype(object))
    right_obj = right.assign(rv=right["rv"].astype(object))
    exp = left_obj.merge(right_obj, on="k", how=how)
    if how in ("left", "outer"):
        exp["rv"] = exp["rv"].fillna(-7)
    if how == "outer":
        exp["lv"] = exp["lv"].fillna(-9)
    exp["lv"] = exp["lv"].astype("int64")
    exp["rv"] = exp["rv"].astype("int64")
    cols = ["k", "lv", "rv"]
    got = got[cols].sort_values(cols).reset_index(drop=True) if len(got) \
        else pd.DataFrame(columns=cols)
    exp = exp[cols].sort_values(cols).reset_index(drop=True) if len(exp) \
        else pd.DataFrame(columns=cols)
    assert len(got) == len(exp)
    if len(exp):
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
