"""End-to-end conformance: distributed engine ≡ single-threaded simulator.

The BASELINE.md correctness gate: crawl ordering + URL-seen set exact match
under the same seed list + politeness budget, resume ≡ uninterrupted, and the
serialized seen-set filters byte-identical.
"""

import pandas as pd
import pytest

from crusty_ray.config import test_config as _test_config
from crusty_ray.datagen.webgraph import WebConfig
from crusty_ray.sim.simulator import CrawlSimulator

WEB_CFG = WebConfig(n_domains=60, max_pages_per_domain=20)


def small_cfg(**over):
    return _test_config(**{"rules.total_link_budget": 30,
                           "rules.links_per_task_budget": 10,
                           "rules.max_level": 6, "engine.max_epochs": 25,
                           **over})


@pytest.fixture(scope="module")
def sim_result():
    return CrawlSimulator(small_cfg(), WEB_CFG).run()


def log_df(rows_or_table):
    if hasattr(rows_or_table, "to_pandas"):
        df = rows_or_table.to_pandas()
    else:
        df = pd.DataFrame(rows_or_table)
    df["image_ids"] = df["image_ids"].map(tuple)
    return (df.sort_values(["epoch", "seq"]).reset_index(drop=True)
            .astype({"status_code": "int64", "depth": "int64", "shard": "int64"}))


class TestSimulatorProperties:
    def test_crawl_is_nontrivial(self, sim_result):
        assert len(sim_result.crawl_log) > 300
        assert len(sim_result.finished_domains) > 20
        assert sim_result.epochs_run > 5

    def test_politeness_one_domain_per_addr_key(self):
        """Invariant: never two simultaneously active jobs on one addr_key."""
        cfg = small_cfg()
        sim = CrawlSimulator(cfg, WEB_CFG).seed()
        # instrument: after each epoch every in_processing map is consistent
        msgs_seen = []
        for epoch in range(10):
            tasks = []
            for s in sim.shards:
                tasks.extend(s.take_ready(epoch))
            for s in sim.shards:
                active_keys = [j.addr_key for j in s.jobs.values()]
                assert len(active_keys) == len(set(active_keys)), "politeness violated"
                msgs_seen.append(len(active_keys))
            if not tasks and all(s.idle() for s in sim.shards):
                break
            sim._run_epoch(epoch, tasks)
        assert sum(msgs_seen) > 0

    def test_budgets_respected(self, sim_result):
        cfg = small_cfg()
        by_domain = {}
        for m in sim_result.job_metrics:
            by_domain[m["domain"]] = m
            assert m["pages_scheduled"] <= cfg.rules.total_link_budget
        depth_max = max(r["depth"] for r in sim_result.crawl_log)
        assert depth_max < cfg.rules.max_level

    def test_no_url_fetched_twice_within_job(self, sim_result):
        seen = {}
        for r in sim_result.crawl_log:
            key = (r["domain"], r["url"])
            # a domain may be re-crawled only if it was never finished+seen
            assert key not in seen, f"{key} fetched twice"
            seen[key] = True

    def test_determinism(self):
        a = CrawlSimulator(small_cfg(), WEB_CFG).run()
        b = CrawlSimulator(small_cfg(), WEB_CFG).run()
        assert a.crawl_log == b.crawl_log
        assert a.finished_domains == b.finished_domains
        assert a.topk_rows == b.topk_rows
        assert a.seen_filter_bytes() == b.seen_filter_bytes()


class TestEngineMatchesSimulator:
    def _engine(self, tmp_path, cfg):
        from crusty_ray.pipelines.crawl import CrawlEngine
        return CrawlEngine(cfg, WEB_CFG, str(tmp_path / "out"))

    def test_inline_path_exact_match(self, ray_session, tmp_path, sim_result):
        # default block size: a permit of this small web mostly fits one
        # bundle, so an epoch runs as a single stage task — the case the
        # deleted in-process placement used to take
        eng = self._engine(tmp_path, small_cfg()).run()
        edf, sdf = log_df(eng.read_crawl_log()), log_df(sim_result.crawl_log)
        pd.testing.assert_frame_equal(edf, sdf, check_dtype=False)
        assert eng.finished_domains == sim_result.finished_domains
        assert eng.topk_rows == sim_result.topk_rows
        assert eng.job_metrics == sim_result.job_metrics
        assert eng.seen_filter_bytes() == sim_result.seen_filter_bytes()

    def test_ray_dataset_path_exact_match(self, ray_session, tmp_path, sim_result):
        # small blocks: most epochs run as several stage tasks (one per
        # bundle)
        cfg = small_cfg(**{"engine.fetch_batch_size": 16})
        eng = self._engine(tmp_path, cfg).run()
        edf, sdf = log_df(eng.read_crawl_log()), log_df(sim_result.crawl_log)
        pd.testing.assert_frame_equal(edf, sdf, check_dtype=False)
        assert eng.finished_domains == sim_result.finished_domains
        assert eng.topk_rows == sim_result.topk_rows
        assert eng.job_metrics == sim_result.job_metrics
        assert eng.seen_filter_bytes() == sim_result.seen_filter_bytes()

    def test_multigroup_shards_exact_match(self, ray_session, tmp_path):
        # shard_total > SHARDS_PER_GROUP (8) exercises the grouped
        # absorb/exchange storage layout with MULTIPLE group dirs and
        # cross-group routing — the bench topology (32 shards), previously
        # uncovered by the conformance suite (tests used 4 shards = 1 group)
        cfg = small_cfg(**{"jobs.shard_total": 20, "jobs.shard_max": 20,
                           "engine.fetch_batch_size": 16})
        sim = CrawlSimulator(cfg, WEB_CFG).run()
        eng = self._engine(tmp_path, cfg).run()
        edf, sdf = log_df(eng.read_crawl_log()), log_df(sim.crawl_log)
        pd.testing.assert_frame_equal(edf, sdf, check_dtype=False)
        assert eng.finished_domains == sim.finished_domains
        assert eng.seen_filter_bytes() == sim.seen_filter_bytes()

    def test_scratch_dir_exact_match(self, ray_session, tmp_path, sim_result):
        # transient exchange on a RAM-backed scratch dir (bench setting) —
        # identical results, and the scratch root is cleaned up afterwards
        import os
        cfg = small_cfg(**{"engine.fetch_batch_size": 16,
                           "engine.scratch_dir": str(tmp_path / "shm")})
        eng = self._engine(tmp_path, cfg).run()
        edf, sdf = log_df(eng.read_crawl_log()), log_df(sim_result.crawl_log)
        pd.testing.assert_frame_equal(edf, sdf, check_dtype=False)
        assert eng.seen_filter_bytes() == sim_result.seen_filter_bytes()
        assert not os.path.exists(eng.scratch)  # cleaned at _write_outputs

    def test_empty_epoch_with_delay_matches_sim(self, ray_session, tmp_path):
        # Regression (ADVICE r1): delay_epochs>1 parks every domain on some
        # epochs → zero ready tasks while shards are NOT idle. The engine used
        # to hit pa.concat_tables([]) (ArrowInvalid) there; it must instead
        # run the barrier like the simulator and stay exact-equal.
        cfg = small_cfg(**{"crawl.delay_epochs": 3, "engine.max_epochs": 60})
        sim = CrawlSimulator(cfg, WEB_CFG).run()
        logged_epochs = {r["epoch"] for r in sim.crawl_log}
        assert len(logged_epochs) < sim.epochs_run  # empty epochs occurred
        eng = self._engine(tmp_path, cfg).run()
        edf, sdf = log_df(eng.read_crawl_log()), log_df(sim.crawl_log)
        pd.testing.assert_frame_equal(edf, sdf, check_dtype=False)
        assert eng.epochs_run == sim.epochs_run
        assert eng.finished_domains == sim.finished_domains
        assert eng.seen_filter_bytes() == sim.seen_filter_bytes()


def test_parallel_seed_resolution_equals_serial(ray_session, tmp_path):
    """>20k seeds resolve via chunked Ray tasks — byte-identical to the
    serial path (pure function, chunked in order)."""
    from crusty_ray.datagen.webgraph import SyntheticWeb
    from crusty_ray.pipelines.crawl import CrawlEngine
    from crusty_ray.sim.simulator import seed_messages

    cfg = small_cfg()
    wc = WebConfig(n_domains=25_000, max_pages_per_domain=4)
    seeds = [f"http://{SyntheticWeb(wc).domain_name(i)}/" for i in range(22_000)]
    eng = CrawlEngine(cfg, wc, str(tmp_path / "o"), seeds=seeds)
    assert eng._resolve_seeds() == seed_messages(seeds, cfg, SyntheticWeb(wc))


def test_flatten_shard_refs_bundles():
    """The stage-task bundle rule: consecutive non-empty blocks in
    shard-asc order, each block in exactly one bundle, no bundle over the
    row cap, and the per-shard seq offsets unchanged by bundling."""
    from crusty_ray.pipelines.crawl import flatten_shard_refs, task_block_rows
    cfg = small_cfg(**{"jobs.shard_total": 8, "jobs.shard_min": 2,
                       "jobs.shard_max": 7})
    cap = task_block_rows(cfg)
    # (ref, rows) blocks of 4 scoped shards starting at shard 2; a shard's
    # blocks are full-size except its last, as take_ready_refs emits them
    shard_refs = [
        [("a0", cap), ("a1", cap // 3)],
        [],
        [("c0", 0)],
        [("d0", cap // 2), ("d1", 1)],
        [("e0", cap), ("e1", cap), ("e2", cap // 2 + 1)],
    ]
    off, bundles = flatten_shard_refs(shard_refs, cfg)
    rows = {r: n for refs in shard_refs for r, n in refs}
    flat = [r for b in bundles for r in b]
    assert flat == [r for refs in shard_refs for r, n in refs if n > 0]
    assert all(b and sum(rows[r] for r in b) <= cap for b in bundles)
    assert bundles == [["a0"], ["a1", "d0", "d1"], ["e0"], ["e1"], ["e2"]]
    assert list(off) == [0, 0, 0, cap + cap // 3, cap + cap // 3,
                         cap + cap // 3, cap + cap // 3 + cap // 2 + 1, 0]
    # a permit under one block's size is one bundle
    _, small = flatten_shard_refs([[("x", 3)], [("y", 5)], [("z", 7)]], cfg)
    assert small == [["x", "y", "z"]]
    assert flatten_shard_refs([[], []], cfg)[1] == []


def test_task_blocks_round_trip(ray_session):
    """A take-ready list of 2.5 blocks' worth of tasks is three plain-column
    blocks; through a stage task (``_run_bundle``) the task table has the
    exact schema, a continuous ``local_seq`` and the tasks in order. An
    empty list gives no block."""
    import ray
    from crusty_ray.pipelines.crawl import (TASK_SCHEMA, _run_bundle,
                                            flatten_shard_refs, task_blocks,
                                            task_block_rows)
    cfg = small_cfg(**{"jobs.shard_total": 1, "jobs.shard_max": 1})
    cap = task_block_rows(cfg)
    n = cap * 5 // 2
    tasks = [{"url": f"http://d{i % 7}.com/p{i}", "domain": f"d{i % 7}.com",
              "depth": i % 3, "shard": 0} for i in range(n)]
    blocks = task_blocks(tasks, cfg)
    assert [len(b["url"]) for b in blocks] == [cap, cap, n - 2 * cap]
    assert all(type(b) is dict and list(b) == TASK_SCHEMA.names
               for b in blocks)
    assert task_blocks([], cfg) == []

    refs = [(ray.put(b), len(b["url"])) for b in blocks]
    _, bundles = flatten_shard_refs([refs], cfg)
    assert len(bundles) == 3

    def stage(table, *_permit):  # a stand-in EpochStage, shipped by value
        return (table.schema, table.column("local_seq").to_pylist(),
                table.column("url").to_pylist())
    outs = ray.get([_run_bundle.remote(stage, 0, None, "", "", *b)
                    for b in bundles])
    assert all(schema.equals(TASK_SCHEMA) for schema, _, _ in outs)
    assert [s for _, seq, _ in outs for s in seq] == list(range(n))
    assert [u for _, _, urls in outs for u in urls] == [x["url"] for x in tasks]


# Runs in its own process and Ray session: an actor may be placed on a
# pooled worker that earlier tasks of this session already filled with
# ray.data and pandas.
_ACTOR_MODULES_SCRIPT = r"""
import json, os, sys
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from crusty_ray.config import test_config
from crusty_ray.datagen.webgraph import WebConfig
from crusty_ray.pipelines.crawl import CrawlEngine

HEAVY = ("ray.air", "ray.data", "pandas")

def heavy_modules(actor):
    return actor.__ray_call__.remote(
        lambda self: sorted(m for m in HEAVY if m in sys.modules))

web = WebConfig(n_domains=40, max_pages_per_domain=8)
out = {}
for mode in ("bsp", "streaming"):
    cfg = test_config()
    cfg.engine.mode = mode
    cfg.engine.max_epochs = 12
    eng = CrawlEngine(cfg, web, os.path.join(sys.argv[1], mode)).run()
    out[mode] = {"pages": eng.pages_fetched_total,
                 "modules": ray.get([heavy_modules(a) for a in eng.actors])}
eng = CrawlEngine(test_config(), web, os.path.join(sys.argv[1], "blocks"))
eng._seed()
refs = [r for a in eng.actors for r, _ in ray.get(a.take_ready_refs.remote(0))]
out["block_types"] = [type(b).__name__ for b in ray.get(refs)]
ray.shutdown()
print(json.dumps(out))
"""


def test_shard_actors_import_no_ray_data(tmp_path):
    """No Arrow table crosses a Ray call in the crawl loop: after a BSP
    crawl and a streaming crawl, no shard actor has imported ray.air,
    ray.data or pandas, and a take_ready_refs block is a plain dict. Ray's
    pa.Table reducer imports all three in every fresh process that puts or
    gets a table. The streaming crawl covers what the BSP one does not:
    permits dequeued while others are in flight (window > 1)."""
    import json
    import os
    import subprocess
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.run(
        [sys.executable, "-c", _ACTOR_MODULES_SCRIPT, str(tmp_path)],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for mode in ("bsp", "streaming"):
        assert out[mode]["pages"] > 0
        assert out[mode]["modules"] == [[]] * len(out[mode]["modules"])
    assert out["block_types"] and set(out["block_types"]) == {"dict"}


class TestAbsorbRetryIdempotent:
    def test_epoch_stage_retry_overwrites(self, tmp_path):
        """A Ray task retry re-executes EpochStage on the same batch; the
        deterministic (epoch, min-seq) file names must make the second
        attempt overwrite its absorb files and its crawl-log part, not
        duplicate them (ADVICE r1 #3)."""
        import os

        import numpy as np
        import pyarrow.parquet as pq
        from crusty_ray.pipelines.crawl import (EpochStage, task_blocks,
                                                task_table)
        cfg = small_cfg()
        absorb = str(tmp_path / "absorb")
        log_dir = str(tmp_path / "log")
        stage = EpochStage(WEB_CFG, cfg)
        n = 12
        web_seeds = [f"http://site{i:05d}.com/" for i in range(n)]
        batch = task_table(task_blocks(
            [{"url": u, "domain": u[7:-1], "depth": 0,
              "shard": i % cfg.jobs.shard_total}
             for i, u in enumerate(web_seeds)], cfg))
        # one list numbers every task: zero offsets make seq = local_seq
        permit = (3, np.zeros(cfg.jobs.shard_total, np.int64), absorb,
                  log_dir)
        out1 = stage(batch, *permit)

        def snapshot():
            got = {}
            for root, _, files in os.walk(absorb):
                for f in files:
                    p = os.path.join(root, f)
                    got[os.path.relpath(p, absorb)] = os.path.getsize(p)
            return got

        files1 = snapshot()
        assert files1, "absorb files written"
        out2 = stage(batch, *permit)  # the "retry"
        files2 = snapshot()
        assert files1 == files2  # same names, same sizes — overwritten
        assert out1 == out2  # deterministic (rows, bytes) summary
        assert os.listdir(log_dir) == ["part-e3-s0.parquet"]
        assert pq.read_table(os.path.join(log_dir, "part-e3-s0.parquet")
                             ).num_rows == n
        # total absorbed rows across files == ONE attempt's rows
        import pyarrow.feather as pf
        total = sum(pf.read_table(os.path.join(absorb, rel)).num_rows
                    for rel in files2)
        assert total == n


class TestResume:
    def test_resume_equals_uninterrupted(self, ray_session, tmp_path, sim_result):
        from crusty_ray.pipelines.crawl import CrawlEngine
        cfg = small_cfg()
        # interrupted run: stop after 7 epochs (checkpoint every epoch)
        eng1 = CrawlEngine(cfg, WEB_CFG, str(tmp_path / "o")).run(max_epochs=7)
        assert eng1.epochs_run == 7
        eng2 = CrawlEngine.resume(cfg, WEB_CFG, str(tmp_path / "o")).run()
        edf, sdf = log_df(eng2.read_crawl_log()), log_df(sim_result.crawl_log)
        pd.testing.assert_frame_equal(edf, sdf, check_dtype=False)
        assert eng2.finished_domains == sim_result.finished_domains
        assert eng2.topk_rows == sim_result.topk_rows
        assert eng2.seen_filter_bytes() == sim_result.seen_filter_bytes()



class TestStageReplay:
    """A BSP epoch is a permit with a window of one: a failed stage is
    replayed once at its turn, and a second failure aborts loudly."""

    def test_worker_task_failure_replayed(self, ray_session, tmp_path,
                                          monkeypatch, sim_result):
        """A stage task raises inside its Ray worker once, after writing
        its files: the epoch is replayed and the crawl equals the
        simulator's log."""
        import os

        import ray
        from crusty_ray.pipelines import crawl

        flag = str(tmp_path / "failed-once")

        @ray.remote
        def run_bundle(stage, epoch, *args):
            from crusty_ray.pipelines.crawl import task_table
            out = stage(task_table(args[3:]), epoch, *args[:3])
            if epoch == 2:
                try:  # exactly one task, across worker processes, fails
                    os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    return out
                raise OSError("injected worker-task failure")
            return out

        monkeypatch.setattr(crawl, "_run_bundle", run_bundle)
        cfg = small_cfg(**{"engine.fetch_batch_size": 16})
        eng = crawl.CrawlEngine(cfg, WEB_CFG, str(tmp_path / "out")).run()
        assert os.path.exists(flag)  # the injection actually fired
        edf, sdf = log_df(eng.read_crawl_log()), log_df(sim_result.crawl_log)
        pd.testing.assert_frame_equal(edf, sdf, check_dtype=False)
        assert eng.finished_domains == sim_result.finished_domains
        assert eng.seen_filter_bytes() == sim_result.seen_filter_bytes()

    def test_persistent_failure_aborts(self, ray_session, tmp_path,
                                       monkeypatch):
        """A stage task that fails inside its Ray worker on the attempt and
        on the replay aborts the run before the epoch's state is applied."""
        import os
        import tempfile
        from collections import Counter

        import ray
        from crusty_ray.pipelines import crawl

        calls = tmp_path / "calls"
        calls.mkdir()
        calls = str(calls)

        @ray.remote
        def run_bundle(stage, epoch, *args):
            import hashlib

            from crusty_ray.pipelines.crawl import task_table
            if epoch == 2:  # one file per call, named by its bundle
                key = hashlib.md5(args[3]["url"][0].encode()).hexdigest()
                tempfile.mkstemp(prefix=key + ".", dir=calls)
                raise OSError("injected persistent stage failure")
            return stage(task_table(args[3:]), epoch, *args[:3])

        monkeypatch.setattr(crawl, "_run_bundle", run_bundle)
        eng = crawl.CrawlEngine(small_cfg(), WEB_CFG, str(tmp_path / "out"))
        with pytest.raises(RuntimeError, match="replay also failed"):
            eng.run()
        # every bundle of epoch 2 ran twice: the attempt and its replay
        per_bundle = Counter(n.split(".")[0] for n in os.listdir(calls))
        assert per_bundle and set(per_bundle.values()) == {2}
        assert {m["epoch"] for m in eng.job_metrics} <= {0, 1}

def test_compact_log_at_end(ray_session, tmp_path):
    """engine.compact_log_at_end: the drain rewrites the per-epoch/per-block
    crawl_log small files into ~64 MiB compact files BESIDE the resumable
    epoch layout — same rows, same content (r3 VERDICT consistency sweep)."""
    import duckdb
    from crusty_ray.pipelines.crawl import CrawlEngine

    cfg = small_cfg(**{"engine.compact_log_at_end": True})
    eng = CrawlEngine(cfg, WEB_CFG, str(tmp_path / "out")).run()
    summary = eng.compaction_summary
    assert int(summary["rows"][0]) == eng.read_crawl_log().num_rows
    assert int(summary["out_files"][0]) >= 1
    assert int(summary["in_files"][0]) > int(summary["out_files"][0])
    a = duckdb.sql(f"select epoch, domain, url from read_parquet('{tmp_path}/out/crawl_log/*/*.parquet') order by 1,2,3").df()
    b = duckdb.sql(f"select epoch, domain, url from read_parquet('{tmp_path}/out/crawl_log_compact/*.parquet') order by 1,2,3").df()
    assert a.astype({"epoch": "int64"}).equals(b.astype({"epoch": "int64"}))
