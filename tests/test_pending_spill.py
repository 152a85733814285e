"""Spillable frontier state (state/pending.py + cuckoo memmap paging).

Contract: spilling changes WHERE entries live, never the pop order — a
ShardState with a tiny spill threshold must produce the byte-identical
take_ready stream, stats, gauges and checkpoints as the default
in-RAM store, across enqueue/dequeue/finish cycles, compactions, and a
checkpoint/restore in the middle.
"""

import random

import numpy as np
import pytest

from crusty_ray.config import test_config
from crusty_ray.state.frontier import DomainMsg, ShardState
from crusty_ray.state.pending import PendingStore


def mk(threshold: int, tmp_path, **over) -> ShardState:
    cfg = test_config(**over)
    cfg.engine.pending_spill_threshold = threshold
    cfg.engine.pending_spill_max_runs = 3
    cfg.engine.scratch_dir = str(tmp_path)
    return ShardState(0, cfg)


def msgs_for(rng: random.Random, n: int, epoch: int) -> list[DomainMsg]:
    out = []
    for _ in range(n):
        i = rng.randrange(10_000)
        out.append(DomainMsg(domain=f"d{i}.com", addr_key=f"K{i % 97}",
                             shard=0, disc_depth=rng.randrange(4),
                             disc_epoch=epoch))
    return out


class TestStoreEquivalence:
    def drive(self, store_threshold, tmp_path, epochs=14, seed=7):
        rng = random.Random(seed)
        s = mk(store_threshold, tmp_path / f"t{store_threshold}",
               **{"jobs.dequeue_limit": 9})
        stream = []
        for epoch in range(epochs):
            s.enqueue(msgs_for(rng, rng.randrange(5, 60), epoch))
            s.apply_enqueues(epoch)
            tasks = s.take_ready(epoch)
            stream.append([t["domain"] for t in tasks])
            # jobs finish instantly: absorb empty results
            s.absorb([{"domain": t["domain"], "depth": t["depth"],
                       "url": t["url"], "sched_links": [],
                       "cand_domains": [], "cand_addr_keys": [],
                       "cand_shards": []} for t in tasks])
            s.end_epoch(epoch)
        return s, stream

    def test_spilled_equals_inram(self, tmp_path):
        # identical RNG seed → identical workload on both stores
        s_ram, stream_ram = self.drive(1 << 31, tmp_path)
        s_spill, stream_spill = self.drive(4, tmp_path)
        assert stream_ram == stream_spill
        assert s_ram.stats == s_spill.stats
        assert len(s_ram.pending) == len(s_spill.pending)
        assert s_ram.pending.n_keys() == s_spill.pending.n_keys()
        assert s_ram.pending.snapshot_by_key() == \
            s_spill.pending.snapshot_by_key()
        # the spilled run actually spilled
        assert s_spill.pending.spilled_entries > 0 or \
            s_spill.pending.gauges()["pending_spill_runs"] >= 0

    def test_checkpoint_restore_mid_spill(self, tmp_path):
        rng = random.Random(3)
        s = mk(4, tmp_path / "a", **{"jobs.dequeue_limit": 6})
        for epoch in range(6):
            s.enqueue(msgs_for(rng, 40, epoch))
            s.apply_enqueues(epoch)
            s.take_ready(epoch)
        assert s.pending.gauges()["pending_spill_runs"] > 0
        snap = s.checkpoint()

        s2 = mk(4, tmp_path / "b", **{"jobs.dequeue_limit": 6})
        s2.restore(snap)
        for epoch in range(6, 10):
            a = s.take_ready(epoch)
            b = s2.take_ready(epoch)
            assert a == b
        assert len(s.pending) == len(s2.pending)

    def test_compaction_drops_stale(self, tmp_path):
        store = PendingStore(0, spill_threshold=2, max_runs=1,
                             spill_dir=str(tmp_path))
        for i in range(40):
            m = DomainMsg(domain=f"d{i}.com", addr_key=f"K{i % 5}", shard=0,
                          disc_depth=0, disc_epoch=i)
            store.add(m.priority(), m)
        popped = set()
        for _ in range(20):
            prio_key = sorted(store.head_items())
            m = store.pop(prio_key[0][1])
            popped.add(m.domain)
        assert len(store) == 20
        # force a compaction round; stale entries (popped) must vanish
        for i in range(40, 50):
            m = DomainMsg(domain=f"d{i}.com", addr_key=f"K{i % 5}", shard=0,
                          disc_depth=0, disc_epoch=i)
            store.add(m.priority(), m)
        snap = store.snapshot_by_key()
        all_domains = {m.domain for lst in snap.values() for _p, m in lst}
        assert popped.isdisjoint(all_domains)
        assert len(all_domains) == len(store) == 30


class TestPendingStoreUnit:
    def test_priority_order_across_spill(self, tmp_path):
        store = PendingStore(0, spill_threshold=3, spill_dir=str(tmp_path))
        order = [5, 1, 9, 0, 7, 3, 8, 2, 6, 4]
        for d in order:
            m = DomainMsg(domain=f"x{d}.com", addr_key="K", shard=0,
                          disc_depth=d, disc_epoch=0)
            store.add(m.priority(), m)
        got = []
        while store.n_keys():
            got.append(store.pop("K").disc_depth)
        assert got == sorted(order)

    def test_head_always_min(self, tmp_path):
        rng = random.Random(11)
        store = PendingStore(0, spill_threshold=5, spill_dir=str(tmp_path))
        ref = []  # (prio, domain)
        for i in range(200):
            m = DomainMsg(domain=f"y{i}.com", addr_key=f"K{i % 7}", shard=0,
                          disc_depth=rng.randrange(6), disc_epoch=i % 9)
            store.add(m.priority(), m)
            ref.append((m.priority(), m))
            if rng.random() < 0.3 and store.n_keys():
                # pop the globally-best key, mirror on the reference list
                prio, key = min(store.head_items())
                m2 = store.pop(key)
                ref_for_key = sorted(r for r in ref
                                     if r[1].addr_key == key)
                assert ref_for_key[0][1].domain == m2.domain
                ref.remove(ref_for_key[0])
        # drain fully and compare multisets
        drained = []
        while store.n_keys():
            _, key = min(store.head_items())
            drained.append(store.pop(key).domain)
        assert sorted(drained) == sorted(r[1].domain for r in ref)


class TestCuckooPaging:
    def test_memmap_identical_to_heap(self, tmp_path):
        from crusty_ray.state.cuckoo import CuckooFilter
        items = [f"dom{i}.example" for i in range(5000)]
        heap = CuckooFilter(1 << 13, seed=5)
        paged = CuckooFilter(1 << 13, seed=5, spill_dir=str(tmp_path),
                             spill_bytes=1024)  # forces the memmap path
        assert isinstance(paged.table, np.memmap)
        heap.add_batch(items)
        paged.add_batch(items)
        assert heap.to_bytes() == paged.to_bytes()
        probe = items[::7] + [f"missing{i}" for i in range(100)]
        assert (heap.contains_batch(probe) ==
                paged.contains_batch(probe)).all()
        assert paged.delete_batch(items[:10]) == 10
        heap.delete_batch(items[:10])
        assert heap.to_bytes() == paged.to_bytes()

    def test_roundtrip_from_bytes(self, tmp_path):
        from crusty_ray.state.cuckoo import CuckooFilter
        paged = CuckooFilter(1 << 12, seed=1, spill_dir=str(tmp_path),
                             spill_bytes=1)
        paged.add_batch([f"a{i}" for i in range(100)])
        back = CuckooFilter.from_bytes(paged.to_bytes())
        assert back.to_bytes() == paged.to_bytes()
        assert "a5" in back and "zz" not in back


@pytest.mark.parametrize("threshold", [2, 7, 1 << 31])
def test_engine_sim_exact_with_spill(ray_session, tmp_path, threshold):
    """The full conformance bar: engine ≡ simulator with spilling FORCED at
    test scale (both share ShardState, but the engine exercises the store
    through checkpoints, exchanges and actor boundaries)."""
    import pandas as pd

    from crusty_ray.datagen.webgraph import WebConfig
    from crusty_ray.pipelines.crawl import CrawlEngine
    from crusty_ray.sim.simulator import CrawlSimulator

    cfg = test_config(**{"engine.max_epochs": 12})
    cfg.engine.pending_spill_threshold = threshold
    cfg.engine.pending_spill_max_runs = 2
    cfg.engine.cuckoo_spill_bytes = 1 if threshold != (1 << 31) else 1 << 31
    web = WebConfig(n_domains=60, max_pages_per_domain=10)

    sim = CrawlSimulator(cfg, web).run()
    eng = CrawlEngine(cfg, web, str(tmp_path / "out")).run()
    edf = pd.DataFrame(eng.read_crawl_log().to_pylist())
    sdf = pd.DataFrame(sim.crawl_log)
    cols = ["epoch", "domain", "url"]
    pd.testing.assert_frame_equal(
        edf[cols].sort_values(cols).reset_index(drop=True),
        sdf[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False)
    assert sorted(eng.finished_domains) == sorted(sim.finished_domains)
    assert eng.seen_filter_bytes() == sim.seen_filter_bytes()


class TestSpillAwareCheckpoint:
    def test_spill_v1_roundtrip(self, tmp_path):
        rng = random.Random(9)
        s = mk(4, tmp_path / "a", **{"jobs.dequeue_limit": 6})
        for epoch in range(6):
            s.enqueue(msgs_for(rng, 50, epoch))
            s.apply_enqueues(epoch)
            s.take_ready(epoch)
        assert s.pending.gauges()["pending_spill_runs"] > 0
        run_dir = str(tmp_path / "ckpt_runs")
        snap = s.checkpoint(run_dir=run_dir)
        # the spilled format: RAM part + membership table + run manifest,
        # never the full entry materialization
        assert snap.get("pending_mode") == "spill_v1"
        assert "pending" not in snap
        import os
        assert len(os.listdir(run_dir)) == \
            s.pending.gauges()["pending_spill_runs"]

        s2 = mk(4, tmp_path / "b", **{"jobs.dequeue_limit": 6})
        s2.restore(snap, run_dir=run_dir)
        assert len(s.pending) == len(s2.pending)
        assert s.pending.n_keys() == s2.pending.n_keys()
        for epoch in range(6, 11):
            assert s.take_ready(epoch) == s2.take_ready(epoch)

    def test_unspilled_keeps_legacy_format(self, tmp_path):
        s = mk(1 << 31, tmp_path / "c")
        s.enqueue(msgs_for(random.Random(1), 30, 0))
        s.apply_enqueues(0)
        snap = s.checkpoint(run_dir=str(tmp_path / "r"))
        assert "pending" in snap and "pending_mode" not in snap


def test_engine_resume_through_spilled_checkpoint(ray_session, tmp_path):
    """Full engine: run with spilling + periodic checkpoints, hard-stop,
    resume from the spilled (spill_v1, run-file-copied) checkpoint, and
    finish — the complete log must equal the simulator's uninterrupted
    run (resume ≡ uninterrupted, SURVEY §7.4.6, now through the
    spill-aware checkpoint path)."""
    import pandas as pd

    from crusty_ray.datagen.webgraph import WebConfig
    from crusty_ray.pipelines.crawl import CrawlEngine
    from crusty_ray.sim.simulator import CrawlSimulator

    cfg = test_config()
    cfg.engine.pending_spill_threshold = 3
    cfg.engine.pending_spill_max_runs = 2
    cfg.engine.checkpoint_every_epochs = 4
    web = WebConfig(n_domains=60, max_pages_per_domain=10)
    out = str(tmp_path / "out")

    CrawlEngine(cfg, web, out).run(8)          # interrupted at epoch 8
    CrawlEngine.resume(cfg, web, out).run(24)  # finish from the checkpoint
    sim = CrawlSimulator(cfg, web).run(24)

    eng = CrawlEngine.resume(cfg, web, out)    # reader handle
    edf = pd.DataFrame(eng.read_crawl_log().to_pylist())
    sdf = pd.DataFrame(sim.crawl_log)
    cols = ["epoch", "domain", "url"]
    pd.testing.assert_frame_equal(
        edf[cols].sort_values(cols).reset_index(drop=True).astype(
            {"epoch": "int64"}),
        sdf[cols].sort_values(cols).reset_index(drop=True).astype(
            {"epoch": "int64"}),
        check_dtype=False)
