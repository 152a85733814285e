"""Streaming (non-BSP) mode e2e: set-equality with BSP mode.

With non-binding budgets both modes must fetch the identical URL set, finish
the identical domain set, and agree on totals — the streaming-mode
correctness contract (see pipelines/streaming.py docstring). Epoch/seq/depth
assignments may legitimately differ (free-running absorb order).
"""

import os

import pandas as pd

from crusty_ray.config import test_config as _tc
from crusty_ray.datagen.webgraph import WebConfig

WEB_CFG = WebConfig(n_domains=50, max_pages_per_domain=12)


def _cfg(mode: str):
    cfg = _tc()
    # budgets must NOT bind for cross-mode set-equality (module docstring)
    cfg.rules.total_link_budget = 1000
    cfg.rules.links_per_task_budget = 100
    cfg.rules.max_level = 12
    # the permit horizon must ALSO be non-binding: streaming mode lags the
    # frontier by its in-flight window (a permit dequeued before barrier N
    # cannot see N's discoveries), so full coverage takes more permits than
    # BSP epochs — measured 68 permits vs 40 epochs on this web. Both modes
    # stop early at idle, so a high ceiling costs nothing.
    cfg.engine.max_epochs = 200
    cfg.engine.mode = mode
    return cfg


def test_streaming_matches_bsp_sets(ray_session, tmp_path):
    from crusty_ray.pipelines.streaming import make_engine

    bsp = make_engine(_cfg("bsp"), WEB_CFG, str(tmp_path / "bsp")).run()
    stream = make_engine(_cfg("streaming"), WEB_CFG,
                         str(tmp_path / "stream")).run()
    assert type(stream).__name__ == "CrawlEngine"

    blog = bsp.read_crawl_log().to_pandas()
    slog = stream.read_crawl_log().to_pandas()
    # each (domain, url) fetched at most once — URL dedup is per-JOB
    # (reference F1 semantics), so the same bare-host URL may legitimately
    # be fetched by both the www.X and X jobs in EITHER mode
    assert not slog.duplicated(["domain", "url"]).any()
    # identical (domain, url) multiset — stronger than URL-set equality
    assert (sorted(zip(slog["domain"], slog["url"]))
            == sorted(zip(blog["domain"], blog["url"])))
    # identical finished-domain set and totals
    assert sorted(stream.finished_domains) == sorted(bsp.finished_domains)
    assert (sum(m["pages_fetched"] for m in stream.job_metrics)
            == sum(m["pages_fetched"] for m in bsp.job_metrics))
    # per-domain page sets identical too (stronger than global set equality)
    b_by = blog.groupby("domain")["url"].apply(set)
    s_by = slog.groupby("domain")["url"].apply(set)
    pd.testing.assert_series_equal(b_by, s_by, check_names=False)
    # semantically-equal seen sets: every finished domain is in some shard's
    # cuckoo filter in both modes
    import ray as _ray  # noqa: F401
    for eng in (bsp, stream):
        from crusty_ray.state.cuckoo import CuckooFilter
        filters = [CuckooFilter.from_bytes(b) for b in eng.seen_filter_bytes()]
        for d in eng.finished_domains:
            assert any(d in f for f in filters)


def test_streaming_with_delay_settles(ray_session, tmp_path):
    """delay_epochs>1 parks every domain on some permits → the settle
    branch (zero tasks, empty window, non-idle shards) must keep the clock
    advancing and the crawl completing with BSP-equal sets."""
    from crusty_ray.pipelines.streaming import make_engine

    def delayed(mode):
        cfg = _cfg(mode)
        cfg.crawl.delay_epochs = 2
        cfg.engine.max_epochs = 120
        return cfg

    bsp = make_engine(delayed("bsp"), WEB_CFG, str(tmp_path / "b")).run()
    stream = make_engine(delayed("streaming"), WEB_CFG,
                         str(tmp_path / "s")).run()
    blog = bsp.read_crawl_log().to_pandas()
    slog = stream.read_crawl_log().to_pandas()
    assert (sorted(zip(slog["domain"], slog["url"]))
            == sorted(zip(blog["domain"], blog["url"])))
    assert sorted(stream.finished_domains) == sorted(bsp.finished_domains)


def test_streaming_drain_and_resume(ray_session, tmp_path):
    """request_stop mid-stream: drain the window, checkpoint at the quiesce
    point, and a resumed run completes with the same final sets as BSP."""
    import threading
    from crusty_ray.pipelines.crawl import CrawlEngine
    from crusty_ray.pipelines.streaming import make_engine

    bsp = make_engine(_cfg("bsp"), WEB_CFG, str(tmp_path / "bspref")).run()

    cfg = _cfg("streaming")
    eng = make_engine(cfg, WEB_CFG, str(tmp_path / "sd"))
    threading.Timer(0.4, eng.request_stop).start()
    eng.run()
    assert eng.epochs_run < bsp.epochs_run or eng._stop_requested

    rec = CrawlEngine.resume(cfg, WEB_CFG, str(tmp_path / "sd")).run()
    rlog = rec.read_crawl_log().to_pandas()
    blog = bsp.read_crawl_log().to_pandas()
    assert not rlog.duplicated(["domain", "url"]).any()
    assert (sorted(zip(rlog["domain"], rlog["url"]))
            == sorted(zip(blog["domain"], blog["url"])))
    assert sorted(rec.finished_domains) == sorted(bsp.finished_domains)


def test_streaming_overlaps_permits(ray_session, tmp_path):
    """The window must actually overlap: with streaming_window=1 the loop
    degrades to sequential; with the default it must still terminate and
    produce a complete crawl (sanity against deadlock)."""
    from crusty_ray.pipelines.streaming import make_engine

    cfg = _cfg("streaming")
    cfg.engine.streaming_window = 2
    eng = make_engine(cfg, WEB_CFG, str(tmp_path / "s2")).run()
    assert eng.epochs_run > 2
    log = eng.read_crawl_log().to_pandas()
    assert len(log) > 100
    assert not log.duplicated(["domain", "url"]).any()
    # every permit here is under one task block, so it is one bundle: one
    # stage task, one crawl-log file
    from crusty_ray.pipelines.crawl import task_block_rows
    assert max(n for _p, n, _s in eng.permit_latencies) <= task_block_rows(cfg)
    carrying = sorted(p for p, _n, _s in eng.permit_latencies)
    log_root = tmp_path / "s2" / "crawl_log"
    files = {int(d.name.split("=")[1]): os.listdir(d)
             for d in log_root.iterdir() if d.name.startswith("epoch=")}
    assert sorted(files) == carrying
    assert all(len(f) == 1 for f in files.values())


def test_streaming_survives_concurrent_path_resolution_import(ray_session,
                                                             tmp_path,
                                                             monkeypatch):
    """Ray Data's path resolution retries a lazy ``fsspec`` HTTP import on
    every call and catches only ``ModuleNotFoundError``; without aiohttp,
    concurrent callers racing on it see a plain ``ImportError``.
    The patch makes any caller that overlaps another fail that way, so a
    crawl whose permits resolve sink paths through Ray Data aborts, while
    one that never calls it completes with BSP's URL set."""
    import threading
    import time

    from ray.data.datasource import path_util
    from crusty_ray.pipelines.streaming import make_engine

    bsp = make_engine(_cfg("bsp"), WEB_CFG, str(tmp_path / "bspref")).run()

    orig = path_util._is_http_filesystem
    lock = threading.Lock()
    inside = {"n": 0}

    def racy(fs):
        with lock:
            inside["n"] += 1
            loser = inside["n"] > 1
        try:
            time.sleep(0.2)
            if loser:
                raise ImportError("cannot import name 'HTTPFileSystem' from "
                                  "partially initialized module")
            return orig(fs)
        finally:
            with lock:
                inside["n"] -= 1

    monkeypatch.setattr(path_util, "_is_http_filesystem", racy)
    cfg = _cfg("streaming")
    cfg.engine.streaming_window = 3
    eng = make_engine(cfg, WEB_CFG, str(tmp_path / "race")).run()
    slog = eng.read_crawl_log().to_pandas()
    blog = bsp.read_crawl_log().to_pandas()
    assert (sorted(zip(slog["domain"], slog["url"]))
            == sorted(zip(blog["domain"], blog["url"])))


def test_streaming_writer_failure_transient_replayed(ray_session, tmp_path,
                                                     monkeypatch):
    """r4 VERDICT wrong #1: a permit's stage failure must NOT be swallowed.
    Transient case: the driver-side wait fails once after the permit's
    tasks wrote their files; the one idempotent replay succeeds and the
    final crawl is bit-identical to BSP — zero silently-missing log rows."""
    from crusty_ray.pipelines.crawl import CrawlEngine
    from crusty_ray.pipelines.streaming import make_engine

    bsp = make_engine(_cfg("bsp"), WEB_CFG, str(tmp_path / "bspref")).run()

    cfg = _cfg("streaming")
    orig = CrawlEngine._await_stage
    state = {"failed": 0}

    def flaky(self, entry):
        orig(self, entry)
        if entry["n_tasks"] and state["failed"] < 1:
            state["failed"] += 1
            raise OSError("injected transient sink failure")

    monkeypatch.setattr(CrawlEngine, "_await_stage", flaky)
    eng = make_engine(cfg, WEB_CFG, str(tmp_path / "flaky")).run()
    assert state["failed"] == 1  # the injection actually fired

    slog = eng.read_crawl_log().to_pandas()
    blog = bsp.read_crawl_log().to_pandas()
    assert not slog.duplicated(["domain", "url"]).any()  # replay didn't dupe
    assert (sorted(zip(slog["domain"], slog["url"]))
            == sorted(zip(blog["domain"], blog["url"])))
    assert sorted(eng.finished_domains) == sorted(bsp.finished_domains)


def test_streaming_writer_failure_persistent_aborts(ray_session, tmp_path,
                                                    monkeypatch):
    """Persistent sink failure: initial attempt and the replay both fail →
    the run must abort LOUDLY at the permit barrier (never apply the permit
    as if its rows were written)."""
    import pytest
    from crusty_ray.pipelines.crawl import CrawlEngine
    from crusty_ray.pipelines.streaming import make_engine

    cfg = _cfg("streaming")
    calls = {"n": 0}

    def broken(self, entry):
        calls["n"] += 1
        raise OSError("injected persistent sink failure")

    monkeypatch.setattr(CrawlEngine, "_await_stage", broken)
    eng = make_engine(cfg, WEB_CFG, str(tmp_path / "broken"))
    with pytest.raises(RuntimeError, match="replay also failed"):
        eng.run()
    assert calls["n"] == 2  # the injection fired on the attempt and replay


def _bundle_task(body):
    """A stand-in for ``crawl._run_bundle`` whose worker-side body is
    ``body(epoch, run)``, ``run()`` being the real stage call; defined
    locally, so it ships by value."""
    import ray
    from crusty_ray.pipelines.crawl import task_table

    @ray.remote
    def run_bundle(stage, epoch, *args):
        return body(epoch, lambda: stage(task_table(args[3:]), epoch,
                                         *args[:3]))
    return run_bundle


def test_streaming_worker_task_failure_replayed(ray_session, tmp_path,
                                                monkeypatch):
    """A stage task raises inside its Ray worker once, after writing its
    files: the permit is replayed and the crawl equals BSP's (domain, url)
    set with no duplicated rows."""
    from crusty_ray.pipelines import crawl
    from crusty_ray.pipelines.streaming import make_engine

    bsp = make_engine(_cfg("bsp"), WEB_CFG, str(tmp_path / "bspref")).run()

    flag = str(tmp_path / "failed-once")

    def fail_once_after_writing(epoch, run):
        out = run()
        if epoch == 2:
            try:  # exactly one task, across worker processes, fails
                os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return out
            raise OSError("injected worker-task failure")
        return out

    monkeypatch.setattr(crawl, "_run_bundle",
                        _bundle_task(fail_once_after_writing))
    cfg = _cfg("streaming")
    eng = make_engine(cfg, WEB_CFG, str(tmp_path / "wk")).run()
    assert os.path.exists(flag)  # the injection actually fired

    slog = eng.read_crawl_log().to_pandas()
    blog = bsp.read_crawl_log().to_pandas()
    assert not slog.duplicated(["domain", "url"]).any()
    assert (sorted(zip(slog["domain"], slog["url"]))
            == sorted(zip(blog["domain"], blog["url"])))
    assert sorted(eng.finished_domains) == sorted(bsp.finished_domains)


def test_streaming_abort_leaves_no_task_writing(ray_session, tmp_path,
                                                monkeypatch):
    """Permit 2's stage fails persistently while later permits' slow tasks
    are in flight: by the time run() raises, every started task has
    finished, and no file under the output or scratch dirs changes
    afterwards (a resume() could otherwise race late writes)."""
    import time

    import pytest
    from crusty_ray.pipelines import crawl
    from crusty_ray.pipelines.streaming import make_engine

    marks = tmp_path / "marks"
    marks.mkdir()
    marks = str(marks)

    def fail_or_slow(epoch, run):
        import tempfile
        if epoch == 2:
            raise OSError("injected persistent worker-task failure")
        tempfile.mkstemp(prefix=f"start-{epoch}-", dir=marks)
        if epoch > 2:
            time.sleep(1.0)
        out = run()
        tempfile.mkstemp(prefix=f"end-{epoch}-", dir=marks)
        return out

    monkeypatch.setattr(crawl, "_run_bundle", _bundle_task(fail_or_slow))
    cfg = _cfg("streaming")
    cfg.engine.streaming_window = 3
    out = tmp_path / "abort"
    eng = make_engine(cfg, WEB_CFG, str(out))
    with pytest.raises(RuntimeError, match="replay also failed"):
        eng.run()

    def files():
        return {(p, st.st_size, st.st_mtime_ns)
                for root in {str(out), eng.scratch}
                for d, _, names in os.walk(root) for n in names
                for p in [os.path.join(d, n)] for st in [os.stat(p)]}

    names = os.listdir(marks)
    started = [n for n in names if n.startswith("start-")]
    # later permits' tasks were in flight when permit 2 failed ...
    assert any(int(n.split("-")[1]) > 2 for n in started)
    # ... and all of them had finished when run() raised
    assert len(started) == sum(1 for n in names if n.startswith("end-"))
    before = files()
    time.sleep(1.5)
    assert files() == before


def test_streaming_periodic_checkpoint_hard_crash(ray_session, tmp_path):
    """streaming_checkpoint_every_permits > 0: a hard mid-run crash (no
    drain, no final checkpoint — the engine dies between periodic
    checkpoints) must leave a resumable state; the resumed crawl's final
    sets equal BSP's."""
    from crusty_ray.pipelines.crawl import CrawlEngine
    from crusty_ray.pipelines.streaming import make_engine

    bsp = make_engine(_cfg("bsp"), WEB_CFG, str(tmp_path / "bspref")).run()

    cfg = _cfg("streaming")
    cfg.engine.streaming_checkpoint_every_permits = 4

    class Boom(RuntimeError):
        pass

    eng = make_engine(cfg, WEB_CFG, str(tmp_path / "hc"))
    orig = eng._launch
    calls = {"n": 0}

    def crashing_launch(*a, **kw):
        calls["n"] += 1
        if calls["n"] > 6:  # past the first periodic checkpoint (permit 3)
            raise Boom()    # driver dies: no drain, no final checkpoint
        return orig(*a, **kw)

    eng._launch = crashing_launch
    try:
        eng.run()
    except Boom:
        pass
    assert calls["n"] > 6  # the crash actually fired mid-run

    # the periodic checkpoint (permit 3) is the latest durable state
    with open(tmp_path / "hc" / "checkpoints" / "LATEST") as f:
        assert f.read().strip() == "epoch_000003"

    rec = CrawlEngine.resume(cfg, WEB_CFG, str(tmp_path / "hc")).run()
    rlog = rec.read_crawl_log().to_pandas()
    blog = bsp.read_crawl_log().to_pandas()
    assert not rlog.duplicated(["domain", "url"]).any()
    assert (sorted(zip(rlog["domain"], rlog["url"]))
            == sorted(zip(blog["domain"], blog["url"])))
    assert sorted(rec.finished_domains) == sorted(bsp.finished_domains)


class _CountedHandle:
    """An actor handle that records each remote call as (method, args)."""

    def __init__(self, handle, calls: list):
        self._handle, self._calls = handle, calls

    def __getattr__(self, name):
        import types
        method = getattr(self._handle, name)

        def remote(*args):
            self._calls.append((name, args))
            return method.remote(*args)
        return types.SimpleNamespace(remote=remote)


def test_full_window_permit_dequeued_in_deliver(ray_session, tmp_path):
    """A permit that waits for a window slot is dequeued inside the deliver
    round of the completion that frees the slot: the driver sends it no
    separate take_ready_refs round, and every task-carrying permit is
    dequeued exactly one way."""
    from crusty_ray.pipelines.streaming import make_engine

    cfg = _cfg("streaming")
    cfg.engine.streaming_window = 3
    eng = make_engine(cfg, WEB_CFG, str(tmp_path / "cnt"))
    calls: list = []
    eng.actors = [_CountedHandle(a, calls) for a in eng.actors]
    eng.run()

    rounds = {args[0] for name, args in calls if name == "take_ready_refs"}
    ahead = {args[2] for name, args in calls
             if name == "deliver" and args[2] is not None}
    carrying = {p for p, _n, _s in eng.permit_latencies}
    assert ahead and not ahead & rounds
    assert carrying <= rounds | ahead
    assert len(ahead) > len(carrying) // 2
