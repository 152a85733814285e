"""The crawl engine — Ray composition of the crawl semantics.

Replaces the reference's dataflow graph of ~20 tokio tasks + redis + ClickHouse
(``workspace/main/src/crusty.rs:514-592``) with one loop of **permits** (the
reference's 1 s dequeue permits, ``crusty.rs:216-230``), each of which is:

1. **take_ready_refs** on every scoped frontier shard actor → the permit's
   fetch tasks as actor-local blocks of plain Python columns (politeness +
   priority + budgets enforced inside the shard, SURVEY §3.4); the stage
   builds its Arrow task table from them (``task_table``);
2. the crawl's one fused ``EpochStage`` (fetch → discover → route → log
   projection) over those blocks, as one plain Ray task per bundle of
   consecutive blocks (``flatten_shard_refs``), the blocks passed as ref
   arguments. The engine builds the stage and puts it in the object store
   once per crawl; each task gets the permit's epoch, seq offsets and
   directories as arguments. It writes its absorb rows shard-grouped to
   scratch storage and its crawl-log part to ``crawl_log/epoch=N``, both
   under retry-deterministic names;
3. the barrier (``_barrier``): every shard reads its absorb partition
   (Arrow IPC, ``write_groups``/``read_group``) and runs ``end_epoch``
   (deterministic expansion + finishes), writing its cross-shard enqueue
   messages and top-k counts to the storage exchange as plain Python values
   (``write_parts``/``read_parts``); then every shard reads its exchange
   partition, updates the top-k buckets it owns and applies its enqueues —
   fused with the next permit's dequeue when that permit waits for this
   completion's window slot. Shards meet only at storage (reference:
   crusty.rs:550-560);
4. top-k snapshot, queue gauges, and a full checkpoint every
   ``checkpoint_every_epochs`` (frontier + seen segments + top-k + lineage →
   exact resume, SURVEY §7.4.6).

Up to a window of permits is in flight (the reference's bounded channels,
``crusty.rs:109-127``), and permits complete — wait for the stage, replay it
once on failure, run the barrier — strictly in permit order. ``mode: bsp``
is a window of one: each permit is a deterministic epoch whose dequeue
follows the previous barrier, bit-identical to the simulator. ``mode:
streaming`` widens it to ``engine.streaming_window`` (see
``pipelines/streaming.py``). A permit of any size runs its stage the same
way, as the reference sends every job through the same channels. Every
permit and barrier is conformance-tested against the simulator oracle.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import time
from collections import deque
from typing import Optional

import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..config import Config
from ..datagen.webgraph import SyntheticWeb, WebConfig
from ..sim.simulator import seed_messages
from ..stages.discover import DiscoverStage
from ..stages.fetch import FetchStage
from ..state.frontier import DomainMsg, ShardState
from .spool import MetricsSpool

LOG_COLUMNS = [
    "epoch", "seq", "url", "domain", "depth", "shard", "status_code",
    "content_type", "read_size_b", "fetch_ms", "redirects", "term_by",
    "n_links", "image_ids",
]


def task_block_rows(cfg: Config) -> int:
    """Rows per task block (``take_ready_refs``), which also caps the rows
    of one Ray task's bundle (``flatten_shard_refs``): one EpochStage call
    per bundle writes one crawl-log part per bundle, so smaller blocks mean
    more, smaller log and absorb files (half-size blocks doubled
    links_deep's log files, 42 vs 21) and more stage tasks per epoch."""
    return max(256, cfg.engine.fetch_batch_size * 2)


# the stage's task table; a task block carries these columns as plain lists
TASK_SCHEMA = pa.schema([("url", pa.string()), ("domain", pa.string()),
                         ("depth", pa.int32()), ("shard", pa.int32()),
                         ("local_seq", pa.int64())])


def task_blocks(tasks: list[dict], cfg: Config) -> list[dict]:
    """A shard's take-ready list as task blocks of at most
    ``task_block_rows`` tasks, each a dict of plain lists keyed by
    ``TASK_SCHEMA``'s names; ``local_seq`` numbers the list.

    Plain lists, never Arrow tables: Ray's reducer for a ``pa.Table``
    imports ``ray.air`` (and with it ``ray.data`` and pandas), ~0.5 s and
    ~50 MB in every fresh process that first puts or gets one, which every
    shard actor paid on its first dequeue."""
    step = task_block_rows(cfg)
    blocks = []
    for i in range(0, len(tasks), step):
        part = tasks[i:i + step]
        block = {k: [x[k] for x in part]
                 for k in ("url", "domain", "depth", "shard")}
        block["local_seq"] = list(range(i, i + len(part)))
        blocks.append(block)
    return blocks


def task_table(blocks) -> pa.Table:
    """One bundle's task blocks, in order, as the stage's task table."""
    return pa.table({name: [v for b in blocks for v in b[name]]
                     for name in TASK_SCHEMA.names}, schema=TASK_SCHEMA)


SHARDS_PER_GROUP = 8  # exchange-file granularity: fewer files per writer;
                      # readers take their own shard's part


def write_groups(t: pa.Table, root: str, name: str) -> None:
    """The absorb exchange's writer (stage → shards): ``t``'s rows grouped
    by the shard group of their ``shard`` column, one ``root/group=G/name``
    file per group, rows in ``t``'s order. Transient exchange files are
    Arrow IPC + lz4, not parquet: written once, read once at the barrier,
    deleted — IPC writes 3× faster and reads ~2× faster than parquet for
    these string/list-heavy rows (measured; barrier time is
    parallelism-independent, so it gates scaling efficiency)."""
    import pyarrow.compute as pc
    import pyarrow.feather as pf
    groups = pc.divide(t["shard"], SHARDS_PER_GROUP)
    for g in pc.unique(groups).to_pylist():
        d = f"{root}/group={g}"
        os.makedirs(d, exist_ok=True)
        pf.write_feather(t.filter(pc.equal(groups, g)), f"{d}/{name}",
                         compression="lz4")


def _group_files(root: str, shard: int) -> list[str]:
    """The files of ``shard``'s group dir in sorted-name order (engine ≡
    simulator relies on it); none if the dir does not exist."""
    d = f"{root}/group={shard // SHARDS_PER_GROUP}"
    if not os.path.isdir(d):
        return []
    return [f"{d}/{n}" for n in sorted(os.listdir(d))]


def read_group(root: str, shard: int) -> pa.Table | None:
    """``shard``'s rows of its group's absorb files, or None.

    Runs in the shard actors, which convert no Python value to Arrow: any
    such conversion (``pa.array``, ``pa.scalar``, a Python int given to a
    compute function) makes pyarrow import pandas, ~0.2 s in a fresh
    process. So the int32 key is built from its bytes."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.feather as pf
    key = pa.Array.from_buffers(
        pa.int32(), 1, [None, pa.py_buffer(np.int32(shard).tobytes())])[0]
    parts = []
    for path in _group_files(root, shard):
        t = pf.read_table(path, memory_map=True)
        sel = t.filter(pc.equal(t["shard"], key))
        if sel.num_rows:
            parts.append(sel)
    return pa.concat_tables(parts) if parts else None


def write_parts(parts: dict[int, object], root: str, name: str) -> None:
    """The shard-to-shard exchange's writer: ``parts`` maps an owner shard
    to its payload of plain Python values; one pickled ``root/group=G/name``
    file per shard group holds that group's payloads. Not Arrow: both ends
    hold Python lists, and the shard actors convert nothing to Arrow (see
    ``read_group``)."""
    by_group: dict[int, dict] = {}
    for shard, payload in parts.items():
        by_group.setdefault(shard // SHARDS_PER_GROUP, {})[shard] = payload
    for g, payloads in by_group.items():
        d = f"{root}/group={g}"
        os.makedirs(d, exist_ok=True)
        with open(f"{d}/{name}", "wb") as f:
            pickle.dump(payloads, f, protocol=5)


def read_parts(root: str, shard: int) -> list:
    """``shard``'s payloads from its group's exchange files, in file
    order."""
    out = []
    for path in _group_files(root, shard):
        with open(path, "rb") as f:
            payload = pickle.load(f).get(shard)
        if payload is not None:
            out.append(payload)
    return out


@ray.remote
def _resolve_seed_chunk(seeds: list[str], cfg: Config,
                        web_cfg: WebConfig) -> list[DomainMsg]:
    from ..datagen.webgraph import SyntheticWeb
    return seed_messages(seeds, cfg, SyntheticWeb(web_cfg))


@ray.remote
class FrontierShardActor:
    """Thin Ray wrapper around ShardState — one actor per shard (§7.2)."""

    def __init__(self, shard: int, cfg: Config, web_cfg: WebConfig):
        self.state = ShardState(shard, cfg, web_cfg)

    def enqueue(self, msgs: list[DomainMsg]) -> None:
        self.state.enqueue(msgs)

    def apply_enqueues(self, epoch: int) -> None:
        self.state.apply_enqueues(epoch)

    def take_ready_refs(self, epoch: int) -> list[tuple]:
        """Epoch task blocks as actor-LOCAL ObjectRefs + row counts.

        The blocks are put here, in parallel across the actors, not
        serially on the driver. They are born in this shard's node's object
        store, so on a multi-node cluster the stage tasks that take them as
        ref arguments schedule next to their input instead of pulling every
        block from the head node — and the driver never materializes the
        O(epoch-tasks) table. Blocks
        are plain Python columns (``task_blocks`` says why not Arrow). Rows
        carry ``local_seq``; the fused stage turns that into the global
        (epoch, seq) ordering via the per-shard offsets the driver computes
        from the counts."""
        return [(ray.put(b), len(b["url"]))
                for b in task_blocks(self.state.take_ready(epoch),
                                     self.state.cfg)]

    def finish_epoch(self, epoch: int, absorb_dir: str,
                     exchange_dir: str) -> dict:
        """Read this shard's routed rows from storage, then end_epoch +
        gauges in one round trip (barrier-cost discipline).

        Outgoing cross-shard discovery messages and top-k counts are written
        shard-grouped to the storage exchange, never returned — the
        receiving actors read their own partition at delivery (reference
        semantics: nodes only meet at the shard store, crusty.rs:550-560).
        The driver never touches the O(discovered-domains) message volume;
        it gets job metrics, gauges and the outgoing message count."""
        t = read_group(absorb_dir, self.state.shard)
        if t is not None:
            self.state.absorb_table(t)
        out = self.state.end_epoch(epoch)
        out["gauges"] = self.state.gauges(epoch)
        # A1 pre-agg (redis_operators.rs:93-100): count this shard's
        # domain_links HERE and ship the counts shard-to-owner through the
        # exchange (integer merging at the owner is associative, so
        # per-shard partials are exactly the centrally-merged totals)
        from collections import Counter
        counts: Counter[str] = Counter()
        for name, linked in out.pop("domain_links"):
            counts[name] += 1
            for d in linked:
                counts[d] += 1
        # one file per (group, source shard): a replay overwrites its own
        name = f"from-{self.state.shard:05d}.pkl"
        self._write_topk_exchange(counts, exchange_dir, name)
        # outgoing discovery messages: target shard → columnar messages
        outgoing = out.pop("outgoing")
        out["n_outgoing"] = sum(len(m["domain"]) for m in outgoing.values())
        write_parts(outgoing, exchange_dir, name)
        return out

    def _write_topk_exchange(self, counts, exchange_dir: str,
                             name: str) -> None:
        """(bucket, domain, cnt) rows by the bucket's owner shard."""
        from .topk import bucket_owner
        n_shards = self.state.cfg.jobs.shard_total
        rows: dict[int, list] = {}
        for dom, n in counts.items():
            for b in (dom.rpartition(".")[2], ""):
                rows.setdefault(bucket_owner(b, n_shards), []).append(
                    (b, dom, n))
        write_parts(rows, f"{exchange_dir}/topk", name)

    def _read_topk_exchange(self, exchange_dir: str) -> dict:
        """This shard's owned-bucket counts, int-merged across source
        shards (exactly the central merge — integer addition commutes)."""
        merged: dict[str, dict[str, int]] = {}
        for rows in read_parts(f"{exchange_dir}/topk", self.state.shard):
            for bucket, dom, cnt in rows:
                b = merged.setdefault(bucket, {})
                b[dom] = b.get(dom, 0) + cnt
        return merged

    def _read_exchange(self, exchange_dir: str) -> None:
        """Enqueue this shard's incoming messages from the exchange files."""
        parts = read_parts(exchange_dir, self.state.shard)
        if parts:
            self.state.enqueue({k: [v for p in parts for v in p[k]]
                                for k in parts[0]})

    def deliver(self, epoch: int, exchange_dir: str,
                next_epoch: int | None = None) -> tuple | None:
        """Enqueue from the storage exchange + top-k owner update + apply,
        in one round trip. With ``next_epoch``, also dequeue that epoch's
        tasks and report idleness — one actor RPC instead of two/three (the
        take_ready and idle-poll rounds were a measured part of the
        parallelism-independent per-epoch cost, BASELINE.md)."""
        self._read_exchange(exchange_dir)
        self.state.topk_store.advance_and_add(
            epoch, self._read_topk_exchange(exchange_dir))
        self.state.apply_enqueues(epoch)
        if next_epoch is None:
            return None
        return self.take_ready_refs(next_epoch), self.state.idle()

    def topk_snapshot(self, epoch: int) -> dict:
        """Ranked rows for the top-k buckets this shard owns."""
        return self.state.topk_store.snapshot(epoch)

    def idle(self) -> bool:
        return self.state.idle()

    def checkpoint_to(self, path: str) -> None:
        """Write this shard's snapshot to its own file (atomic) — per-shard
        checkpointing keeps the driver O(1) as shard_total grows (the r1
        monolithic driver-gathered pickle was a scale funnel). Spilled
        pending runs are OS-copied beside it (``<path>.runs/``), keeping
        checkpoint RAM O(heads + tails), never O(pending)."""
        blob = pickle.dumps(self.state.checkpoint(run_dir=path + ".runs"),
                            protocol=4)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)

    def restore_from(self, path: str) -> None:
        with open(path, "rb") as f:
            self.state.restore(pickle.loads(f.read()),
                               run_dir=path + ".runs")

    def seen_filter_bytes(self) -> bytes:
        return self.state.cuckoo.to_bytes()


class EpochStage:
    """Fused fetch → discover → route → log write in ONE stage — the only
    place a permit's tasks are executed.

    Separate fetch, discover and route steps would each materialize their
    intermediate blocks through the object store; one fused stage does a
    single pass over each task block. The simulator calls the same
    component classes (``FetchStage``, ``DiscoverStage``) directly.

    Routing is **shuffle-via-storage**: each call writes its results
    shard-grouped under ``absorb_dir/group=G/``; the owning actors read
    their partition at the epoch barrier. Direct actor RPCs convoyed every
    task behind 32 single-threaded mailboxes and pushed every sub-table
    through the plasma store (measured 28k → 14k pages/s); files make the
    exchange parallel on both ends and double as epoch lineage. Each call
    also writes its own crawl-log part to ``log_dir``, so every stage task
    having returned IS the delivery barrier. Both file names derive from
    (epoch, min seq): a rerun of the call overwrites its own files.

    The stage holds only what derives from (web config, config, rules), so
    the engine builds and puts one per crawl; the per-permit values (epoch,
    seq offsets, directories) are call arguments."""

    def __init__(self, web_cfg: WebConfig, cfg: Config, rules=None):
        self.fetch = FetchStage(web_cfg, cfg, rules=rules)
        self.discover = DiscoverStage(web_cfg, cfg, self.fetch.robots_rules,
                                      rules=rules)

    # only what the stateful chain needs crosses the shuffle (the raw links /
    # rels stay task-local; pure filters already ran in DiscoverStage);
    # "shard" lets group-file readers prune to their own rows
    ABSORB_COLUMNS = ["url", "domain", "depth", "shard", "sched_links",
                      "cand_domains", "cand_addr_keys", "cand_shards"]

    def __call__(self, batch: pa.Table, epoch: int, seq_offsets,
                 absorb_dir: str, log_dir: str) -> tuple[int, int]:
        """Run one task table (``TASK_SCHEMA``) of permit ``epoch``; its
        global seq is ``seq_offsets[shard] + local_seq``
        (``flatten_shard_refs``). Returns the (rows, bytes) summary.

        One stage task holds one logical CPU: pyarrow's process-wide pools
        (they would silently use every host core, skewing scaling
        measurements and oversubscribing shared nodes) are capped for this
        call only, so later tasks on the same worker keep the default
        pools."""
        import numpy as np
        import pyarrow.compute as pc
        cpu, io = pa.cpu_count(), pa.io_thread_count()
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        try:
            shard_np = batch.column("shard").to_numpy(zero_copy_only=False)
            seq = (seq_offsets[shard_np] + batch.column("local_seq")
                   .to_numpy(zero_copy_only=False))
            batch = batch.drop_columns(["local_seq"])
            batch = batch.append_column(
                "epoch", pa.array(np.full(len(seq), epoch, dtype=np.int32),
                                  pa.int32()))
            batch = batch.append_column("seq", pa.array(seq, pa.int64()))
            out = self.discover(self.fetch(batch))
            summary = (out.num_rows,
                       int(pc.sum(out["read_size_b"]).as_py() or 0))
            if out.num_rows == 0:
                return summary  # nothing fetched → no absorb or log file
            # deterministic per-call name: seq values partition the permit's
            # task table, so (epoch, min seq) uniquely names this call and a
            # Ray task RETRY overwrites its own files instead of duplicating
            # rows (uuid names double-absorbed on retry — exact-resume
            # breaker)
            blob = f"e{epoch}-s{seq.min()}"
            # sorted by shard for reader locality
            write_groups(out.select(self.ABSORB_COLUMNS).sort_by("shard"),
                         absorb_dir, f"part-{blob}.arrow")
            os.makedirs(log_dir, exist_ok=True)
            pq.write_table(log_projection(out),
                           f"{log_dir}/part-{blob}.parquet")
            return summary
        finally:
            pa.set_cpu_count(cpu)
            pa.set_io_thread_count(io)


@ray.remote
def _run_bundle(stage: EpochStage, epoch: int, seq_offsets, absorb_dir: str,
                log_dir: str, *blocks: dict) -> tuple[int, int]:
    """One stage task over one bundle of task blocks (ref arguments, so the
    scheduler places the task near its input)."""
    return stage(task_table(blocks), epoch, seq_offsets, absorb_dir, log_dir)


def flatten_shard_refs(shard_refs: list[list], cfg: Config):
    """(off_arr, bundles): per-shard global-seq offsets of the scoped
    shards' blocks, plus the non-empty block refs in shard-asc order,
    grouped greedily into bundles of consecutive blocks holding at most
    ``task_block_rows`` rows (a block is never split)."""
    import numpy as np
    off_arr = np.zeros(cfg.jobs.shard_total, dtype=np.int64)
    max_rows = task_block_rows(cfg)
    acc = 0
    bundles: list[list] = []
    rows = max_rows  # the first block opens a bundle
    for i, refs in enumerate(shard_refs):
        off_arr[cfg.jobs.shard_min + i] = acc
        for r, n in refs:
            if n > 0:
                if rows + n > max_rows:
                    bundles.append([])
                    rows = 0
                bundles[-1].append(r)
                rows += n
            acc += n
    return off_arr, bundles


def log_projection(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc
    n_links = pc.list_value_length(batch["links"]).cast(pa.int32())
    batch = batch.append_column("n_links", pa.array(n_links.to_pylist(), pa.int32())
                                if n_links.null_count else n_links)
    return batch.select(LOG_COLUMNS)


class CrawlEngine:
    def __init__(self, cfg: Config, web_cfg: WebConfig, out_dir: str,
                 seeds: Optional[list[str]] = None, rules=None):
        self.cfg = cfg
        self.web_cfg = web_cfg
        self.out_dir = out_dir
        self.web = SyntheticWeb(web_cfg)
        self.seeds = seeds if seeds is not None else self.web.seeds()
        os.makedirs(f"{out_dir}/crawl_log", exist_ok=True)
        os.makedirs(f"{out_dir}/checkpoints", exist_ok=True)
        # transient absorb/exchange root: cfg.engine.scratch_dir (e.g.
        # /dev/shm on a single node) or out_dir (multi-node shared storage).
        # Keyed by a hash of out_dir so concurrent engines never collide and
        # resume() can find (and clean) the same scratch deterministically.
        if cfg.engine.scratch_dir:
            import hashlib as _hashlib
            tag = _hashlib.md5(os.path.abspath(out_dir).encode()).hexdigest()[:10]
            self.scratch = f"{cfg.engine.scratch_dir}/crusty-{tag}"
        else:
            self.scratch = out_dir

        # SPREAD the frontier shards across the cluster: on a multi-node
        # deployment each node then hosts ~shard_total/n_nodes shards, so
        # absorb/exchange IO and seen-set memory distribute evenly instead
        # of packing onto the head node (single-node: no-op).
        self.actors = [
            FrontierShardActor.options(
                scheduling_strategy="SPREAD").remote(s, cfg, web_cfg)
            for s in range(cfg.jobs.shard_total)
        ]
        # the crawl's one stage, put once: every stage task gets it by ref
        self._stage = ray.put(EpochStage(web_cfg, cfg, rules=rules))
        # run telemetry streams to per-epoch parquet partitions via bounded
        # buffers (reference: ClickHouse buffered writers,
        # clickhouse_utils.rs:37-121) — the driver holds NO run-length lists
        # (r2 VERDICT #1b). Streams: job metrics, top-k snapshots, queue
        # gauges, sub-epoch stage gauges, DB-op notifications
        # (DBNotificationDBE analog, types.rs:119-128).
        self.spool = MetricsSpool(out_dir, {
            "job_metrics": "metrics_job", "topk_rows": "domain_topk",
            "gauges": "metrics_queue", "stage_gauges": "metrics_stage",
            "db_metrics": "metrics_db"})
        self._pages_fetched_total = 0
        self._jobs_finished_total = 0
        self.epoch_stats: list[dict] = []  # per-permit (tasks, seconds) for steady-state throughput
        # (permit, n_tasks, seconds) from dequeue to results-applied — the
        # latency contract (bench.py reports p50/p95) — and, per
        # task-carrying permit, join_wait (compute overlap), absorb_apply
        # and deliver (barrier work)
        self.permit_latencies: list[tuple[int, int, float]] = []
        self.permit_breakdowns: list[dict] = []
        self._last_complete_ts: float | None = None
        self._window: deque[dict] = deque()  # in-flight permits, oldest first
        self.start_epoch = 0
        self.epochs_run = 0
        self._stop_requested = False

    # Run-telemetry read-back (tests / small-scale summaries; at scale read
    # the parquet partitions directly — each property access re-reads the
    # flushed partitions, O(run)). For totals, use the O(1) counters below.
    @property
    def pages_fetched_total(self) -> int:
        return self._pages_fetched_total

    @property
    def jobs_finished_total(self) -> int:
        return self._jobs_finished_total

    @property
    def job_metrics(self) -> list[dict]:
        return self.spool.read("job_metrics")

    @property
    def finished_domains(self) -> list[str]:
        return [m["domain"] for m in self.spool.read("job_metrics")]

    @property
    def topk_rows(self) -> list[dict]:
        return self.spool.read("topk_rows")

    @property
    def gauges(self) -> list[dict]:
        return self.spool.read("gauges")

    @property
    def stage_gauges(self) -> list[dict]:
        return self.spool.read("stage_gauges")

    @property
    def db_metrics(self) -> list[dict]:
        return self.spool.read("db_metrics")

    # ------------------------------------------------------------- shutdown
    def request_stop(self) -> None:
        """Graceful-drain request (reference crusty.rs:355-403: SIGTERM →
        stop accepting → drain → exit). The engine finishes the permits in
        flight (plus at most one more if the next dequeue was already taken
        inside a deliver round — its take_ready side effects are otherwise
        lost), checkpoints, writes outputs, and returns normally;
        ``resume()`` continues exactly."""
        self._stop_requested = True

    def _install_signal_handlers(self):
        """SIGTERM/SIGINT → request_stop. Returns the previous handlers (or
        None when not on the main thread, where signal.signal raises)."""
        import signal as _signal
        import threading
        if threading.current_thread() is not threading.main_thread():
            return None
        prev = {}
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            prev[sig] = _signal.signal(
                sig, lambda *_a: self.request_stop())
        return prev

    def _reset_outputs(self) -> None:
        """Fresh (non-resume) run over a reused out_dir: drop prior telemetry
        partitions, stale crawl-log epoch dirs (parquet sink filenames are
        unique per run, so leftovers would double-count) AND the previous
        run's checkpoints — a stale LATEST would otherwise let a resume()
        after an early crash silently restore the OLD run's state against
        the NEW run's crawl log."""
        self.spool.reset()
        log_root = f"{self.out_dir}/crawl_log"
        for d in os.listdir(log_root):
            if d.startswith("epoch="):
                shutil.rmtree(f"{log_root}/{d}", ignore_errors=True)
        ckpt_root = f"{self.out_dir}/checkpoints"
        for d in os.listdir(ckpt_root):
            if d == "LATEST":
                os.remove(f"{ckpt_root}/{d}")
            else:
                shutil.rmtree(f"{ckpt_root}/{d}", ignore_errors=True)

    def _resolve_seeds(self) -> list[DomainMsg]:
        """Seed URL → DomainMsg resolution. Serial for small lists; chunked
        Ray tasks for large ones (driver-side resolution of 125k seeds was
        ~20% of the 250k-domain smoke's wall time). seed_messages is a pure
        function, so chunked-in-order results are identical to serial —
        conformance with the simulator is unaffected."""
        if len(self.seeds) <= 20_000:
            return seed_messages(self.seeds, self.cfg, self.web)
        chunks = [self.seeds[i:i + 10_000]
                  for i in range(0, len(self.seeds), 10_000)]
        futs = [_resolve_seed_chunk.remote(c, self.cfg, self.web_cfg)
                for c in chunks]
        out: list[DomainMsg] = []
        for part in ray.get(futs):
            out.extend(part)
        return out

    def _seed(self) -> None:
        """Fresh run (both modes): clear any previous run's partitions on a
        reused out_dir, then enqueue the seeds and apply them as epoch 0."""
        self._reset_outputs()
        by_shard: dict[int, list[DomainMsg]] = {}
        for m in self._resolve_seeds():
            by_shard.setdefault(m.shard, []).append(m)
        ray.get([self.actors[s].enqueue.remote(ms)
                 for s, ms in by_shard.items()])
        ray.get([a.apply_enqueues.remote(0) for a in self.actors])

    # ------------------------------------------------------------------ run
    def run(self, max_epochs: Optional[int] = None) -> "CrawlEngine":
        """Crawl toward the absolute horizon ``max_epochs`` (resume
        continues toward the same horizon the uninterrupted run would have
        had), then write the outputs."""
        max_epochs = max_epochs or self.cfg.engine.max_epochs
        if self.epochs_run > self.start_epoch:
            # a used engine instance can't restart its permit loop against
            # its advanced shard state (re-dequeues, second-generation log
            # files); the supported continuation is resume() from the
            # checkpoint the earlier run() left behind
            raise RuntimeError(
                "engine already ran; use CrawlEngine.resume(out_dir)")
        # handlers first: the seed round below blocks on fresh-actor startup,
        # and a signal landing there must already mean "drain", not "die"
        prev_handlers = self._install_signal_handlers()
        try:
            if self.start_epoch == 0:
                self._seed()  # the guard above rejects re-entry
            self._crawl(max_epochs)
        finally:
            # an exception mid-crawl must not leave stage tasks writing
            # crawl_log/absorb files behind our back (a subsequent resume()
            # would race their late writes); wait them out without applying
            for entry in self._window:
                if entry["refs"]:
                    ray.wait(entry["refs"], num_returns=len(entry["refs"]))
            if prev_handlers is not None:
                import signal as _signal
                for sig, h in prev_handlers.items():
                    _signal.signal(sig, h)
        self._write_outputs()
        return self

    def _crawl(self, max_epochs: int) -> None:
        """The permit loop of both modes. Up to ``window`` permits are in
        flight — one under ``mode: bsp``, so each epoch's dequeue follows
        the previous epoch's barrier — and they complete strictly in permit
        order. A completion that frees the slot the next permit needs also
        dequeues that permit, inside its deliver round."""
        cfg = self.cfg
        bsp = cfg.engine.mode == "bsp"
        size = 1 if bsp else cfg.engine.streaming_window
        every = (cfg.engine.checkpoint_every_epochs if bsp
                 else cfg.engine.streaming_checkpoint_every_permits)
        # scoped shards: this node dequeues only [shard_min, shard_max)
        # but enqueues/routes to ALL shards (conf/default.yaml:35-43
        # semantics; in the Ray re-expression "another node's shards" are
        # simply actors this driver never polls — multi-node placement is
        # the actor pool's job)
        scoped = self.actors[cfg.jobs.shard_min:cfg.jobs.shard_max]
        window = self._window
        taken = None  # (shard_refs, idles, t) of a permit dequeued ahead
        last_ckpt = None
        for permit in range(self.start_epoch, max_epochs):
            ahead = permit + 1 if permit + 1 < max_epochs else None
            # drain: stop once a permit ran and no dequeue is outstanding
            # (its take_ready side effects would otherwise be lost)
            if (self._stop_requested and taken is None
                    and self.epochs_run > self.start_epoch):
                break
            while len(window) >= size:  # backpressure: bounded in-flight
                taken = self._complete(permit)
            if taken is None:
                t_permit = time.time()
                shard_refs = ray.get([a.take_ready_refs.remote(permit)
                                      for a in scoped])
                idles = None
            else:
                (shard_refs, idles, t_permit), taken = taken, None
            n_tasks = sum(n for refs in shard_refs for _, n in refs)
            if not (n_tasks or window):
                if idles is None:
                    idles = ray.get([a.idle.remote() for a in scoped])
                if all(idles):
                    break
            self.epochs_run = permit + 1
            if n_tasks or not window:
                window.append(self._launch(permit, shard_refs, n_tasks,
                                           t_permit))
            if every > 0 and (permit + 1) % every == 0:
                # quiesce: the checkpoint must snapshot pre-dequeue state
                # (or resume would double-dequeue), so no permit is in
                # flight and none is dequeued ahead
                while window:
                    self._complete()
                self._write_checkpoint(permit)
                last_ckpt = permit
            elif not n_tasks:
                # no new work (delay_epochs>1 / timeout jitter can park
                # every domain): land the oldest permit now — with nothing
                # else in flight, this zero-task permit, whose barrier
                # applies the buffered enqueues the next dequeue needs
                taken = self._complete(ahead)
        while window:
            self._complete()
        if (self.epochs_run > self.start_epoch
                and (self._stop_requested or not bsp)
                and last_ckpt != self.epochs_run - 1):
            # a drain, and the end of every streaming run (whose periodic
            # checkpoints are off by default), leave a resumable checkpoint
            self._write_checkpoint(self.epochs_run - 1)

    def _epoch_dirs(self, epoch: int) -> tuple[str, str, str]:
        """(crawl-log, absorb, exchange) directories of one epoch/permit."""
        return (f"{self.out_dir}/crawl_log/epoch={epoch}",
                f"{self.scratch}/absorb/epoch={epoch}",
                f"{self.scratch}/exchange/epoch={epoch}")

    def _clear_epoch(self, epoch: int) -> None:
        """Remove whatever an earlier attempt at this epoch left: a crashed
        run over a reused out_dir, or a failed stage before its replay. A
        shard with no rows this time would not overwrite its stale file,
        and the barrier would ingest phantom rows."""
        for d in self._epoch_dirs(epoch):
            shutil.rmtree(d, ignore_errors=True)

    def _launch(self, permit: int, shard_refs: list[list], n_tasks: int,
                t_permit: float) -> dict:
        """Clear the permit's directories and submit its stage tasks; the
        barrier happens later, in order, in ``_complete``. The entry pins
        the task blocks until completion, so a replay still has them."""
        self._clear_epoch(permit)
        off_arr, bundles = flatten_shard_refs(shard_refs, self.cfg)
        entry = {"permit": permit, "n_tasks": n_tasks, "t_permit": t_permit,
                 "off_arr": off_arr, "bundles": bundles}
        self._start_stage(entry)
        return entry

    def _start_stage(self, entry: dict) -> None:
        """Submit one Ray task (``_run_bundle``) per bundle of the permit's
        task blocks over the crawl's one ``EpochStage``; sets
        ``entry["refs"]`` to their refs, each returning its stage summary.
        The blocks go as ref arguments, so they never pass through the
        driver. A zero-task permit has no bundle, so it runs no stage and
        writes no log partition, as in the simulator."""
        log_dir, absorb_dir, _ = self._epoch_dirs(entry["permit"])
        entry["refs"] = [_run_bundle.remote(self._stage, entry["permit"],
                                            entry["off_arr"], absorb_dir,
                                            log_dir, *b)
                         for b in entry["bundles"]]
        entry["t_submit"] = time.time()

    def _await_stage(self, entry: dict) -> None:
        """Wait until EVERY task of the permit's stage has finished, then
        raise the first failure, so no sibling task still writes files a
        replay clears. Every ``gauge_interval_s`` while its tasks run (A5's
        1 s cadence, crusty.rs:31-54), the summaries of the tasks finished
        so far go to the stage gauges, so the operator is not blind inside
        long stages."""
        refs = entry["refs"]
        if not refs:
            return
        rows = nbytes = 0
        pending = refs
        try:
            while pending:
                ready, pending = ray.wait(
                    pending, num_returns=len(pending),
                    timeout=self.cfg.engine.gauge_interval_s)
                for r, b in ray.get(ready):
                    rows += r
                    nbytes += b
                self.spool.add("stage_gauges", [{
                    "epoch": entry["permit"],
                    "t_s": round(time.time() - entry["t_submit"], 3),
                    "rows": rows, "bytes": nbytes,
                    "batches": len(refs) - len(pending)}])
        finally:
            if pending:  # a task failed: let its siblings finish writing
                ray.wait(pending, num_returns=len(pending))
        self.spool.add("db_metrics", [{
            "epoch": entry["permit"], "op": "pipeline_and_log_write",
            "rows": entry["n_tasks"],
            "ms": round((time.time() - entry["t_submit"]) * 1000, 1)}])

    def _complete(self, ahead: int | None = None) -> tuple | None:
        """Apply the oldest in-flight permit's results and drop it from the
        window — strictly in permit order, so shard state advances
        sequentially even though fetch compute overlapped. ``ahead`` is the
        permit whose window slot this completion frees: unless draining,
        the scoped shards dequeue it inside the deliver round, and its
        (shard_refs, idles, dequeue time) come back. A failed stage is
        cleared and submitted again once, and the wait repeats. The permit
        stays in the window until it is applied, so run()'s finally also
        waits out a replay's tasks."""
        entry = self._window[0]
        permit = entry["permit"]
        t_join0 = time.time()
        try:
            self._await_stage(entry)
        except Exception as first_err:
            # replay once, synchronously: clearing the permit's directories
            # drops the failed attempt's partial files, and the stage's
            # retry-deterministic names make the replay write exactly one
            # attempt's rows (the relabuf analog: a failed batch goes back
            # and is retried, redis_utils.rs:61-116). A second failure
            # aborts BEFORE any shard state for this permit is applied, so
            # crawl-log rows can never go silently missing.
            try:
                self._clear_epoch(permit)
                self._start_stage(entry)
                self._await_stage(entry)
            except Exception as e:
                raise RuntimeError(
                    f"permit {permit}: stage failed and the one idempotent "
                    f"replay also failed (first error: {first_err!r})") from e
        # stage tasks still running when its turn came = genuine compute
        # overlap, NOT serialized barrier work; a replayed permit's whole
        # stage runs inside this wait
        join_wait = time.time() - t_join0
        absorb_apply, deliver, taken = self._barrier(
            permit, entry["n_tasks"], None if self._stop_requested else ahead)
        now = time.time()
        # `seconds`: the wall time this completion adds, from its dequeue or
        # the previous completion, whichever is later — a window of one
        # gives the epoch's dequeue-to-applied time; over a wider window,
        # tasks/seconds summed over permits is steady-state throughput with
        # no overlap double-counted
        since = max(entry["t_permit"], self._last_complete_ts or 0.0)
        self.epoch_stats.append({"epoch": permit, "tasks": entry["n_tasks"],
                                 "seconds": now - since})
        self._last_complete_ts = now
        if entry["n_tasks"]:
            self.permit_latencies.append(
                (permit, entry["n_tasks"], now - entry["t_permit"]))
            self.permit_breakdowns.append(
                {"permit": permit, "join_wait_s": round(join_wait, 3),
                 "absorb_apply_s": round(absorb_apply, 3),
                 "deliver_s": round(deliver, 3)})
        self._window.popleft()
        return None if taken is None else (*taken, now)

    def permit_latency_percentiles(self) -> dict:
        """p50/p95 of permit-to-apply latency (task-carrying permits), plus
        the p50 barrier breakdown: join_wait = the permit's pipeline still
        running when its FIFO turn came (genuine compute overlap — the
        bounded window working as designed), absorb_apply + deliver = the
        serialized per-permit state work. p50 latency ≈ join_wait + those
        two means the wait is overlap, not hidden serialized cost."""
        lats = sorted(s for _p, _n, s in self.permit_latencies)
        if not lats:
            return {"p50_s": None, "p95_s": None, "n_permits": 0}
        pick = lambda q: lats[min(len(lats) - 1, int(q * (len(lats) - 1)))]  # noqa: E731
        out = {"p50_s": round(pick(0.5), 3), "p95_s": round(pick(0.95), 3),
               "n_permits": len(lats)}
        for key in ("join_wait_s", "absorb_apply_s", "deliver_s"):
            vs = sorted(b[key] for b in self.permit_breakdowns)
            out[f"p50_{key}"] = round(
                vs[min(len(vs) - 1, int(0.5 * (len(vs) - 1)))], 3)
        return out

    def _barrier(self, epoch: int, n_tasks: int,
                 next_epoch: int | None = None) -> tuple:
        """The epoch barrier of both modes: finish_epoch on every shard
        (absorb read + end_epoch + exchange write) → spool its job metrics
        and gauges → deliver on every shard (exchange read + top-k owner
        update + apply; scoped shards also dequeue ``next_epoch`` when
        given) → top-k snapshot → scratch cleanup.

        Every stage task has returned before this runs, so every shard's
        absorb partition is complete. Returns (absorb+end_epoch seconds,
        deliver seconds, the prefetched (refs, idles) or None)."""
        cfg = self.cfg
        _, absorb_dir, exchange_dir = self._epoch_dirs(epoch)
        t0 = time.time()
        results = ray.get([a.finish_epoch.remote(epoch, absorb_dir,
                                                 exchange_dir)
                           for a in self.actors])
        shutil.rmtree(absorb_dir, ignore_errors=True)  # consumed; log+checkpoints carry lineage
        absorb_apply = time.time() - t0
        self.spool.add("db_metrics", [{
            "epoch": epoch, "op": "absorb_read_end_epoch", "rows": n_tasks,
            "ms": round(absorb_apply * 1000, 1)}])
        for res in results:  # actor order = shard order (deterministic)
            jm = res["job_metrics"]
            self.spool.add("job_metrics", jm)
            self._pages_fetched_total += sum(m["pages_fetched"] for m in jm)
            self._jobs_finished_total += len(jm)
            self.spool.add("gauges", [res["gauges"]])
        # every shard must apply (even with no messages) so late state
        # settles and every top-k owner takes its decay step
        t1 = time.time()
        scoped = (range(cfg.jobs.shard_min, cfg.jobs.shard_max)
                  if next_epoch is not None else range(0))
        taken = ray.get([a.deliver.remote(epoch, exchange_dir,
                                          next_epoch if s in scoped else None)
                         for s, a in enumerate(self.actors)])
        deliver = time.time() - t1
        self.spool.add("db_metrics", [{
            "epoch": epoch, "op": "enqueue_deliver",
            "rows": sum(res["n_outgoing"] for res in results),
            "ms": round(deliver * 1000, 1)}])
        if (epoch + 1) % cfg.topk.consume_every_epochs == 0:
            self.spool.add("topk_rows", self._collect_topk_snapshot(epoch))
        shutil.rmtree(exchange_dir, ignore_errors=True)  # consumed
        self.spool.maybe_flush(epoch)
        if next_epoch is None:
            return absorb_apply, deliver, None
        taken = [taken[s] for s in scoped]  # scoped order = shard order
        return (absorb_apply, deliver,
                ([t for t, _ in taken], [i for _, i in taken]))

    def _collect_topk_snapshot(self, epoch: int) -> list[dict]:
        """Gather owners' ranked buckets and emit them in the central
        snapshot's sorted-bucket order (bucket ownership is disjoint, so no
        cross-owner merging is needed — bit-identical to the simulator's
        TopKState.snapshot)."""
        parts = ray.get([a.topk_snapshot.remote(epoch) for a in self.actors])
        merged: dict[str, list[dict]] = {}
        for p in parts:
            merged.update(p)
        rows: list[dict] = []
        for bucket in sorted(merged):
            rows.extend(merged[bucket])
        return rows

    # ------------------------------------------------------------- checkpoint
    def _write_checkpoint(self, epoch: int) -> None:
        """One snapshot file PER SHARD, written by the owning actor in
        parallel (driver stays O(1) in shard_total), plus a small driver
        manifest. LATEST flips atomically only after every file is durable —
        a torn checkpoint never becomes visible."""
        t0 = time.time()
        ckpt_dir = f"{self.out_dir}/checkpoints/epoch_{epoch:06d}"
        os.makedirs(ckpt_dir, exist_ok=True)
        ray.get([a.checkpoint_to.remote(f"{ckpt_dir}/shard_{s:05d}.pkl")
                 for s, a in enumerate(self.actors)])
        self.spool.add("db_metrics", [{
            "epoch": epoch, "op": "checkpoint_write", "rows": len(self.actors),
            "ms": round((time.time() - t0) * 1000, 1)}])
        # flush telemetry buffers so the durable partitions agree with this
        # checkpoint (resume drops anything flushed after it); the driver
        # manifest carries only O(1) counters — the top-k state is inside the
        # per-shard files
        self.spool.flush_all(epoch)
        blob = pickle.dumps({
            "epoch": epoch,
            "n_shards": len(self.actors),
            "pages_fetched_total": self._pages_fetched_total,
            "jobs_finished_total": self._jobs_finished_total,
        }, protocol=4)
        tmp = f"{ckpt_dir}/driver.pkl.tmp"
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, f"{ckpt_dir}/driver.pkl")
        with open(f"{self.out_dir}/checkpoints/LATEST.tmp", "w") as f:
            f.write(os.path.basename(ckpt_dir))
        os.replace(f"{self.out_dir}/checkpoints/LATEST.tmp",
                   f"{self.out_dir}/checkpoints/LATEST")

    @classmethod
    def resume(cls, cfg: Config, web_cfg: WebConfig, out_dir: str,
               seeds: Optional[list[str]] = None) -> "CrawlEngine":
        """Exact resume from the latest checkpoint (north_rule requirement)."""
        with open(f"{out_dir}/checkpoints/LATEST") as f:
            name = f.read().strip()
        ckpt_dir = f"{out_dir}/checkpoints/{name}"
        with open(f"{ckpt_dir}/driver.pkl", "rb") as f:
            snap = pickle.loads(f.read())
        # the frontier is hash-partitioned by crc32(addr_key) % shard_total:
        # restoring into a different shard count would silently misroute
        # (or, if smaller, DROP) per-shard state — refuse loudly, and do it
        # BEFORE constructing the engine (no leaked actor pool on refusal)
        n_ckpt = len([f for f in os.listdir(ckpt_dir)
                      if f.startswith("shard_") and f.endswith(".pkl")])
        if n_ckpt != cfg.jobs.shard_total:
            raise ValueError(
                f"resume: checkpoint {name} has {n_ckpt} shards but "
                f"cfg.jobs.shard_total={cfg.jobs.shard_total}; resharding "
                f"a checkpoint is not supported — resume with the "
                f"original shard_total")
        eng = cls(cfg, web_cfg, out_dir, seeds=seeds)
        ray.get([a.restore_from.remote(f"{ckpt_dir}/shard_{s:05d}.pkl")
                 for s, a in enumerate(eng.actors)])
        # top-k state rides in the per-shard files; telemetry partitions
        # flushed after the checkpoint are stale lineage
        eng.spool.drop_after(snap["epoch"])
        eng._pages_fetched_total = snap["pages_fetched_total"]
        eng._jobs_finished_total = snap["jobs_finished_total"]
        eng.start_epoch = snap["epoch"] + 1
        eng.epochs_run = eng.start_epoch  # summary stays correct if no new epochs run
        # drop crawl-log partitions written after the checkpoint (stale lineage)
        for d in os.listdir(f"{out_dir}/crawl_log"):
            if d.startswith("epoch=") and int(d.split("=")[1]) > snap["epoch"]:
                shutil.rmtree(f"{out_dir}/crawl_log/{d}")
        # stale absorb/exchange files from a crashed epoch would double-apply
        # on replay
        shutil.rmtree(f"{eng.scratch}/absorb", ignore_errors=True)
        shutil.rmtree(f"{eng.scratch}/exchange", ignore_errors=True)
        return eng

    # ------------------------------------------------------------- outputs
    def _write_outputs(self) -> None:
        if self.scratch != self.out_dir:
            shutil.rmtree(self.scratch, ignore_errors=True)  # no shm litter
        # telemetry partitions were flushed continuously; drain the tails
        self.spool.flush_all(max(0, self.epochs_run - 1))
        if self.cfg.engine.compact_log_at_end and self.epochs_run:
            # small-file compaction at the drain point (ops/io.py policy):
            # per-epoch/per-block parquet → ~64 MiB files. Written BESIDE
            # the epoch-partitioned log (crawl_log stays the resumable
            # layout; the compact copy is the scan-friendly one).
            from ..ops.io import compact_dataset
            self.compaction_summary = compact_dataset(
                f"{self.out_dir}/crawl_log",
                f"{self.out_dir}/crawl_log_compact")
        with open(f"{self.out_dir}/summary.json", "w") as f:
            json.dump({
                "epochs_run": self.epochs_run,
                "pages_fetched": self._pages_fetched_total,
                "jobs_finished": self._jobs_finished_total,
                "topk_rows": self.spool.rows_total["topk_rows"],
            }, f, indent=2)

    def read_crawl_log(self) -> pa.Table:
        import pyarrow.dataset as pads
        # epoch/seq live in the files themselves; the epoch=N dirs are just
        # the resumable-partition layout, not hive columns
        ds = pads.dataset(f"{self.out_dir}/crawl_log", format="parquet")
        t = ds.to_table()
        idx = pa.compute.sort_indices(
            t, sort_keys=[("epoch", "ascending"), ("seq", "ascending")])
        return t.take(idx)

    def seen_filter_bytes(self) -> list[bytes]:
        return ray.get([a.seen_filter_bytes.remote() for a in self.actors])
