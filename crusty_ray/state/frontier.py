"""Sharded frontier state — queue, politeness, dedup tiers, job lifecycle.

This is the Ray-Data-native replacement for the reference's redis-queue module
(``workspace/redis-queue/src/lib.rs``) plus crusty-core's per-job scheduling
state. One ``ShardState`` owns one shard (``shard = crc32(addr_key) %
shard_total``, ``workspace/main/src/types.rs:51-53``) and holds:

- **pending domains** per addr_key + available-key set (ST4,
  redis-queue/src/lib.rs:21-27), upgraded from the reference's random SPOP to
  the north_rule's deterministic weighted priority (discovery depth, discovery
  epoch, domain name);
- **politeness locks**: at most one in-flight domain per addr_key, TTL'd
  (ST3, redis-queue/src/lib.rs:13-15,133-141);
- **seen set**: bloom pre-filter → cuckoo authoritative (replaces ST1 LRU +
  ST2 redis scaling bloom; enqueue skip-cases mirror
  redis-queue/src/lib.rs:59-95: already-seen / same-domain-in-processing /
  already-pending);
- **ddc**: discovery LRU dedup before cross-shard routing (ST1,
  crusty.rs:58,100,265-270);
- **active jobs**: per-domain URL-seen set, task queue, budgets, linked-domain
  set (crusty-core filter chain as configured in rules.rs:56-77, JobState
  rules.rs:12-47).

The class is *pure Python and deterministic*: the distributed engine wraps it
in a Ray actor; the single-threaded simulator composes the same objects
directly — both produce identical crawl order and seen sets under the epochal
BSP protocol (take_ready → absorb → end_epoch → apply_enqueues).
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

from ..config import Config
from ..core.hashing import hash64
from ..core.urls import transform_domain
from .bloom import ScalingBloom
from .cuckoo import CuckooFilter


@dataclass
class DomainMsg:
    """Wire twin of interop::Domain (interop/src/lib.rs:4-9) + priority fields."""
    domain: str
    addr_key: str
    shard: int
    url: Optional[str] = None       # seeds carry an explicit URL (M9, crusty.rs:306-353)
    disc_depth: int = 0             # depth of the discovering task + 1
    disc_epoch: int = 0

    def priority(self) -> tuple:
        # north_rule weighted priority: shallow first, older discovery first,
        # name as the deterministic tie-break
        return (self.disc_depth, self.disc_epoch, self.domain)


@dataclass
class JobState:
    """Per-domain crawl job (reference JobState rules.rs:12-17 + crusty-core
    task scheduling state)."""
    domain: str
    addr_key: str
    root_url: str
    start_epoch: int
    url_seen: set = field(default_factory=set)       # F1 HashSetDedup
    queue: list = field(default_factory=list)        # sorted [(depth, url)]
    pages_scheduled: int = 0                          # F4 TotalPageBudget counter
    pages_fetched: int = 0
    linked: set = field(default_factory=set)          # rules.rs:36-43
    last_fetch_epoch: int = -(10 ** 9)
    in_flight: int = 0
    term_by: str = ""
    # per-domain deterministic jitters, constant for the job's lifetime —
    # computed once at job creation (take_ready used to re-hash the domain
    # for every active job on every epoch, inside the barrier-critical path)
    hard_jitter: int = 0
    delay_jitter: int = 0


def job_jitters(domain: str, cfg: Config) -> tuple[int, int]:
    """(hard_jitter, delay_jitter) for a domain — a pure function of
    (domain, config), shared by job creation and checkpoint restore so a
    resumed job always carries exactly the jitters creation would assign
    (checkpoints written before these fields existed unpickle with the
    dataclass default 0, which would silently shrink timeouts/delays)."""
    hard = (hash64(domain, seed=13)
            % (cfg.crawl.job_hard_timeout_jitter_epochs + 1)
            if cfg.crawl.job_hard_timeout_jitter_epochs else 0)
    delay = (hash64(domain, seed=11)
             % (cfg.crawl.delay_jitter_epochs + 1)
             if cfg.crawl.delay_jitter_epochs else 0)
    return hard, delay


class ShardState:
    def __init__(self, shard: int, cfg: Config, web_cfg=None, seed: int = 0):
        self.shard = shard
        self.cfg = cfg
        # web_cfg kept for interface stability; the pure task filters (incl.
        # robots, F7) now run in DiscoverStage.sched_filter before routing
        self._web_cfg = web_cfg

        e = cfg.engine
        # pending domains: spillable store (in-RAM head per addr_key, RAM
        # tails bounded by pending_spill_threshold, sorted runs on scratch
        # past it — state/pending.py; r3 VERDICT next-#1)
        from .pending import PendingStore
        self.pending = PendingStore(
            shard, spill_threshold=e.pending_spill_threshold,
            max_runs=e.pending_spill_max_runs, spill_dir=e.scratch_dir)
        self.in_processing: dict[str, tuple[str, int]] = {}  # addr_key -> (domain, deadline)
        self.jobs: dict[str, JobState] = {}

        self.bloom = ScalingBloom(e.seen_bloom_capacity, e.seen_bloom_fpp, seed=seed)
        self.cuckoo = CuckooFilter(e.cuckoo_capacity, seed=seed,
                                   spill_dir=e.scratch_dir,
                                   spill_bytes=e.cuckoo_spill_bytes)
        self.ddc: OrderedDict[str, None] = OrderedDict()

        self._absorbed: list[dict] = []
        self._absorbed_tables: list = []
        self._enqueue_buf: list[DomainMsg] = []
        # dequeue ttl 10m ≈ 600 epochs (conf/default.yaml:83-87) — but the
        # lock must outlive the longest legal job, or a re-discovered domain
        # would pass every enqueue guard and take_ready would overwrite the
        # live JobState (double-crawl + double job_metrics). Shared by the
        # simulator, so the derivation stays sim-exact.
        self.lock_ttl_epochs = max(
            600, cfg.crawl.job_hard_timeout_epochs
            + cfg.crawl.job_hard_timeout_jitter_epochs + 2)

        # this shard's share of the distributed top-k (owner of the buckets
        # bucket_owner() routes here; per-shard sketches in the reference,
        # redis-calc/src/lib.rs:21-31). Fed by the engine at the epoch
        # barrier; the simulator keeps the central TopKState instead.
        from ..pipelines.topk import BucketTopK
        self.topk_store = BucketTopK(cfg.topk)

        # per-epoch outputs, drained by the pipeline
        self.stats = {"enqueued": 0, "skipped_seen": 0, "skipped_pending": 0,
                      "skipped_processing": 0, "ddc_hits": 0, "jobs_finished": 0,
                      "tasks_emitted": 0}

    # ------------------------------------------------------------- seen tiers
    def _mark_seen(self, domain: str) -> None:
        self.bloom.add_batch([domain])
        self.cuckoo.add_batch([domain])

    def _ddc_admit(self, domain: str) -> bool:
        """Node-local discovery LRU (crusty.rs:265-270): False if recently sent."""
        if domain in self.ddc:
            self.ddc.move_to_end(domain)
            self.stats["ddc_hits"] += 1
            return False
        self.ddc[domain] = None
        if len(self.ddc) > self.cfg.discovery.ddc_cap:
            self.ddc.popitem(last=False)
        return True

    # ------------------------------------------------------------- enqueue side
    def enqueue(self, msgs) -> None:
        """Buffer incoming discovered domains (cross-shard messages).

        Accepts a list of DomainMsg or the columnar wire form
        ``{"domain": [...], "addr_key": [...], "disc_depth": [...],
        "disc_epoch": [...]}`` that the storage exchange reads back."""
        if isinstance(msgs, dict):
            it = zip(msgs["domain"], msgs["addr_key"],
                     msgs["disc_depth"], msgs["disc_epoch"])
            self._enqueue_buf.extend(
                DomainMsg(domain=d, addr_key=k, shard=self.shard,
                          disc_depth=dd, disc_epoch=de)
                for d, k, dd, de in it)
        else:
            self._enqueue_buf.extend(msgs)

    def apply_enqueues(self, epoch: int) -> None:
        """Apply buffered enqueues deterministically (sorted), mirroring the
        redis-queue enqueue skip-cases (lib.rs:59-95)."""
        msgs = sorted(self._enqueue_buf, key=lambda m: (m.priority(), m.addr_key))
        self._enqueue_buf = []
        if not msgs:
            return
        # seen tier pre-computed VECTORIZED over the whole batch (bloom on
        # all, cuckoo only on bloom-positives) — exactly order-equivalent
        # to the per-item checks because nothing in this loop mutates the
        # filters (_mark_seen runs only at end_epoch). Per-item bloom
        # probes were ~95% of a large enqueue's wall time.
        import numpy as np

        from ..core.hashing import hash64_batch
        from .pending import _MEMBER_SEED
        domains = [m.domain for m in msgs]
        seen = self.bloom.contains_batch(domains)
        idx = np.nonzero(seen)[0]
        if len(idx):
            seen[idx] = self.cuckoo.contains_batch(
                [domains[i] for i in idx])
        # membership hashes precomputed once for the whole batch (the
        # per-item contains+add path re-hashed every domain 2-3×; hashing
        # was ~30% of a large enqueue's wall time)
        mhs = hash64_batch(domains, seed=_MEMBER_SEED)
        for m, is_seen, mh in zip(msgs, seen, mhs):
            mh = int(mh)
            if self.pending.contains_mh(mh):
                self.stats["skipped_pending"] += 1
                continue
            proc = self.in_processing.get(m.addr_key)
            if proc is not None and proc[0] == m.domain:
                self.stats["skipped_processing"] += 1
                continue
            if is_seen:
                self.stats["skipped_seen"] += 1
                continue
            self.pending.add_mh(m.priority(), m, mh)
            self.stats["enqueued"] += 1

    # ------------------------------------------------------------- dequeue side
    def _expire_locks(self, epoch: int) -> None:
        for key in [k for k, (_, dl) in self.in_processing.items() if dl < epoch]:
            del self.in_processing[key]

    def take_ready(self, epoch: int) -> list[dict]:
        """Dequeue new jobs (≤ dequeue_limit, one per unlocked addr_key,
        priority order — S2) and emit this epoch's fetch tasks (≤ per-domain
        ``concurrency`` per ``delay_epochs`` — the politeness budget)."""
        cfg = self.cfg
        self._expire_locks(epoch)

        candidates = []
        for prio, key in self.pending.head_items():
            if key not in self.in_processing:
                candidates.append((prio, key))
        candidates.sort()
        for _, key in candidates[: cfg.jobs.dequeue_limit]:
            msg = self.pending.pop(key)
            self.in_processing[key] = (msg.domain, epoch + self.lock_ttl_epochs)
            root = msg.url or f"http://{msg.domain}/"
            job = JobState(domain=msg.domain, addr_key=key, root_url=root,
                           start_epoch=epoch)
            job.hard_jitter, job.delay_jitter = job_jitters(msg.domain, cfg)
            job.url_seen.add(root)           # root committed like a scheduled task
            job.queue.append((0, root))
            self.jobs[msg.domain] = job

        tasks: list[dict] = []
        for domain in sorted(self.jobs):
            job = self.jobs[domain]
            hard = cfg.crawl.job_hard_timeout_epochs + job.hard_jitter
            if epoch - job.start_epoch > hard:
                # forcible kill (job_hard_timeout): drop remaining queue
                job.term_by = "hard_timeout"
                job.queue.clear()
                continue
            if epoch - job.start_epoch > cfg.crawl.job_soft_timeout_epochs:
                job.term_by = job.term_by or "soft_timeout"
                continue  # no new tasks; finishes at end_epoch
            # politeness delay + deterministic per-domain jitter
            # (conf/default.yaml:205-209: delay 1s + delay_jitter 1s)
            delay = cfg.crawl.delay_epochs + job.delay_jitter
            if not job.queue or epoch - job.last_fetch_epoch < delay:
                continue
            n = min(cfg.crawl.concurrency, len(job.queue))
            for _ in range(n):
                depth, url = job.queue.pop(0)
                tasks.append({"url": url, "domain": domain, "depth": depth,
                              "shard": self.shard})
            job.in_flight += n
            job.last_fetch_epoch = epoch
        self.stats["tasks_emitted"] += len(tasks)
        return tasks

    # ------------------------------------------------------------- result side
    def absorb(self, rows: list[dict]) -> int:
        """Buffer fetch results routed to this shard (order-independent)."""
        self._absorbed.extend(rows)
        return len(rows)

    def absorb_table(self, table) -> int:
        """Arrow-table variant (zero-pickle transport); converted to row dicts
        lazily at the epoch barrier."""
        self._absorbed_tables.append(table)
        return table.num_rows

    _RESULT_COLS = ("domain", "depth", "url", "sched_links",
                    "cand_domains", "cand_addr_keys", "cand_shards")

    def _drain_absorbed_sorted(self) -> tuple:
        """Absorbed results as column lists sorted by (domain, depth, url).

        Tables sort via pyarrow's C sort and decode column-wise — no
        per-row dict construction (the r2-measured ~1 s barrier python on
        100k-row epochs was dominated by to_pylist + sorting dicts). UTF-8
        byte order ≡ Python code-point order, and (domain, depth, url) is a
        total order within an epoch (a job fetches a URL at most once), so
        the result is identical to the dict path the simulator uses."""
        rows = self._absorbed
        self._absorbed = []
        tables = self._absorbed_tables
        self._absorbed_tables = []
        if rows or not tables:
            for t in tables:  # mixed/legacy path (engine never mixes)
                rows.extend(t.to_pylist())
            rows.sort(key=lambda r: (r["domain"], r["depth"], r["url"]))
            return ([r["domain"] for r in rows], [r["depth"] for r in rows],
                    [r["url"] for r in rows],
                    [r.get("sched_links") for r in rows],
                    [r.get("cand_domains") for r in rows],
                    [r.get("cand_addr_keys") for r in rows],
                    [r.get("cand_shards") for r in rows])
        import pyarrow as pa
        import pyarrow.compute as pc
        t = pa.concat_tables(tables) if len(tables) > 1 else tables[0]
        idx = pc.sort_indices(t, sort_keys=[("domain", "ascending"),
                                            ("depth", "ascending"),
                                            ("url", "ascending")])
        t = t.take(idx)
        return tuple(t.column(c).to_pylist() for c in self._RESULT_COLS)

    def end_epoch(self, epoch: int) -> dict[str, Any]:
        """Epoch barrier: process absorbed results deterministically, expand
        links through the task-filter chain (rules.rs:56-77), accumulate
        discovery, finish jobs. Returns cross-shard enqueue messages, finished
        DomainLinks and job metric rows."""
        cfg = self.cfg
        domains, depths, urls, sched_cols, cd_cols, ck_cols, cs_cols = \
            self._drain_absorbed_sorted()

        # columnar outgoing (the storage exchange writes it column-wise)
        outgoing: dict[int, dict] = {}
        sent_this_epoch: set[str] = set()

        for r_domain, r_depth, sched_links, cand_d, cand_k, cand_s in zip(
                domains, depths, sched_cols, cd_cols, ck_cols, cs_cols):
            job = self.jobs.get(r_domain)
            if job is None:
                continue  # late result for an expired/killed job
            job.in_flight = max(0, job.in_flight - 1)
            job.pages_fetched += 1

            # -- stateful tail of the task-filter chain (rules.rs:56-77).
            #    The pure filters F2/F3/F6/F7 were pre-applied in
            #    DiscoverStage.sched_filter (side-effect-free, so the split is
            #    exactly order-equivalent); here: F1 check → F4 → F5 →
            #    F1 commit-at-tail.
            per_page = 0
            child_depth = r_depth + 1
            for link in sched_links or []:
                if link in job.url_seen:
                    continue                                   # F1 check
                if job.pages_scheduled >= cfg.rules.total_link_budget:
                    continue                                   # F4
                if per_page >= cfg.rules.links_per_task_budget:
                    continue                                   # F5
                job.url_seen.add(link)                         # F1 commit
                insort(job.queue, (child_depth, link))
                job.pages_scheduled += 1
                per_page += 1

            # -- discovery path (crusty.rs:250-274): candidates were computed
            #    vectorized in DiscoverStage; stateful gates run here
            job_sld = transform_domain(job.domain, cfg.topk.second_level_only)
            for d, akey, dshard in zip(cand_d or [], cand_k or [],
                                       cand_s or []):
                sld = transform_domain(d, cfg.topk.second_level_only)
                if sld != job_sld:
                    job.linked.add(sld)                        # M6 link_domain
                if dshard < 0:                                 # unresolvable (M7 drop)
                    continue
                if d in sent_this_epoch or not self._ddc_admit(d):
                    continue
                sent_this_epoch.add(d)
                out = outgoing.setdefault(int(dshard), {
                    "domain": [], "addr_key": [], "disc_depth": [], "disc_epoch": []})
                out["domain"].append(d)
                out["addr_key"].append(akey)
                out["disc_depth"].append(child_depth)
                out["disc_epoch"].append(epoch)

        # -- finish jobs (S6 semantics, redis-queue/src/lib.rs:153-197)
        domain_links: list[tuple[str, list[str]]] = []
        job_metrics: list[dict] = []
        for domain in sorted(self.jobs):
            job = self.jobs[domain]
            done = (not job.queue and job.in_flight == 0) or (
                job.term_by == "soft_timeout" and job.in_flight == 0)
            if not done:
                continue
            proc = self.in_processing.get(job.addr_key)
            if proc is not None and proc[0] == domain:
                del self.in_processing[job.addr_key]
            self._mark_seen(domain)
            name = transform_domain(domain, cfg.topk.second_level_only)
            domain_links.append((name, sorted(job.linked)))
            job_metrics.append({
                "epoch": epoch, "shard": self.shard, "domain": domain,
                "pages_fetched": job.pages_fetched,
                "pages_scheduled": job.pages_scheduled,
                "linked_domains": len(job.linked),
                "duration_epochs": epoch - job.start_epoch,
                "term_by": job.term_by or "done",
            })
            del self.jobs[domain]
            self.stats["jobs_finished"] += 1

        return {"outgoing": outgoing, "domain_links": domain_links,
                "job_metrics": job_metrics}

    # ------------------------------------------------------------- introspection
    def gauges(self, epoch: int) -> dict:
        """Queue-gauge sampling (A5, crusty.rs:31-54): per-epoch state sizes."""
        import resource
        out = {
            "epoch": epoch, "shard": self.shard,
            "pending_domains": len(self.pending),
            "pending_addr_keys": self.pending.n_keys(),
            "in_processing": len(self.in_processing),
            "active_jobs": len(self.jobs),
            "seen_count": self.cuckoo.count,
            # this process's peak RSS (the shard actor when distributed) —
            # the spill acceptance gauge (probes/spill_10m_smoke.py)
            "maxrss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss // 1024,
        }
        out.update(self.pending.gauges())
        return out

    def idle(self) -> bool:
        return not (len(self.pending) or self.jobs or self._enqueue_buf
                    or self._absorbed or self._absorbed_tables)

    # ------------------------------------------------------------- checkpointing
    def checkpoint(self, run_dir: str | None = None) -> dict:
        """Full state snapshot — everything resume-exactness needs
        (SURVEY.md §7.4.6): frontier order, locks, budgets, filters, ddc.

        ``run_dir``: where to OS-copy spilled pending runs (the engine
        passes its per-shard checkpoint path + ".runs"). With it, a
        SPILLED store checkpoints at O(heads + tails + membership-table)
        RAM — the full-materialization path would undo the spill's RAM
        ceiling at 10^8 pending. Without it (simulator / unspilled / old
        callers) the r1-r3 {addr_key: entries} format is written."""
        import pickle
        if run_dir is not None and self.pending.runs:
            from .pending import _intset_to_bytes
            pend = {
                "pending_mode": "spill_v1",
                "pending_ram": pickle.dumps(self.pending.ram_by_key(),
                                            protocol=4),
                "pending_members": _intset_to_bytes(self.pending.members),
                "pending_runs": pickle.dumps(
                    self.pending.checkpoint_runs(run_dir), protocol=4),
            }
        else:
            # same {addr_key: sorted [(prio, msg)]} format as r1-r3 —
            # spill-independent, and old checkpoints stay restorable
            pend = {"pending": pickle.dumps(self.pending.snapshot_by_key(),
                                            protocol=4)}
        return {
            "shard": self.shard,
            **pend,
            "in_processing": pickle.dumps(self.in_processing, protocol=4),
            "jobs": pickle.dumps(self.jobs, protocol=4),
            "ddc": pickle.dumps(self.ddc, protocol=4),
            "bloom": self.bloom.to_bytes(),
            "cuckoo": self.cuckoo.to_bytes(),
            "stats": pickle.dumps(self.stats, protocol=4),
            "topk_store": pickle.dumps(self.topk_store.checkpoint(), protocol=4),
        }

    def restore(self, snap: dict, run_dir: str | None = None) -> None:
        import pickle
        assert snap["shard"] == self.shard
        if snap.get("pending_mode") == "spill_v1":
            self.pending.restore_spilled(
                pickle.loads(snap["pending_ram"]),
                snap["pending_members"],
                pickle.loads(snap["pending_runs"]), run_dir)
        else:
            # membership is derived from the entries; the legacy
            # "pending_domains" key (pre-spill checkpoints) is ignored
            self.pending.load_by_key(pickle.loads(snap["pending"]))
        self.in_processing = pickle.loads(snap["in_processing"])
        self.jobs = pickle.loads(snap["jobs"])
        # jitters are derived state — recompute rather than trust the pickle
        # (older checkpoints predate the fields; unpickling fills the
        # dataclass default 0, firing hard timeouts early and shrinking
        # politeness delays after resume)
        for job in self.jobs.values():
            job.hard_jitter, job.delay_jitter = job_jitters(job.domain,
                                                            self.cfg)
        self.ddc = pickle.loads(snap["ddc"])
        self.bloom = ScalingBloom.from_bytes(snap["bloom"])
        self.cuckoo = CuckooFilter.from_bytes(snap["cuckoo"])
        self.stats = pickle.loads(snap["stats"])
        self.topk_store.restore(pickle.loads(snap["topk_store"]))
