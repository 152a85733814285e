"""Decayed per-TLD heavy hitters — the redis-calc top-k re-expressed exactly.

Reference semantics (``workspace/redis-calc/src/lib.rs:33-136``; counting at
``workspace/main/src/redis_operators.rs:92-124``): each finished job's
``DomainLinks{name, linked_domains}`` contributes 1 count for ``name`` and 1
per linked domain; counts feed a decayed TOPK sketch per TLD plus a global
``""`` bucket (k=100, w=25000, d=8, decay=0.92, conf/default.yaml:172-178); a
leader-elected consumer snapshots LIST+COUNT every 15 s.

Ours is **exact** (groupby-sum + top-k) with the sketch's decay mapped onto
epochs deterministically: carried totals are multiplied by ``decay`` once per
epoch before new counts are added (SURVEY.md §7.4.4), and a snapshot is taken
every ``consume_every_epochs``. An exact aggregate strictly dominates the
sketch at any scale where the distinct-domain count fits a shard's memory; at
10^10-URL scale the same class runs sharded by ``tld`` behind a
``groupby("tld")`` with per-batch partial counting in front (A1,
redis_operators.rs:93-100).
"""

from __future__ import annotations

from collections import Counter, defaultdict

from ..config import TopKConfig


class TopKState:
    def __init__(self, cfg: TopKConfig):
        self.cfg = cfg
        self.scores: defaultdict[str, float] = defaultdict(float)
        self.epoch = -1

    def advance_epoch(self) -> None:
        """Apply one decay step to carried totals (epoch-mapped HeavyKeeper decay)."""
        self.epoch += 1
        if self.cfg.decay < 1.0 and self.scores:
            dead = []
            for k in self.scores:
                self.scores[k] *= self.cfg.decay
                if self.scores[k] < 1e-6:
                    dead.append(k)
            for k in dead:
                del self.scores[k]

    def add_domain_links(self, domain_links: list[tuple[str, list[str]]]) -> None:
        """Count 1 per job name + 1 per linked mention (redis_operators.rs:93-100)."""
        counts: Counter[str] = Counter()
        for name, linked in domain_links:
            counts[name] += 1
            for d in linked:
                counts[d] += 1
        for dom, cnt in counts.items():
            self.scores[dom] += cnt

    def snapshot(self, epoch: int) -> list[dict]:
        """TopHits rows per TLD + global '' bucket (redis-calc/src/lib.rs:37-73,
        92-133): (epoch, tld, domain, hits), top-k per bucket, deterministic
        ordering (score desc, domain asc)."""
        by_tld: defaultdict[str, list] = defaultdict(list)
        for dom, score in self.scores.items():
            tld = dom.rpartition(".")[2]
            by_tld[tld].append((dom, score))
            by_tld[""].append((dom, score))
        rows: list[dict] = []
        for tld in sorted(by_tld):
            ranked = sorted(by_tld[tld], key=lambda t: (-t[1], t[0]))[: self.cfg.k]
            for dom, score in ranked:
                rows.append({"epoch": epoch, "tld": tld, "domain": dom,
                             "hits": int(round(score))})
        return rows

    # -- checkpointing -----------------------------------------------------
    def checkpoint(self) -> dict:
        return {"scores": dict(self.scores), "epoch": self.epoch}

    def restore(self, snap: dict) -> None:
        self.scores = defaultdict(float, snap["scores"])
        self.epoch = snap["epoch"]


class SketchTopKState:
    """Sketch-backed variant of TopKState — per-TLD + global TOPK sketches
    exactly as the reference reserves them (redis-calc/src/lib.rs:53-72),
    bounded memory per bucket. Same interface as TopKState; select with
    ``TopKConfig``-driven ``make_topk_state``. Epoch decay is applied inside
    the sketch's eviction dynamics (HeavyKeeper), not per epoch."""

    def __init__(self, cfg: TopKConfig):
        from ..state.topk_sketch import TopKSketch
        self.cfg = cfg
        self._mk = lambda: TopKSketch(cfg.k, cfg.width, cfg.depth, cfg.decay)
        self.sketches: dict[str, "TopKSketch"] = {}
        self.epoch = -1

    def advance_epoch(self) -> None:
        self.epoch += 1

    def _sketch(self, tld: str):
        got = self.sketches.get(tld)
        if got is None:
            got = self.sketches[tld] = self._mk()
        return got

    def add_domain_links(self, domain_links: list[tuple[str, list[str]]]) -> None:
        from collections import Counter
        counts: Counter[str] = Counter()
        for name, linked in domain_links:
            counts[name] += 1
            for d in linked:
                counts[d] += 1
        # per-TLD bucket + global "" bucket (redis-calc/src/lib.rs:37-50)
        for dom, cnt in sorted(counts.items()):
            tld = dom.rpartition(".")[2]
            self._sketch(tld).add(dom, cnt)
            self._sketch("").add(dom, cnt)

    def snapshot(self, epoch: int) -> list[dict]:
        rows: list[dict] = []
        for tld in sorted(self.sketches):
            for dom, hits in self.sketches[tld].topk():
                rows.append({"epoch": epoch, "tld": tld, "domain": dom,
                             "hits": int(hits)})
        return rows

    def checkpoint(self) -> dict:
        return {"epoch": self.epoch,
                "sketches": {t: s.to_state() for t, s in self.sketches.items()}}

    def restore(self, snap: dict) -> None:
        from ..state.topk_sketch import TopKSketch
        self.epoch = snap["epoch"]
        self.sketches = {t: TopKSketch.from_state(s)
                         for t, s in snap["sketches"].items()}


def make_topk_state(cfg: TopKConfig):
    """Exact aggregation by default; sketch when configured (bounded-memory
    path for key spaces beyond a shard's heap)."""
    return SketchTopKState(cfg) if getattr(cfg, "use_sketch", False) \
        else TopKState(cfg)


# --------------------------------------------------- distributed (sharded)

def bucket_owner(bucket: str, n_shards: int) -> int:
    """Deterministic owner shard of a top-k bucket (a TLD, or '' for the
    global bucket) — the analog of redis-cluster key-hashing placing each
    ``topk:{tld}`` sketch on one shard (redis-calc/src/lib.rs:53-72)."""
    from ..core.hashing import hash64
    return hash64(bucket, seed=71) % n_shards


class BucketTopK:
    """Owner-shard share of the distributed top-k state.

    Each counting bucket (per-TLD + the global ``""`` bucket) lives wholly on
    one shard (``bucket_owner``); every epoch the owner receives the
    int-merged counts for its buckets (the A1 pre-agg,
    redis_operators.rs:93-100) and applies exactly the central
    ``TopKState``/``SketchTopKState`` recurrence — decay once per epoch, then
    one float add of the epoch's integer total per domain. Because integer
    merging is exact and each domain's float accumulation sequence happens in
    exactly one place, the union of all owners' snapshots is bit-identical to
    the central state the simulator computes (asserted by the sim-exact
    ``topk_rows`` e2e tests).

    Exact mode keeps one scores dict per owned bucket (the ``""`` owner holds
    all domains — the reference's own layout, one global TOPK key on one
    redis shard); ``use_sketch`` bounds that with per-bucket HeavyKeeper
    sketches for key spaces beyond a shard's heap."""

    def __init__(self, cfg: TopKConfig):
        self.cfg = cfg
        self.use_sketch = getattr(cfg, "use_sketch", False)
        self.scores: dict[str, defaultdict[str, float]] = {}
        self.sketches: dict = {}
        self.epoch = -1

    def advance_and_add(self, epoch: int,
                        bucket_counts: dict[str, dict[str, int]]) -> None:
        """One decay step per epoch since the last call (exact mode; the
        sketch decays inside its eviction dynamics), then add the epoch's
        merged counts — the same decay-before-add order as the central
        state."""
        while self.epoch < epoch:
            self.epoch += 1
            if not self.use_sketch and self.cfg.decay < 1.0:
                for sc in self.scores.values():
                    dead = []
                    for k in sc:
                        sc[k] *= self.cfg.decay
                        if sc[k] < 1e-6:
                            dead.append(k)
                    for k in dead:
                        del sc[k]
        for bucket, counts in bucket_counts.items():
            if self.use_sketch:
                sk = self.sketches.get(bucket)
                if sk is None:
                    from ..state.topk_sketch import TopKSketch
                    sk = self.sketches[bucket] = TopKSketch(
                        self.cfg.k, self.cfg.width, self.cfg.depth,
                        self.cfg.decay)
                # sorted add order = the central sorted(counts.items())
                # restricted to this bucket's domains (same subsequence)
                for dom, cnt in sorted(counts.items()):
                    sk.add(dom, cnt)
            else:
                sc = self.scores.setdefault(bucket, defaultdict(float))
                for dom, cnt in counts.items():
                    sc[dom] += cnt

    def snapshot(self, epoch: int) -> dict[str, list[dict]]:
        """Ranked TopHits rows per owned non-empty bucket — identical
        per-bucket ordering/rounding to the central snapshot; the driver
        concatenates owners' buckets in sorted-bucket order."""
        out: dict[str, list[dict]] = {}
        if self.use_sketch:
            for bucket, sk in self.sketches.items():
                out[bucket] = [
                    {"epoch": epoch, "tld": bucket, "domain": dom,
                     "hits": int(hits)} for dom, hits in sk.topk()]
        else:
            for bucket, sc in self.scores.items():
                if not sc:
                    continue
                ranked = sorted(sc.items(),
                                key=lambda t: (-t[1], t[0]))[: self.cfg.k]
                out[bucket] = [
                    {"epoch": epoch, "tld": bucket, "domain": dom,
                     "hits": int(round(score))} for dom, score in ranked]
        return out

    # -- checkpointing -----------------------------------------------------
    def checkpoint(self) -> dict:
        if self.use_sketch:
            return {"epoch": self.epoch, "use_sketch": True,
                    "sketches": {b: s.to_state()
                                 for b, s in self.sketches.items()}}
        return {"epoch": self.epoch, "use_sketch": False,
                "scores": {b: dict(sc) for b, sc in self.scores.items()}}

    def restore(self, snap: dict) -> None:
        self.epoch = snap["epoch"]
        if snap["use_sketch"]:
            from ..state.topk_sketch import TopKSketch
            self.sketches = {b: TopKSketch.from_state(s)
                             for b, s in snap["sketches"].items()}
            self.scores = {}
        else:
            self.scores = {b: defaultdict(float, sc)
                           for b, sc in snap["scores"].items()}
            self.sketches = {}

