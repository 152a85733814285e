"""Streaming (non-BSP) crawl mode — free-running permits, bounded in-flight.

The reference is a free-running streaming system: a 1 s-cadence permit lets
the frontier emit up to ``dequeue_limit`` jobs (``crusty.rs:216-230``),
relabuf micro-batching smooths the flow (``config.rs:87-96``), and bounded
channels provide backpressure (``crusty.rs:109-127``). ``mode: bsp`` trades
that latency for determinism with a permit window of one; ``mode:
streaming`` runs the same permit loop (``CrawlEngine._crawl`` in
`pipelines/crawl.py`) with ``engine.streaming_window`` permits in flight,
trading the determinism back:

- each **permit** dequeues every scoped shard *without* waiting for the
  permits still in flight to be absorbed; a permit that waits for a window
  slot is dequeued inside the deliver round of the completion that frees
  it;
- a permit runs the crawl's one ``EpochStage`` as a BSP epoch does: one
  Ray task per bundle of its task blocks, submitted at launch;
- permit *completions* run the barrier (absorb read + end_epoch + storage
  exchange + delivery) strictly in permit order from the driver thread, so
  shard-state mutation stays sequential per shard while fetch compute
  overlaps freely. A permit's files live under its own epoch directories,
  so overlapping permits never see each other's rows. A failed stage is
  replayed once at its turn, as in BSP mode.

Politeness still holds: ``take_ready`` marks domains in-flight inside the
shard actor, so overlapping permits can never double-fetch a domain, and the
per-addr_key lock/delay bookkeeping uses the permit counter as its clock.
Checkpoints quiesce the window: every ``streaming_checkpoint_every_permits``
permits (0 = never) and once at the end of the run.

Correctness contract (vs BSP, same seed list): when the crawl budgets do not
bind (every reachable page within ``max_level`` fits the link budgets), both
modes fetch exactly the same URL set, finish the same domain set, and end
with semantically-equal seen sets — asserted by
``tests/test_streaming_mode.py``. When budgets bind, absorb *order* decides
which links consume budget, so page sets may differ between modes (and
between streaming runs); that nondeterminism is inherent to free-running
crawlers, including the reference.
"""

from __future__ import annotations

from .crawl import CrawlEngine


def make_engine(cfg, web_cfg, out_dir, seeds=None, rules=None) -> CrawlEngine:
    """The crawl engine; ``cfg.engine.mode`` ("bsp" | "streaming") sets its
    permit window."""
    return CrawlEngine(cfg, web_cfg, out_dir, seeds=seeds, rules=rules)
