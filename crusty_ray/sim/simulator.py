"""Single-threaded reference simulator — the golden-output oracle.

The reference repo ships no tests (SURVEY.md §5): correctness of the
distributed engine is defined as *exact equality* with this naive,
single-threaded composition of the same per-record semantics under the same
epochal BSP scheduling spec (deterministic ordering: shard asc → domain asc →
(depth, url); cross-shard messages applied sorted at the epoch barrier).

It deliberately shares the kernel objects (``ShardState``, ``FetchStage``,
``DiscoverStage``, ``TopKState``) with the engine — the *composition* is what
differs (plain loop here vs Ray tasks + shard actors there), which is
exactly what the conformance check needs to pin down: that distribution,
batching, the storage exchange and actor routing introduce no semantic drift.
"""

from __future__ import annotations

from typing import Optional

from ..config import Config
from ..core.sharding import resolve_domain_row
from ..core.urls import host_of
from ..datagen.webgraph import SyntheticWeb, WebConfig
from ..pipelines.topk import make_topk_state
from ..stages.discover import DiscoverStage
from ..stages.fetch import FetchStage
from ..state.frontier import DomainMsg, ShardState


def seed_messages(seeds: list[str], cfg: Config, web: SyntheticWeb) -> list[DomainMsg]:
    """Seed URLs → resolved DomainMsg rows (S1 + M7: config.rs:283-292,
    crusty.rs:491-512; unresolvable seeds dropped)."""
    out = []
    for url in seeds:
        d = host_of(url)
        if d is None:
            continue
        got = resolve_domain_row(
            web.dns_addrs(d), cfg.jobs.shard_total,
            cfg.jobs.addr_key_v4_mask, cfg.jobs.addr_key_v6_mask,
            cfg.discovery.ipv6_policy)
        if got is None:
            continue
        _, akey, shard = got
        out.append(DomainMsg(domain=d, addr_key=akey, shard=shard, url=url))
    return out


class CrawlSimulator:
    def __init__(self, cfg: Config, web_cfg: WebConfig,
                 seeds: Optional[list[str]] = None, rules=None):
        self.cfg = cfg
        self.web_cfg = web_cfg
        self.web = SyntheticWeb(web_cfg)
        self.fetcher = FetchStage(web_cfg, cfg, rules=rules)
        self.discoverer = DiscoverStage(web_cfg, cfg,
                                        self.fetcher.robots_rules,
                                        rules=rules)
        self.shards = [ShardState(s, cfg, web_cfg) for s in range(cfg.jobs.shard_total)]
        self.topk = make_topk_state(cfg.topk)
        self.seeds = seeds if seeds is not None else self.web.seeds()

        self.crawl_log: list[dict] = []
        self.job_metrics: list[dict] = []
        self.topk_rows: list[dict] = []
        self.gauges: list[dict] = []
        self.finished_domains: list[str] = []
        self.epochs_run = 0

    def seed(self) -> "CrawlSimulator":
        msgs = seed_messages(self.seeds, self.cfg, self.web)
        for m in msgs:
            self.shards[m.shard].enqueue([m])
        for s in self.shards:
            s.apply_enqueues(0)
        return self

    def run(self, max_epochs: Optional[int] = None) -> "CrawlSimulator":
        max_epochs = max_epochs or self.cfg.engine.max_epochs
        self.seed()

        scoped = self.shards[self.cfg.jobs.shard_min:self.cfg.jobs.shard_max]
        for epoch in range(max_epochs):
            tasks: list[dict] = []
            for s in scoped:
                tasks.extend(s.take_ready(epoch))
            if not tasks and all(s.idle() for s in scoped):
                break
            self._run_epoch(epoch, tasks)
            self.epochs_run = epoch + 1
        return self

    def _run_epoch(self, epoch: int, tasks: list[dict]) -> None:
        cfg = self.cfg
        for seq, t in enumerate(tasks):
            row = self.fetcher.fetch_one(t["url"], t["domain"], t["depth"], t["shard"])
            doms, keys, shards = self.discoverer.candidates_for(t["domain"], row["links"])
            row["cand_domains"], row["cand_addr_keys"], row["cand_shards"] = doms, keys, shards
            row["sched_links"] = self.discoverer.sched_filter(
                t["domain"], t["depth"], row["links"], row["rels"])
            self.shards[t["shard"]].absorb([row])
            self.crawl_log.append({
                "epoch": epoch, "seq": seq, "url": row["url"], "domain": row["domain"],
                "depth": row["depth"], "shard": row["shard"],
                "status_code": row["status_code"], "content_type": row["content_type"],
                "read_size_b": row["read_size_b"], "fetch_ms": row["fetch_ms"],
                "redirects": row["redirects"], "term_by": row["term_by"],
                "n_links": len(row["links"]), "image_ids": row["image_ids"],
            })

        self.topk.advance_epoch()
        all_links: list[tuple[str, list[str]]] = []
        outgoing_merged: dict[int, dict] = {}
        for s in self.shards:
            res = s.end_epoch(epoch)
            self.gauges.append(s.gauges(epoch))  # sampled at the barrier, pre-enqueue
            all_links.extend(res["domain_links"])
            self.job_metrics.extend(res["job_metrics"])
            self.finished_domains.extend(m["domain"] for m in res["job_metrics"])
            for tgt, msgs in res["outgoing"].items():
                acc = outgoing_merged.setdefault(tgt, {
                    "domain": [], "addr_key": [], "disc_depth": [], "disc_epoch": []})
                for k in acc:
                    acc[k].extend(msgs[k])
        self.topk.add_domain_links(all_links)
        if (epoch + 1) % cfg.topk.consume_every_epochs == 0:
            self.topk_rows.extend(self.topk.snapshot(epoch))
        for tgt, msgs in outgoing_merged.items():
            self.shards[tgt].enqueue(msgs)
        for s in self.shards:
            s.apply_enqueues(epoch)

    # -- oracle outputs ----------------------------------------------------
    def seen_filter_bytes(self) -> list[bytes]:
        """Serialized per-shard cuckoo filters — byte-exact comparable."""
        return [s.cuckoo.to_bytes() for s in self.shards]
