"""Domain discovery — vectorized filter-map + synthetic DNS resolve + shard.

Per fetched page, the reference's result handler runs ``domain_filter_map``
over every parsed link (``workspace/main/src/crusty.rs:250-274``): host, basic
validity (len ≥ 4, contains '.', != task domain), IANA TLD membership, then
job-state accumulation and LRU dedup, then DNS resolution and sharding
(``crusty.rs:405-432``, ``types.rs:22-55``).

Here the *pure* parts run vectorized in a stateless batch kernel (called by
``EpochStage`` inside each crawl task):
basic filter + TLD check + synthetic DNS resolve + addr_key/shard. The
*stateful* parts (per-job linked-domain accumulation, node LRU, bloom gate,
pending dedup) stay in the frontier shard actor, which receives the candidate
columns alongside the fetch result row.

At real scale the DNS resolve would be an actor-pool stage with bounded
concurrency (reference resolver pool, conf/default.yaml:258-261); with a
synthetic web it is pure compute. A broadcast bloom snapshot of the seen set
would pre-filter candidates before the shuffle — the authoritative check stays
at the owning shard either way.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import Config
from ..core.sharding import resolve_domain_row
from ..core.tld import DEFAULT_TLD_SET
from ..core.urls import host_of
from ..datagen.webgraph import SyntheticWeb, WebConfig

CANDIDATE_FIELDS = [
    ("cand_domains", pa.list_(pa.string())),
    ("cand_addr_keys", pa.list_(pa.string())),
    ("cand_shards", pa.list_(pa.int32())),
]


class DiscoverStage:
    """Appends candidate-domain columns to fetch-result batches."""

    def __init__(self, web_cfg: WebConfig, cfg: Config, robots, rules=None):
        from ..rules import DEFAULT_RULES
        self.rules = rules or DEFAULT_RULES
        self.web = SyntheticWeb(web_cfg)
        self.cfg = cfg
        self.tlds = DEFAULT_TLD_SET
        self._dns_cache: dict[str, object] = {}
        # domain → RobotsRules: the robots lookup of the FetchStage this
        # stage runs beside, so the pair parses each robots.txt once
        self._robots = robots

    def _resolve(self, domain: str):
        """(addr_key, shard) or None — memoized per actor."""
        if domain in self._dns_cache:
            return self._dns_cache[domain]
        addrs = self.web.dns_addrs(domain)
        got = resolve_domain_row(
            addrs,
            self.cfg.jobs.shard_total,
            self.cfg.jobs.addr_key_v4_mask,
            self.cfg.jobs.addr_key_v6_mask,
            self.cfg.discovery.ipv6_policy,
        )
        out = None if got is None else (got[1], got[2])
        self._dns_cache[domain] = out
        return out

    def candidates_for(self, task_domain: str, links: list[str]) -> tuple[list, list, list]:
        doms: list[str] = []
        keys: list[str] = []
        shards: list[int] = []
        seen_here = set()
        for link in links:
            d = host_of(link)
            # domain_filter_map predicate (crusty.rs:253-262)
            if (not d or len(d) < 4 or "." not in d or d == task_domain
                    or d.rpartition(".")[2].upper() not in self.tlds):
                continue
            if d in seen_here:  # batch-local partial dedup (A1 pattern)
                continue
            seen_here.add(d)
            got = self._resolve(d)
            if got is None:
                doms.append(d)
                keys.append("")
                shards.append(-1)  # unresolvable: recorded for link_domain, never enqueued
            else:
                doms.append(d)
                keys.append(got[0])
                shards.append(got[1])
        return doms, keys, shards

    def sched_filter(self, task_domain: str, depth: int,
                     links: list[str], rels: list[str]) -> list[str]:
        """Pre-apply the *pure* task filters F2/F3/F6/F7 (rules.rs:63-72).

        These checks are side-effect-free and budgets (F4/F5) only count
        committed links, so dropping pure-filter rejects before the stateful
        chain (F1 seen / F4 / F5 / commit, run in the owning shard) is exactly
        equivalent to the reference's in-order chain — and it keeps the link
        payload that crosses the shuffle 2-3× smaller.

        DELIBERATE DIVERGENCE (documented per ADVICE r1): rules.rs:63-72
        registers TotalPageBudget/LinkPerPageBudget *before* PageLevel and
        RobotsTxt in crusty-core's filter chain. If crusty-core charged
        budgets on *accept* (i.e. a link that later filters reject still
        consumes budget), the reference would under-schedule relative to us
        when budgets bind. crusty-core v0.82's source is not available in
        this sandbox to verify its accept-vs-commit semantics; this engine
        defines budgets as counting only *committed* links (links that pass
        every filter), which is the self-consistent reading and the one the
        simulator oracle implements. Both sides of the conformance suite use
        this definition, so the divergence is a spec choice, not a bug.
        """
        from ..core.urls import host_of, same_domain
        cfg = self.cfg
        if depth + 1 >= cfg.rules.max_level:        # F6 PageLevel (for children)
            return []
        out = []
        robots = None
        for link, rel in zip(links, rels):
            h = host_of(link)
            if h is None or not same_domain(h, task_domain):      # F2
                continue
            if cfg.rules.skip_no_follow_links and "nofollow" in rel:  # F3
                continue
            if cfg.rules.robots_txt:                              # F7
                if robots is None:
                    robots = self._robots(task_domain)
                if not robots.allowed(link):
                    continue
            # user task filter (JobRules extension slot, rules.rs:55-77)
            if (self.rules.link_filter is not None
                    and not self.rules.link_filter(link, task_domain)):
                continue
            out.append(link)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        domains = batch["domain"].to_pylist()
        depths = batch["depth"].to_pylist()
        links_col = batch["links"].to_pylist()
        rels_col = batch["rels"].to_pylist()
        cd, ck, cs, sched = [], [], [], []
        for task_domain, depth, links, rels in zip(domains, depths,
                                                   links_col, rels_col):
            doms, keys, shards = self.candidates_for(task_domain, links or [])
            cd.append(doms)
            ck.append(keys)
            cs.append(shards)
            sched.append(self.sched_filter(task_domain, depth,
                                           links or [], rels or []))
        out = batch
        for (name, typ), vals in zip(CANDIDATE_FIELDS, (cd, ck, cs)):
            out = out.append_column(name, pa.array(vals, type=typ))
        return out.append_column("sched_links", pa.array(sched, pa.list_(pa.string())))
