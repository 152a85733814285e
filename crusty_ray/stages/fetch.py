"""Synthetic fetch + parse — the MultiCrawler page path as a batch kernel.

``EpochStage`` (pipelines/crawl.py) and the simulator each hold one
``FetchStage``: ``__init__`` builds the synthetic web handle, robots cache
and compiled parser once; ``__call__`` processes an Arrow batch of fetch
tasks and returns one result row per task.

Per-task semantics mirror the reference's status/load filter chain
(``workspace/main/src/rules.rs:81-94``):

1. **Redirect** status filter: follow ≤ ``max_redirect`` redirects
   (rules.rs:83; conf/default.yaml:196); beyond → ``term_by=redirect_limit``.
2. **ContentType** status filter: accept ``text/html``/``text/plain``
   (rules.rs:84); else ``term_by=status_content_type``.
3. size cap ``max_response_size`` (conf/default.yaml:203) → ``load_size``;
   synthetic latency > ``load_timeout`` (conf/default.yaml:211) →
   ``load_timeout``.
4. **RobotsTxt** load filter on the final URL (rules.rs:89-92) →
   ``load_robots``.
5. **ContentType** load filter: only ``text/html`` parses (rules.rs:92);
   ``text/plain`` passes status but yields no links → ``load_content_type``.
6. parse links (stages/parse.py) + collect referenced image ids.

``term_by=""`` means followed OK (the reference's ``follow_ok`` metric flag,
used by the Pages/sec dashboard definition).

The per-row loop is justified: each row is one page whose body must be
generated + regex-parsed; rows are independent, and the engine spreads
batches across CPUs as one Ray task per bundle. This stage is where a real
deployment would do network I/O.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa

from ..config import Config
from ..datagen.webgraph import SyntheticWeb, WebConfig
from .robots import RobotsRules, parse_robots

RESULT_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("domain", pa.string()),
    ("depth", pa.int32()),
    ("shard", pa.int32()),
    ("status_code", pa.int16()),
    ("content_type", pa.string()),
    ("read_size_b", pa.int32()),
    ("fetch_ms", pa.int32()),
    ("redirects", pa.int32()),
    ("term_by", pa.string()),
    ("links", pa.list_(pa.string())),
    ("rels", pa.list_(pa.string())),
    ("image_ids", pa.list_(pa.string())),
])


class FetchStage:
    """Fetch + parse kernel: call it on an Arrow table of fetch tasks to get
    the ``RESULT_SCHEMA`` table, one row per task."""

    def __init__(self, web_cfg: WebConfig, cfg: Config, parser: str = "regex",
                 rules=None):
        from .parse import PARSERS
        from ..rules import DEFAULT_RULES
        self.web = SyntheticWeb(web_cfg)
        self.cfg = cfg
        self.rules = rules or DEFAULT_RULES
        # pluggable parser slot (reference cargo feature, main/Cargo.toml:13-18)
        self._extract = PARSERS[self.rules.parser if rules else parser]
        self._robots_cache: dict[str, RobotsRules] = {}

    # robots are fetched once per domain and cached per stage (reference
    # ST9); the DiscoverStage beside this one looks them up here too
    def robots_rules(self, domain: str) -> RobotsRules:
        got = self._robots_cache.get(domain)
        if got is None:
            got = parse_robots(self.web.robots_body(domain),
                               self.cfg.crawl.user_agent)
            self._robots_cache[domain] = got
        return got

    def fetch_one(self, url: str, domain: str, depth: int, shard: int) -> dict[str, Any]:
        cfg = self.cfg
        rec = self.web.page_record(url)
        redirects = 0
        while rec["status_code"] in (301, 302, 303, 307, 308) and rec["redirect_to"]:
            redirects += 1
            if redirects > cfg.rules.max_redirect:
                return self._row(url, domain, depth, shard, rec, redirects, "redirect_limit")
            rec = self.web.page_record(rec["redirect_to"])

        if rec["status_code"] != 200:
            return self._row(url, domain, depth, shard, rec, redirects, f"status_{rec['status_code']}")
        if rec["content_type"] not in cfg.crawl.accept_content_types_status:
            return self._row(url, domain, depth, shard, rec, redirects, "status_content_type")
        if (self.rules.status_filter is not None
                and not self.rules.status_filter(rec["status_code"], rec["content_type"])):
            return self._row(url, domain, depth, shard, rec, redirects, "status_user")
        if rec["size_b"] > cfg.crawl.max_response_size:
            return self._row(url, domain, depth, shard, rec, redirects, "load_size")
        if rec["fetch_ms"] > cfg.crawl.load_timeout_ms:
            return self._row(url, domain, depth, shard, rec, redirects, "load_timeout")
        if cfg.rules.robots_txt and not self.robots_rules(domain).allowed(rec["url"]):
            return self._row(url, domain, depth, shard, rec, redirects, "load_robots")
        if rec["content_type"] not in cfg.crawl.accept_content_types_load:
            return self._row(url, domain, depth, shard, rec, redirects, "load_content_type")

        links, rels = self._extract(rec["body"], rec["url"])
        row = self._row(url, domain, depth, shard, rec, redirects, "")
        row["links"], row["rels"], row["image_ids"] = links, rels, rec["image_ids"]
        return row

    @staticmethod
    def _row(url: str, domain: str, depth: int, shard: int, rec: dict,
             redirects: int, term_by: str) -> dict[str, Any]:
        return {
            "url": url, "domain": domain, "depth": depth, "shard": shard,
            "status_code": rec["status_code"], "content_type": rec["content_type"],
            "read_size_b": rec["size_b"], "fetch_ms": rec["fetch_ms"],
            "redirects": redirects, "term_by": term_by,
            "links": [], "rels": [], "image_ids": [],
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        domains = batch["domain"].to_pylist()
        depths = batch["depth"].to_pylist()
        shards = batch["shard"].to_pylist()
        rows = [self.fetch_one(u, d, dp, sh)
                for u, d, dp, sh in zip(urls, domains, depths, shards)]
        out = rows_to_table(rows)
        for col in ("epoch", "seq"):  # passthrough ordering columns
            if col in batch.column_names:
                out = out.append_column(col, batch[col])
        return out


def rows_to_table(rows: list[dict]) -> pa.Table:
    cols = {name: [r[name] for r in rows] for name in RESULT_SCHEMA.names}
    return pa.table(
        {n: pa.array(cols[n], type=RESULT_SCHEMA.field(n).type) for n in RESULT_SCHEMA.names}
    )
