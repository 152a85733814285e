"""Layered configuration, mirroring the reference's config system.

Reference semantics (``workspace/main/src/config.rs:260-292``): defaults ←
optional profile overlay (``CRUSTY_PROFILE``) ← optional local yaml ← ``APP_*``
env vars; seed URLs additionally from ``CRUSTY_SEEDS``. We reproduce the same
layering with dataclasses + yaml, keeping the reference's knob names
(``conf/default.yaml``) wherever the concept survives the Ray-Data
re-expression, and adding the epochal-BSP knobs our executor needs.

Durations become *epochs* in the BSP model: the reference's 1 s dequeue permit
(`conf/default.yaml:89`) is one epoch; ``delay: 1s`` (ibid.:207) becomes
``delay_epochs: 1`` — a domain fetches at most every ``delay_epochs`` epoch(s).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, Optional

import yaml


@dataclass
class JobsConfig:
    # sharding (conf/default.yaml:35-55)
    shard_min: int = 0
    shard_max: int = 2
    shard_total: int = 2
    addr_key_v4_mask: int = 24
    addr_key_v6_mask: int = 24
    # dequeue (conf/default.yaml:80-89)
    dequeue_limit: int = 10_000


@dataclass
class RulesConfig:
    # crawling rules (conf/default.yaml:184-196)
    skip_no_follow_links: bool = True
    total_link_budget: int = 1000
    links_per_task_budget: int = 100
    max_level: int = 25
    robots_txt: bool = True
    max_redirect: int = 5


@dataclass
class CrawlSettings:
    # default_crawling_settings (conf/default.yaml:199-224)
    concurrency: int = 2          # pages per domain per epoch
    max_response_size: int = 2 * 1024 * 1024
    delay_epochs: int = 1         # delay:1s → one fetch round per domain per epoch
    delay_jitter_epochs: int = 0  # delay_jitter:1s → +hash(domain) % (j+1) epochs,
                                  # deterministic per domain (vs the reference's prng)
    load_timeout_ms: int = 10000
    job_soft_timeout_epochs: int = 180   # stop queueing new tasks for the job
    job_hard_timeout_epochs: int = 300   # kill the job
    job_hard_timeout_jitter_epochs: int = 0  # +hash(domain)%(j+1), deterministic
                                             # (conf/default.yaml:215-217 jitter)
    accept_content_types_status: tuple[str, ...] = ("text/html", "text/plain")
    accept_content_types_load: tuple[str, ...] = ("text/html",)
    # reference conf/default.yaml:219 ("crusty/{GIT_SHA}"); the product
    # token before "/" selects the robots.txt user-agent group (F7)
    user_agent: str = "crusty/{GIT_SHA}"


@dataclass
class TopKConfig:
    # topk (conf/default.yaml:166-182)
    second_level_only: bool = False
    k: int = 100
    width: int = 25_000
    depth: int = 8
    decay: float = 0.92
    consume_every_epochs: int = 15  # consume_interval 15s → every 15 epochs
    use_sketch: bool = False        # exact agg default; sketch for unbounded key spaces


@dataclass
class DiscoveryConfig:
    # domain_discovery LRU (conf/default.yaml:250-254)
    ddc_cap: int = 25_000_000
    ipv6_policy: str = "fallback"  # resolver.addr_ipv6_policy (conf/default.yaml:256-270)


@dataclass
class EngineConfig:
    """Crawl-engine and image-pipeline knobs (ours; no reference equivalent)."""
    fetch_batch_size: int = 512
    decode_batch_size: int = 64       # image rows are wide — small batches
    max_epochs: int = 50
    checkpoint_every_epochs: int = 1
    seen_bloom_capacity: int = 1 << 20   # per-shard bloom pre-filter
    seen_bloom_fpp: float = 0.001
    cuckoo_capacity: int = 1 << 20       # per-shard authoritative seen set
    gauge_interval_s: float = 1.0     # sub-epoch stage-gauge cadence (A5)
    scratch_dir: Optional[str] = None  # transient absorb/exchange file root.
                                      # None → under out_dir (CORRECT for
                                      # multi-node: the exchange must live on
                                      # storage every node shares). On a
                                      # single node, /dev/shm makes the
                                      # intra-epoch exchange RAM-speed.
    mode: str = "bsp"                 # "bsp" (deterministic epochal barriers)
                                      # | "streaming" (free-running permits,
                                      # bounded in-flight — crusty.rs:216-230)
    streaming_window: int = 3         # max permits in flight (streaming mode);
                                      # ≈ relabuf soft_cap backpressure
                                      # (config.rs:87-96)
    compact_log_at_end: bool = False  # rewrite crawl_log's per-epoch/
                                      # per-block small files into ~64 MiB
                                      # files (crawl_log_compact/) at drain —
                                      # the storage-maintenance pass a long
                                      # crawl needs (ops/io.compact_dataset)
    pending_spill_threshold: int = 1 << 31
                                      # RAM entries across the frontier's
                                      # pending TAILS before they spill as a
                                      # sorted run on scratch (state/pending
                                      # .py). Default never spills at test
                                      # scale; probes/large runs set ~10⁵-10⁶.
    pending_spill_max_runs: int = 8   # compact (merge + drop stale) past this
    cuckoo_spill_bytes: int = 1 << 31  # cuckoo table bytes above which the
                                      # seen-set table is memmap-backed on
                                      # scratch (OS-paged segments instead
                                      # of actor heap)
    streaming_checkpoint_every_permits: int = 0
                                      # >0: every K permits, drain the window
                                      # (quiesce) and write an exact-resume
                                      # checkpoint mid-stream; 0 = checkpoint
                                      # only at the final drain. The quiesce
                                      # costs the window's overlap once per K
                                      # permits — size K >> streaming_window.


@dataclass
class Config:
    seeds: list[str] = field(default_factory=list)
    jobs: JobsConfig = field(default_factory=JobsConfig)
    rules: RulesConfig = field(default_factory=RulesConfig)
    crawl: CrawlSettings = field(default_factory=CrawlSettings)
    topk: TopKConfig = field(default_factory=TopKConfig)
    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)


def _merge_into(obj: Any, data: dict) -> None:
    for k, v in data.items():
        if not hasattr(obj, k):
            raise KeyError(f"unknown config key: {k}")
        cur = getattr(obj, k)
        if dataclasses.is_dataclass(cur) and isinstance(v, dict):
            _merge_into(cur, v)
        else:
            setattr(obj, k, type(cur)(v) if cur is not None and not isinstance(v, type(cur)) else v)


def load_config(
    path: Optional[str] = None,
    profile: Optional[str] = None,
    env: Optional[dict[str, str]] = None,
) -> Config:
    """default ← yaml file ← profile overlay ← APP_* env (config.rs:260-292).

    Env overrides use ``APP_SECTION__KEY=value`` (double underscore as the
    nesting separator, mirroring the reference's env layering); seeds come
    additionally from ``CRUSTY_SEEDS`` (comma-separated, config.rs:283-292).
    """
    cfg = Config()
    env = dict(os.environ if env is None else env)
    for p in (path, profile):
        if p and os.path.exists(p):
            with open(p) as f:
                data = yaml.safe_load(f) or {}
            _merge_into(cfg, data)
    for key, val in env.items():
        if not key.startswith("APP_"):
            continue
        parts = [s.lower() for s in key[4:].split("__")]
        obj = cfg
        for part in parts[:-1]:
            obj = getattr(obj, part)
        cur = getattr(obj, parts[-1])
        setattr(obj, parts[-1], yaml.safe_load(val) if not isinstance(cur, str) else val)
    if env.get("CRUSTY_SEEDS"):
        cfg.seeds = cfg.seeds + [s.strip() for s in env["CRUSTY_SEEDS"].split(",") if s.strip()]
    _expand_vars(cfg)
    return cfg


def _git_sha() -> str:
    """Short SHA of the repo HEAD, or "nogit" outside a checkout — the
    value behind the reference's ``{GIT_SHA}`` config variable
    (config.rs:248-258, populated at build time there)."""
    import subprocess
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        ).stdout.strip() or "nogit"
    except Exception:
        return "nogit"


def _expand_vars(obj: Any) -> None:
    """Expand ``{GIT_SHA}`` in every string config field, recursively —
    the reference's config var expansion (config.rs:248-258). Lazy: the
    git subprocess runs only if some field actually uses the variable."""
    sha: list[str] = []

    def walk(o: Any) -> None:
        for f in dataclasses.fields(o):
            v = getattr(o, f.name)
            if dataclasses.is_dataclass(v):
                walk(v)
            elif isinstance(v, str) and "{GIT_SHA}" in v:
                if not sha:
                    sha.append(_git_sha())
                setattr(o, f.name, v.replace("{GIT_SHA}", sha[0]))

    walk(obj)


def test_config(**overrides) -> Config:
    """Small-scale config used by tests and the simulator-match suite:
    the reference rule-set (budgets 1000/100/25, redirects 5, robots on)
    at test-friendly capacities."""
    cfg = Config()
    cfg.jobs.shard_total = 4
    cfg.jobs.shard_max = 4
    cfg.jobs.dequeue_limit = 100
    cfg.engine.seen_bloom_capacity = 1 << 14
    cfg.engine.cuckoo_capacity = 1 << 14
    cfg.engine.max_epochs = 30
    for k, v in overrides.items():
        obj = cfg
        *parts, last = k.split(".")
        for p in parts:
            obj = getattr(obj, p, None)
        if not dataclasses.is_dataclass(obj) or not hasattr(obj, last):
            raise KeyError(f"unknown config key: {k}")
        setattr(obj, last, v)
    return cfg


test_config.__test__ = False  # a factory: pytest must not collect it as a test
