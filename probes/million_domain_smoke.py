"""1M-domain crawl stability smoke — the 4× step beyond the 250k smoke.

Measures whole-run throughput AND per-epoch driver RSS over a web 4× the
previous stability probe (1,000,000 domains, 500k seeds, 32 shards). The
claim under test: driver memory is O(buffer + shards) — flat in pages
crawled — and throughput holds at frontier sizes another 4× up, i.e. the
shapes that matter at the north rule's 10^10-URL scale are already the
ones running here.

Run: PYTHONPATH=/root/repo python probes/million_domain_smoke.py
"""

import json
import os
import resource
import tempfile
import time

import ray


def main() -> None:
    n_domains = int(os.environ.get("SMOKE_DOMAINS", "1000000"))
    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from crusty_ray.config import test_config
    from crusty_ray.datagen.webgraph import SyntheticWeb, WebConfig
    from crusty_ray.pipelines.crawl import CrawlEngine

    cfg = test_config()
    cfg.jobs.shard_total = 32
    cfg.jobs.shard_max = 32
    cfg.jobs.dequeue_limit = 60_000
    cfg.rules.total_link_budget = 12
    cfg.rules.links_per_task_budget = 8
    cfg.rules.max_level = 4
    cfg.crawl.concurrency = 24
    cfg.engine.fetch_batch_size = 1024
    if os.path.isdir("/dev/shm"):
        cfg.engine.scratch_dir = "/dev/shm"
    cfg.engine.checkpoint_every_epochs = 6
    cfg.engine.max_epochs = 10
    # SMOKE_SPILL=<n>: force the spillable pending store + cuckoo memmap
    # paging through the FULL engine path (actors, exchanges, spill-aware
    # checkpoints) — the frontier-RAM posture at production scale
    if os.environ.get("SMOKE_SPILL"):
        cfg.engine.pending_spill_threshold = int(os.environ["SMOKE_SPILL"])
        cfg.engine.pending_spill_max_runs = 16
        cfg.engine.cuckoo_spill_bytes = 1 << 20

    web_cfg = WebConfig(n_domains=n_domains, max_pages_per_domain=12,
                        hub_domains=16, images_per_page=1,
                        image_page_fraction=0.05, link_lo=10, link_hi=25)
    web = SyntheticWeb(web_cfg)
    seeds = [f"http://{web.domain_name(i)}/" for i in range(0, n_domains, 2)]

    out = tempfile.mkdtemp(prefix="million_smoke_")
    t0 = time.time()
    CrawlEngine(cfg, web_cfg, out, seeds=seeds).run(cfg.engine.max_epochs)
    wall = time.time() - t0
    maxrss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6

    import duckdb
    pages = duckdb.sql(
        f"select count(*) from read_parquet('{out}/crawl_log/*/*.parquet')"
    ).fetchone()[0]
    print(json.dumps({
        "n_domains": n_domains, "n_seeds": len(seeds),
        "pages": int(pages), "wall_s": round(wall, 1),
        "pages_per_sec": round(pages / wall, 1),
        "epochs": cfg.engine.max_epochs,
        "driver_maxrss_gb": round(maxrss_gb, 3),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
