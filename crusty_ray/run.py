"""CLI entry point — the reference's ``main()`` path (workspace/main/src/main.rs:16-101).

Layered config (defaults ← ``--config`` yaml ← ``CRUSTY_PROFILE`` yaml ←
``APP_*`` env), seeds from config + ``CRUSTY_SEEDS``, then the epochal crawl
engine with per-epoch checkpoints; ``--resume`` continues exactly from the
latest checkpoint. The optional ``--images`` flag runs the payload
decode/verify pipeline over the finished crawl log.

    CRUSTY_SEEDS=http://site00000.com/ python -m crusty_ray.run \
        --out /tmp/crawl --epochs 30 [--config conf/my.yaml] [--images]

Owns its Ray session (guarded init) — the driver-facing ``__ray_entry__``
surface never calls ray.init; this CLI does, like bench.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="crusty_ray crawl engine")
    ap.add_argument("--out", required=True, help="output/checkpoint directory")
    ap.add_argument("--config", default=None, help="yaml config overlay")
    ap.add_argument("--epochs", type=int, default=None, help="epoch horizon")
    ap.add_argument("--resume", action="store_true",
                    help="resume exactly from the latest checkpoint in --out")
    ap.add_argument("--mode", choices=("bsp", "streaming"), default=None,
                    help="override engine.mode (bsp = deterministic epochal "
                         "barriers; streaming = free-running permits)")
    ap.add_argument("--images", action="store_true",
                    help="run the image decode/verify pipeline after the crawl")
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS")
                                or len(os.sched_getaffinity(0))),
                    help="CPUs of a local Ray session (default: "
                         "$RAY_GRAFT_CPUS, else the CPUs this process may "
                         "run on)")
    ap.add_argument("--web-domains", type=int, default=1000,
                    help="synthetic web size (stand-in for live HTTP)")
    args = ap.parse_args(argv)

    from .config import load_config
    from .datagen.webgraph import WebConfig

    cfg = load_config(args.config, os.environ.get("CRUSTY_PROFILE"))
    if args.epochs:
        cfg.engine.max_epochs = args.epochs
    if not cfg.seeds and not args.resume:
        print("no seeds: set CRUSTY_SEEDS or config seeds "
              "(config.rs:283-292 semantics)", file=sys.stderr)
        return 2
    web_cfg = WebConfig(n_domains=args.web_domains)

    import ray
    if not ray.is_initialized():
        # RAY_ADDRESS governs where we run: "local" (this sandbox's preset)
        # starts a private instance; under `ray job submit` it points at the
        # cluster and num_cpus must NOT be passed (the cluster's resources
        # are the cluster's business)
        addr = os.environ.get("RAY_ADDRESS", "local")
        kwargs = {"num_cpus": args.num_cpus} if addr == "local" else {}
        ray.init(address=addr, include_dashboard=False,
                 logging_level="ERROR", **kwargs)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    if args.mode:
        cfg.engine.mode = args.mode
    from .pipelines.crawl import CrawlEngine
    if args.resume:
        eng = CrawlEngine.resume(cfg, web_cfg, args.out, seeds=cfg.seeds)
    else:
        eng = CrawlEngine(cfg, web_cfg, args.out, seeds=cfg.seeds)
    eng.run(args.epochs)

    summary = json.load(open(f"{args.out}/summary.json"))
    if args.images:
        from .pipelines.images import run_image_pipeline
        summary["images"] = run_image_pipeline(
            f"{args.out}/crawl_log", f"{args.out}/images", web_cfg, cfg)
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
