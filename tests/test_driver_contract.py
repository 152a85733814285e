"""Driver-contract conformance: every SQL-checked query must match its DuckDB
oracle on /root/testdata/sf0.01 (row count + sorted value equality — a
stricter local version of the driver's hash compare); rows-only queries must
run and return rows.
"""

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.01"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _duck(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    return con.sql(sql).df()


def _to_df(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint", "Int")):
            df[c] = df[c].astype("int64")
        elif str(df[c].dtype).startswith("float") or str(df[c].dtype) == "object":
            df[c] = df[c].astype("float64")
        else:
            try:
                df[c] = df[c].astype("int64")
            except (TypeError, ValueError):
                df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def contract(ray_session):
    import __ray_entry__ as e
    return e.queries(), e.oracle_sql()


def test_all_oracle_keys_have_queries(contract):
    queries, oracles = contract
    missing = set(oracles) - set(queries)
    assert not missing, f"oracle without query: {missing}"



def test_crawl_faces_lead_the_registry():
    """A caller that samples the first 50 keys of ``queries()`` checks
    every oracled crawl face and ``domain_pagerank``. The pins hold the
    key set and every oracle string fixed across reorderings; a face added
    or changed on purpose updates them."""
    import hashlib
    import json

    import __ray_entry__ as entry

    keys = list(entry.queries())
    oracles = entry.oracle_sql()
    crawl = {k for k in oracles if k.startswith("crawl_")}
    assert len(crawl) == 6
    assert crawl | {"domain_pagerank"} <= set(keys[:50])
    assert hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest() == (
        "7a82048c71af0b9110a995185d594d68902e360a5ef0de7676a79181a0c6cfb5")
    assert hashlib.sha256(json.dumps(oracles, sort_keys=True).encode()
                          ).hexdigest() == (
        "cbff3106f3458a4d0ca56b35d7c59cd2020bea7c74fbc09e2f5cdf63e82a03be")

def test_every_query_is_covered_by_some_check(contract):
    """Completeness guard: every queries() entry must appear in exactly one
    of the check lists below — a new query that lands in none would silently
    skip conformance."""
    queries, _ = contract
    crawl_checked = {"crawl_images", "multimodal_thumbs",
                     "image_exact_dedup", "image_phash_near_dups",
                     "image_dedup_groups", "image_quality_filter",
                     "image_quality_report", "caption_reuse",
                     "image_train_shards", "image_aspect_batches",
                     "image_features", "image_feature_near_dups",
                     "image_channel_stats", "image_patch_grid", "image_augment",
                     "image_text_curation", "webdataset_export",
                     "crawl_log_compact", "audio_features",
                     "video_frame_sample", "video_near_dups",
                     "multimodal_epoch"}
    listed = set(SQL_CHECKED) | set(ROWS_ONLY) | crawl_checked
    assert set(queries) == listed, (
        f"unlisted: {set(queries) - listed}; stale: {listed - set(queries)}")


SQL_CHECKED = [
    "token_stats", "fingerprint_md5", "quality_class", "lang_distribution",
    "exact_dedup", "ngram_jaccard_pairs", "embedding_quant_dedup",
    "ann_quantized", "topk_heavy_hitters", "per_group_budget", "depth_filter",
    "shard_assignment", "segment_order_counts", "event_minute_buckets",
    "pricing_summary", "priority_dequeue",
    "sliding_window_counts", "session_windows", "asof_latest_order",
    "anti_join_customers", "semi_join_events", "global_sort_topn",
    "union_event_classes", "simhash_near_dups", "langid", "bpe_token_count",
    "neardup_components", "doc_dedup_groups",
    "top_docs_per_source", "range_join_prior_events", "order_price_quantiles",
    "sample_stratified", "split_assignment", "build_vocab",
    "price_quantiles_by_priority", "revenue_by_nation",
    "running_order_totals", "lag_event_deltas", "rollup_order_counts",
    "pivot_event_dow", "order_price_quantiles_cont", "doc_top_terms",
    "customer_order_profile", "user_event_sequences",
    "distinct_users_per_type", "price_quantiles_by_priority_cont",
    "props_value_histogram", "users_weekday_and_weekend",
    "normalize_text", "order_price_ntile", "cube_order_counts",
    "label_centroids_quant", "pack_token_chunks", "filter_frequent_tokens",
    "incremental_dedup",
    "price_var_by_priority", "cohort_retention", "funnel_counts",
    "trade_pagerank", "gopher_quality", "decontaminate", "corpus_curation",
    "scrub_pii", "ngram_containment_pairs", "unigram_surprisal",
    "source_quality_gate", "embedding_outliers",
    "duplicated_spans", "source_overlap_matrix", "chunk_documents",
    "pmi_collocations", "inverted_index", "bm25_scores",
    "data_mixture", "dsir_weights", "split_leakage",
    "exact_substr_removal", "nb_classifier", "winnowing_fingerprints",
    "curriculum_order", "hard_negatives", "order_price_quantiles_sketch",
    "price_quantiles_by_priority_sketch", "lineitem_profile",
    "bigram_surprisal", "event_dedup_windowed", "corpus_report",
    "k_anonymity_report", "winnowing_pairs", "global_shuffle_shards",
    "training_manifest", "vocab_growth",
    "minhash_candidates", "minhash_near_dups", "quality_blend_rank",
    "order_event_coverage", "price_winsorized_stats",
    "bloom_join_urgent_items", "dedup_rate_by_source",
    "price_mad_by_priority", "minhash_candidates_capped",
    "token_frequency_spectrum", "lang_confusion", "dedup_canonical",
    "tfidf_cosine_pairs", "stratified_exact_k",
    "event_transitions", "referential_integrity", "temperature_sample",
    "ccnet_ppl_buckets",
    "salted_join_segment_stats", "zorder_events_layout",
    "sorted_neighborhood_pairs", "epoch_shuffle_manifest",
    "part_triangles", "upsert_orders_latest",
    "kcore_parts", "clustering_coefficient",
    "scd2_order_history", "record_linkage_scores", "weighted_doc_sample",
    "decayed_user_activity", "link_prediction_parts",
    "neighborhood_jaccard", "association_rules", "name_linkage",
    "purchase_attribution",
    "user_value_trend", "user_modal_event", "segment_revenue_share",
    "doc_keywords", "langid_eval", "part_random_walks",
    "part_skipgram_pairs",
    "entity_clusters", "part_neighbor_stats", "kmeans_embeddings",
    "ann_ivf_quant", "ann_lsh_md5", "ann_pq_quant", "hybrid_retrieval",
    "pca_power_quant", "zipf_fit", "ann_ivf_append",
    "cms_user_counts", "part_label_spread", "embedding_drift_by_label",
    "purchase_hits", "ivm_segment_totals", "bloom_prune_report",
    "snapshot_diff_orders", "grouped_weighted_sample",
    "quality_rules_report", "price_percent_rank", "spearman_qty_price",
    "sliding_distinct_users", "rolling_median_user_value",
    "event_trigrams", "grouped_split_assignment", "golden_records",
    "source_quota_allocation", "shard_skew_report", "join_size_estimate",
    "event_rate_anomalies", "event_rate_changepoints",
    "langid_margin", "customer_rfm",
    "cohort_value", "order_gap_medians", "zonemap_prune_report",
    "doclen_log_histogram", "user_inactivity_report", "events_gini",
    "length_quantile_normalize", "priority_mix_shift",
    "price_first_digit", "order_size_distribution",
    "revenue_concentration", "session_length_histogram",
    "order_reconciliation", "value_pareto_point",
    "event_rate_autocorr", "weekday_hour_heatmap", "doc_ttr",
    "lang_diversity_by_source", "revenue_by_region",
    "supplier_scorecard", "ship_lag_quantiles",
    "brand_type_matrix", "nation_customer_stats", "hll_registers",
    "embedding_pca", "label_centroids",  # r5 primary promotions
    "approx_distinct_users",  # r5: integer fixed-point HLL estimate
    "semdedup",  # r5: quantized-Lloyd + recursive-CTE greedy
    "domain_pagerank",  # r5: simulator-edge-fixture oracle
    # r5 continuation: KMV sketch, prefix-filter SSJoin, exact kNN graph,
    # chi² discriminative tokens
    "kmv_distinct_by_type", "prefix_jaccard_pairs", "knn_graph",
    "source_token_chi2", "part_two_hop_reach", "mutual_knn_clusters",
    "degree_assortativity", "event_type_user_jaccard",
    "pps_sample_orders",
    # crawl faces — oracle is the reference simulator's expected outputs
    # materialized as parquet (sim/fixture.py), hash-checked like any other
    "crawl_log", "crawl_topk", "crawl_job_metrics",
    "crawl_pages_per_epoch", "crawl_term_breakdown",
    "crawl_politeness_report",
]


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_matches_oracle(contract, name):
    queries, oracles = contract
    ours = _norm(_to_df(queries[name](SF_DIR)))
    oracle = _norm(_duck(oracles[name]))
    assert len(ours) == len(oracle), f"{name}: rows {len(ours)} != {len(oracle)}"
    assert list(ours.columns) == list(oracle.columns), \
        f"{name}: cols {list(ours.columns)} != {list(oracle.columns)}"
    pd.testing.assert_frame_equal(ours, oracle, check_dtype=False,
                                  check_exact=True, obj=name)


ROWS_ONLY = ["approx_distinct_users_float", "label_centroids_float",
             "embedding_pca_float",
             "minhash_candidates_crc32", "minhash_candidates_crc32_capped",
             "minhash_near_dups_crc32",
             "ann_bruteforce", "ann_lsh", "ann_ivf", "ann_pq",
             "embedding_cosine_pairs",
             "crawl_stage_gauges", "crawl_db_metrics", "crawl_streaming_log",
             "compression_ratio", "semdedup_float",
             "bpe_train", "bpe_encode"]


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_queries_run(contract, name):
    queries, _ = contract
    df = _to_df(queries[name](SF_DIR))
    assert df is not None
    assert len(df.columns) > 0


def test_entry_smoke(ray_session):
    import __ray_entry__ as e
    res = e.entry()
    df = _to_df(res)
    assert len(df) > 100
    assert "url" in df.columns and "term_by" in df.columns


def test_crawl_queries_run(contract):
    queries, _ = contract
    for name in ["crawl_images", "multimodal_thumbs", "multimodal_epoch",
                 "image_exact_dedup", "image_phash_near_dups",
                 "image_dedup_groups", "image_quality_filter",
                 "image_quality_report", "caption_reuse",
                 "image_train_shards", "image_aspect_batches",
                 "image_features", "image_feature_near_dups",
                 "image_channel_stats", "image_patch_grid", "image_augment",
                 "crawl_log_compact"]:
        df = _to_df(queries[name](SF_DIR))
        assert df is not None and len(df.columns) > 0, name
        # near-dup pairs / reused captions may legitimately be empty
        if name not in ("image_phash_near_dups", "caption_reuse"):
            assert len(df) > 0, name


def test_crawl_politeness_report_honors_delay_budget(contract, tmp_path):
    """The politeness self-audit must show every multi-epoch domain's
    minimum inter-fetch epoch gap ≥ the configured delay budget (ST3/ST4
    conformance observable from the crawl's own output).

    Runs its own crawl with delay_epochs=2: the shared audit crawl's
    delay of 1 would make the assertion a tautology (distinct epochs
    always differ by ≥ 1), i.e. zero regression coverage for the delay
    gate — this binds."""
    from crusty_ray.config import test_config
    from crusty_ray.datagen.webgraph import WebConfig
    from crusty_ray.pipelines.crawl import CrawlEngine
    from crusty_ray.pipelines.metrics import politeness_report_ds

    queries, _ = contract
    # the registered query runs on the shared audit crawl (rows-only face)
    assert len(_to_df(queries["crawl_politeness_report"](SF_DIR))) > 0

    cfg = test_config()
    cfg.crawl.delay_epochs = 2
    out = str(tmp_path / "crawl")
    CrawlEngine(cfg, WebConfig(n_domains=25, max_pages_per_domain=12),
                out).run(14)
    df = _to_df(politeness_report_ds(f"{out}/crawl_log"))
    multi = df[df["min_epoch_gap"] >= 0]
    assert len(multi) > 0, "no multi-epoch domain in the audit crawl"
    assert int(multi["min_epoch_gap"].min()) >= 2


def test_scrub_pii_planted_hits():
    """The sf corpus is contact-free, so the oracle row only pins the no-op
    path; this planted fixture proves real redaction: counts, sentinel
    replacement order, and md5-of-scrubbed-text parity with DuckDB."""
    import hashlib

    from crusty_ray.ops.text import (_EMAIL_RE_SRC, _PHONE_RE_SRC, scrub_pii)

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["mail bob.smith@example.com or call 555-123-4567 now",
                 "two a@b.co c@d.org and 999-000-1111 123-45-6789",
                 "no contacts at all",
                 None],
    })
    got = scrub_pii(df)
    assert got["n_emails"].tolist() == [1, 2, 0, 0]
    assert got["n_phones"].tolist() == [1, 1, 0, 0]
    want0 = "mail <EMAIL> or call <PHONE> now"
    assert got["clean_md5"][0] == hashlib.md5(want0.encode()).hexdigest()
    # full-frame parity with the oracle's nested regexp_replace
    con = duckdb.connect()
    con.register("docs", df.fillna({"text": ""}))
    oracle = con.sql(f"""
        SELECT doc_id,
               len(regexp_extract_all(text, '{_EMAIL_RE_SRC}'))::BIGINT
                   AS n_emails,
               len(regexp_extract_all(text, '{_PHONE_RE_SRC}'))::BIGINT
                   AS n_phones,
               md5(regexp_replace(regexp_replace(text, '{_EMAIL_RE_SRC}',
                   '<EMAIL>', 'g'), '{_PHONE_RE_SRC}', '<PHONE>', 'g'))
                   AS clean_md5
        FROM docs""").df()
    pd.testing.assert_frame_equal(got.reset_index(drop=True), oracle,
                                  check_dtype=False)


def test_corpus_curation_planted_steps(ray_session, tmp_path):
    """The sf corpus has no short docs, no exact dups and few contaminated
    5-gram spans, so the oracle row exercises the composition only weakly.
    Plant every step's trigger and check the Ray pipeline against the SAME
    oracle SQL over the planted table: quality drop, exact-dedup keeper,
    contamination drop, split assignment."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from crusty_ray.ops.curation import corpus_curation_ds

    bench = "the secret eval answer is forty two indeed"
    dup_text = "a perfectly fine training document with plenty of words ."
    rows = [
        (0, bench, "src0"),                       # benchmark side
        (1, "too short", "src1"),                 # quality 0 -> dropped
        (2, dup_text, "src1"),                    # dedup keeper (min id)
        (3, dup_text, "src2"),                    # exact dup -> dropped
        (4, "prefix " + bench + " suffix", "src1"),  # contaminated -> dropped
        (5, "another clean document long enough to pass the quality gate .",
         "src3"),                                 # survivor
    ]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": [r[1] for r in rows],
        "lang": ["en"] * len(rows),
        "source": [r[2] for r in rows],
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    })
    d = tmp_path / "curation_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = _norm(_to_df(corpus_curation_ds(str(d))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
    oracle = _norm(con.sql(e.oracle_sql()["corpus_curation"]).df())
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False,
                                  check_exact=True)
    # and the hand-derived semantics
    assert sorted(got["doc_id"].tolist()) == [2, 5]
    by_id = got.set_index("doc_id")
    assert int(by_id.loc[2, "n_dups"]) == 2      # the planted dup pair
    assert int(by_id.loc[5, "n_dups"]) == 1


def test_source_quality_gate_planted(ray_session, tmp_path):
    """Whole-site semantics: the short-page farm loses even its long page;
    the good site keeps even its short page."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crusty_ray.ops.curation import source_quality_gate_ds

    rows = [  # farm: mean (10+10+400)/3 = 140 chars < 299; good: 450 >= 299
        (0, "farm", 10), (1, "farm", 10), (2, "farm", 400),
        (3, "good", 800), (4, "good", 100),
    ]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": ["x" * r[2] for r in rows],
        "lang": ["en"] * len(rows),
        "source": [r[1] for r in rows],
        "n_chars": pa.array([r[2] for r in rows], pa.int64()),
    })
    d = tmp_path / "gate_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    got = _to_df(source_quality_gate_ds(str(d))).set_index("doc_id")
    assert got.loc[2, "keep"] == 0   # farm's long page dropped with the site
    assert got.loc[4, "keep"] == 1   # good site's short page kept
    assert got.loc[0, "src_mean_len_mc"] == (1000 * 420) // 3
    assert got.loc[3, "src_mean_len_mc"] == (1000 * 900) // 2

def test_duplicated_spans_planted(ray_session, tmp_path):
    """ExactSubstr semantics on a planted fixture: within-doc repeats count
    toward duplication (doc 1 repeats its own 5-gram), cross-doc shared
    spans mark BOTH documents, unique docs score 0, and sub-n docs report
    zero spans. Checked against the same oracle SQL over the fixture."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from crusty_ray.ops.text import duplicated_spans_ds

    span = "one two three four five"
    rows = [
        (1, f"{span} six seven {span}", "srcA"),        # self-repeat
        (2, f"start {span} end of this document", "srcA"),  # shares w/ 1
        (3, "totally unique words nowhere else repeated today", "srcB"),
        (4, "tiny doc", "srcB"),                        # < n tokens
    ]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": [r[1] for r in rows],
        "lang": ["en"] * len(rows),
        "source": [r[2] for r in rows],
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    })
    d = tmp_path / "dupspan_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = _norm(_to_df(duplicated_spans_ds(str(d))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
    oracle = _norm(con.sql(e.oracle_sql()["duplicated_spans"]).df())
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False,
                                  check_exact=True)
    by = got.set_index("doc_id")
    # doc 1: 12 tokens -> 8 spans; the repeated 5-gram occurs at positions
    # 0 and 7 (count 2 within-doc) and also in doc 2 -> both positions dup
    assert int(by.loc[1, "n_spans"]) == 8
    assert int(by.loc[1, "n_dup_spans"]) == 2
    assert int(by.loc[2, "n_dup_spans"]) == 1
    assert int(by.loc[3, "n_dup_spans"]) == 0
    assert int(by.loc[4, "n_spans"]) == 0 and int(by.loc[4, "dup_span_pm"]) == 0


def test_source_overlap_matrix_planted(ray_session, tmp_path):
    """Mirror-site detection: a verbatim mirror scores 1000 per-mille
    against its original, a disjoint source shares nothing, and the totals
    side-channel yields exact unions. Oracle-checked over the fixture."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from crusty_ray.ops.curation import source_overlap_matrix_ds

    a = "alpha beta gamma delta epsilon zeta"
    rows = [
        (1, a, "orig"), (2, a, "mirror"),
        (3, "totally different words in here now", "other"),
        (4, "alpha beta gamma nothing else shared", "partial"),
    ]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": [r[1] for r in rows],
        "lang": ["en"] * len(rows),
        "source": [r[2] for r in rows],
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    })
    d = tmp_path / "overlap_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = _norm(_to_df(source_overlap_matrix_ds(str(d))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
    oracle = _norm(con.sql(e.oracle_sql()["source_overlap_matrix"]).df())
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False,
                                  check_exact=True)
    key = got.set_index(["source_a", "source_b"])
    assert int(key.loc[("mirror", "orig"), "jaccard_pm"]) == 1000
    assert ("orig", "other") not in key.index  # zero-share pairs absent
    # partial shares exactly the 'alpha beta gamma' 3-gram with orig+mirror
    assert int(key.loc[("orig", "partial"), "shared"]) == 1


def test_chunk_documents_convention(ray_session, tmp_path):
    """Pins the stride-grid convention: starts at every multiple of stride
    below n_tok, trailing window short, overlap = chunk_size - stride, and
    chunk md5s equal the md5 of the exact token span."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    from crusty_ray.ops.text import chunk_documents_ds

    words = [f"w{i}" for i in range(100)]
    t = pa.table({
        "doc_id": pa.array([7], pa.int64()),
        "text": [" ".join(words)],
        "lang": ["en"], "source": ["s"],
        "n_chars": pa.array([599], pa.int64()),
    })
    d = tmp_path / "chunk_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    got = _to_df(chunk_documents_ds(str(d)))  # defaults 64/48
    got = got.sort_values("chunk_idx").reset_index(drop=True)
    assert got["start_tok"].tolist() == [0, 48, 96]
    assert got["n_tokens"].tolist() == [64, 52, 4]
    for _, r in got.iterrows():
        s = int(r["start_tok"])
        want = hashlib.md5(" ".join(words[s:s + 64]).encode()).hexdigest()
        assert r["chunk_md5"] == want


def test_pmi_collocations_planted(ray_session, tmp_path):
    """A planted collocation ("new york" always adjacent) must score far
    above independent filler pairs; oracle-checked over the fixture."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from crusty_ray.ops.text import pmi_collocations_ds

    # per-doc-unique filler: filler bigrams stay under min_count and drop,
    # while "new york" is adjacent in every doc (a constant-sequence filler
    # would itself be a perfect collocation and tie the planted pair)
    rows = [(i, f"new york f{i}a f{i}b f{i}c new york f{i}d f{i}e", "s")
            for i in range(5)]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": [r[1] for r in rows],
        "lang": ["en"] * len(rows),
        "source": [r[2] for r in rows],
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    })
    d = tmp_path / "pmi_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = _norm(_to_df(pmi_collocations_ds(str(d))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
    oracle = _norm(con.sql(e.oracle_sql()["pmi_collocations"]).df())
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False,
                                  check_exact=True)
    # only the planted pair survives min_count; its score is the perfect-
    # collocation statistic 1000*(c_ab-1)*N/(c_a*c_b) = 1000*9*45/100
    assert got[["w1", "w2"]].values.tolist() == [["new", "york"]]
    assert int(got["c_ab"].iloc[0]) == 10
    assert int(got["score_pm"].iloc[0]) == (1000 * 9 * 45) // (10 * 10)


def test_inverted_index_max_df_cap(ray_session, tmp_path):
    """The stop-token cap drops exactly the tokens whose exact corpus df
    exceeds max_df; surviving posting lists are unchanged (byte-identical
    md5 vs the uncapped run)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crusty_ray.ops.text import inverted_index_ds

    rows = [(i, "common " + (f"rare{i} " if i % 2 else "") + "semi", "s")
            for i in range(6)]  # common: df 6, semi: df 6, rare*: df 1
    rows.append((6, "semi only here", "s"))  # semi df 7, only/here df 1
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": [r[1] for r in rows],
        "lang": ["en"] * len(rows),
        "source": [r[2] for r in rows],
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    })
    d = tmp_path / "invidx_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    full = _to_df(inverted_index_ds(str(d))).set_index("token")
    capped = _to_df(inverted_index_ds(str(d), max_df=6)).set_index("token")
    assert int(full.loc["semi", "df"]) == 7
    assert "semi" not in capped.index          # df 7 > cap
    assert "common" in capped.index            # df 6 == cap stays
    surviving = capped.index
    pd.testing.assert_frame_equal(capped.sort_index(),
                                  full.loc[surviving].sort_index())


def test_bm25_ranking_semantics(ray_session, tmp_path):
    """BM25 sanity on a planted corpus: a doc matching the RARE query term
    outscores docs matching only the ubiquitous one, repetition raises tf
    saturatingly, and non-matching docs are omitted."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crusty_ray.ops.text import bm25_scores_ds

    filler = " ".join(["x"] * 20)
    rows = [
        (0, f"needle {filler}", "s"),             # rare hit
        (1, f"needle needle {filler}", "s"),      # rare hit, higher tf
        (2, f"common {filler}", "s"),             # ubiquitous-only hit
        (3, filler, "s"),                         # no hit -> omitted
    ] + [(i, f"common {filler}", "s") for i in range(4, 16)]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": [r[1] for r in rows],
        "lang": ["en"] * len(rows),
        "source": [r[2] for r in rows],
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    })
    d = tmp_path / "bm25_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = _to_df(bm25_scores_ds(str(d), query_terms=("needle", "common"))) \
        .set_index("doc_id")
    assert 3 not in got.index                       # no query term -> absent
    assert int(got.loc[1, "score_mb"]) > int(got.loc[0, "score_mb"])  # tf
    assert int(got.loc[0, "score_mb"]) > int(got.loc[2, "score_mb"])  # idf


def test_dsir_weights_planted(ray_session, tmp_path):
    """DSIR direction check on a planted fixture: docs written in the
    target source's vocabulary must out-score docs written in the raw
    vocabulary, and the face stays oracle-exact over the fixture."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from crusty_ray.ops.text import dsir_weights_ds

    tgt_text = "alpha beta gamma delta " * 8
    raw_text = "umber vole wren xylem " * 8
    rows = ([(i, tgt_text.strip(), "src0") for i in range(4)]
            + [(i, raw_text.strip(), "src1") for i in range(4, 12)]
            # probe docs in OTHER sources, one per vocabulary
            + [(12, tgt_text.strip(), "src2"), (13, raw_text.strip(), "src2"),
               (14, "", "src2")])
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": [r[1] for r in rows],
        "lang": ["en"] * len(rows),
        "source": [r[2] for r in rows],
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    })
    d = tmp_path / "dsir_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = _norm(_to_df(dsir_weights_ds(str(d))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
    oracle = _norm(con.sql(e.oracle_sql()["dsir_weights"]).df())
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False,
                                  check_exact=True)
    by_id = got.set_index("doc_id")
    # target-vocabulary probe scores strictly above the raw-vocabulary probe
    assert int(by_id.loc[12, "score_bits"]) > int(by_id.loc[13, "score_bits"])
    # and the raw probe is negative (its features are rare under the target)
    assert int(by_id.loc[13, "score_bits"]) < 0
    # empty doc scores (0, 0) but is present (LEFT-complete face)
    assert int(by_id.loc[14, "n_feats"]) == 0
    assert int(by_id.loc[14, "score_bits"]) == 0


def test_split_leakage_planted(ray_session, tmp_path):
    """A doc that exactly duplicates another must be flagged iff its dedup
    group crosses into train; oracle-exact over the fixture."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from crusty_ray.ops.curation import split_leakage_ds
    from crusty_ray.ops.analog import md5_shard

    # choose ids so we KNOW their split buckets, then plant duplicates
    ids = list(range(200))
    b = md5_shard(pd.Series([str(i) for i in ids]), 1000)
    train_ids = [i for i, x in zip(ids, b) if x < 900]
    test_ids = [i for i, x in zip(ids, b) if x >= 950]
    assert train_ids and test_ids
    dup_train, dup_test = train_ids[0], test_ids[0]
    clean_test = test_ids[1]
    texts = {i: f"unique filler u{i}a u{i}b u{i}c u{i}d" for i in ids}
    texts[dup_test] = texts[dup_train]          # planted exact cross-split dup
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": [texts[i] for i in ids],
        "lang": ["en"] * len(ids),
        "source": ["s"] * len(ids),
        "n_chars": pa.array([len(texts[i]) for i in ids], pa.int64()),
    })
    d = tmp_path / "leak_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = _norm(_to_df(split_leakage_ds(str(d))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
    oracle = _norm(con.sql(e.oracle_sql()["split_leakage"]).df())
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False,
                                  check_exact=True)
    by_id = got.set_index("doc_id")
    assert int(by_id.loc[dup_test, "leaked"]) == 1      # contaminated
    assert int(by_id.loc[clean_test, "leaked"]) == 0    # clean held-out
    assert int(by_id.loc[dup_train, "leaked"]) == 0     # train never flagged
    assert int(by_id.loc[dup_test, "canonical_id"]) == \
        min(dup_train, dup_test)


def test_exact_substr_removal_planted(ray_session, tmp_path):
    """Planted fixture: a 5-gram shared across two docs is removed from
    BOTH; a within-doc repeat is removed; unique text survives untouched."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from crusty_ray.ops.text import exact_substr_removal_ds

    shared = "one two three four five"
    texts = {
        0: f"alpha {shared} beta",            # cross-doc dup in the middle
        1: f"{shared} gamma delta",           # same dup at the start
        2: "w1 w2 w3 w4 w5 w6 w1 w2 w3 w4 w5 w6",  # within-doc repeat
        3: "all unique tokens here nothing shared at",
        4: "tiny doc",                        # shorter than n -> untouched
        5: "",                                # empty text -> untouched
    }
    ids = sorted(texts)
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": [texts[i] for i in ids],
        "lang": ["en"] * len(ids),
        "source": ["s"] * len(ids),
        "n_chars": pa.array([len(texts[i]) for i in ids], pa.int64()),
    })
    d = tmp_path / "substr_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = _norm(_to_df(exact_substr_removal_ds(str(d))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
    oracle = _norm(con.sql(e.oracle_sql()["exact_substr_removal"]).df())
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False,
                                  check_exact=True)

    def h(s):
        return hashlib.md5(s.encode()).hexdigest()

    by_id = got.set_index("doc_id")
    assert by_id.loc[0, "kept_md5"] == h("alpha beta")
    assert int(by_id.loc[0, "n_removed"]) == 5
    assert by_id.loc[1, "kept_md5"] == h("gamma delta")
    # within-doc repeat: every position's 5-gram recurs (period-6 text
    # repeated twice), so the whole doc is removed
    assert by_id.loc[2, "kept_md5"] == h("")
    assert int(by_id.loc[2, "n_removed"]) == 12
    assert by_id.loc[3, "kept_md5"] == h(texts[3])
    assert int(by_id.loc[3, "n_removed"]) == 0
    assert by_id.loc[4, "kept_md5"] == h("tiny doc")
    assert by_id.loc[5, "kept_md5"] == h("")
    assert int(by_id.loc[5, "n_tokens"]) == 1  # [''] convention


def test_exact_substr_removal_skewed(ray_session, tmp_path):
    """Hot-gram skew: one 5-gram shared by EVERY doc lands all its
    occurrences in a single gram partition — the op must stay correct
    (oracle-exact) with per-doc output still bounded by doc length."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from crusty_ray.ops.text import exact_substr_removal_ds

    hot = "h1 h2 h3 h4 h5"
    ids = list(range(200))
    texts = {i: f"u{i}a u{i}b {hot} u{i}c u{i}d" for i in ids}
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": [texts[i] for i in ids],
        "lang": ["en"] * len(ids),
        "source": ["s"] * len(ids),
        "n_chars": pa.array([len(texts[i]) for i in ids], pa.int64()),
    })
    d = tmp_path / "skew_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = _norm(_to_df(exact_substr_removal_ds(str(d))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
    oracle = _norm(con.sql(e.oracle_sql()["exact_substr_removal"]).df())
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False,
                                  check_exact=True)
    # every doc lost exactly the hot span (5 tokens), kept its unique ends
    assert (got["n_removed"] == 5).all()
    assert len(got) == len(ids)


def test_nb_classifier_planted(ray_session, tmp_path):
    """On a fixture with a REAL token<->label signal the trained NB must
    recover the labels (the shared sf corpus has none by construction);
    oracle-exact over the fixture."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from crusty_ray.ops.text import nb_classifier_ds

    # class-specific vocabulary with a little shared noise
    def mk(lang, i):
        core = {"en": "cat dog cat bird", "fr": "chat chien chat oiseau",
                "de": "katze hund katze vogel"}[lang]
        return f"{core} common{i % 3} filler"

    rows = [(i, lang) for i, lang in
            enumerate(["en", "fr", "de"] * 20)]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": [mk(r[1], r[0]) for r in rows],
        "lang": [r[1] for r in rows],
        "source": ["s"] * len(rows),
        "n_chars": pa.array([len(mk(r[1], r[0])) for r in rows], pa.int64()),
    })
    d = tmp_path / "nb_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = _norm(_to_df(nb_classifier_ds(str(d))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
    oracle = _norm(con.sql(e.oracle_sql()["nb_classifier"]).df())
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False,
                                  check_exact=True)
    truth = dict(rows)
    pred = got.set_index("doc_id")["pred_label"]
    acc = sum(pred[i] == truth[i] for i in pred.index) / len(pred)
    assert acc == 1.0, f"NB failed to learn a clean signal: acc={acc}"


def test_winnowing_planted(ray_session, tmp_path):
    """The winnowing guarantee: two docs sharing a run of w+k-1 (=6) tokens
    share at least one fingerprint; repeated grams exercise the
    rightmost-tie rule; short docs emit nothing; oracle-exact."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from crusty_ray.ops.text import winnowing_fingerprints_ds

    shared = "s1 s2 s3 s4 s5 s6"           # w+k-1 = 6 shared tokens
    texts = {
        0: f"pre1 pre2 {shared} post1 post2",
        1: f"{shared} other tail tokens here",
        2: "a b c a b c a b c a b c",      # tied gram hashes in-window
        3: "too short",                     # < k+w-1 -> no fingerprints
        4: "u1 u2 u3 u4 u5 u6 u7 u8",
    }
    ids = sorted(texts)
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": [texts[i] for i in ids],
        "lang": ["en"] * len(ids),
        "source": ["s"] * len(ids),
        "n_chars": pa.array([len(texts[i]) for i in ids], pa.int64()),
    })
    d = tmp_path / "winnow_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = _norm(_to_df(winnowing_fingerprints_ds(str(d))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
    oracle = _norm(con.sql(e.oracle_sql()["winnowing_fingerprints"]).df())
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False,
                                  check_exact=True)

    fps = {i: set(got.loc[got["doc_id"] == i, "fp_md5"]) for i in ids}
    assert fps[0] & fps[1], "shared 6-token run must share a fingerprint"
    assert not fps[3], "doc shorter than k+w-1 emits nothing"
    assert fps[2] and fps[4]
    # density: ~2/(w+1) of grams, never more than the window count
    n_grams_4 = len(texts[4].split()) - 2
    assert len(got[got["doc_id"] == 4]) <= n_grams_4 - 3


def test_bigram_surprisal_planted(ray_session, tmp_path):
    """Edge cases the sf tables may not cover: empty text, one-token doc
    (no bigram -> 0s, LEFT-complete), repeated bigrams, and a frequent
    pair scoring fewer bits than a rare one; oracle-exact."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from crusty_ray.ops.text import bigram_surprisal_ds

    texts = {0: "", 1: "solo", 2: "a b a b a b",
             3: "a b", 4: "x y", 5: "a b a b"}
    ids = sorted(texts)
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": [texts[i] for i in ids],
        "lang": ["en"] * len(ids),
        "source": ["s"] * len(ids),
        "n_chars": pa.array([len(texts[i]) for i in ids], pa.int64()),
    })
    d = tmp_path / "bigram_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = _norm(_to_df(bigram_surprisal_ds(str(d))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
    oracle = _norm(con.sql(e.oracle_sql()["bigram_surprisal"]).df())
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False,
                                  check_exact=True)
    by_id = got.set_index("doc_id")
    assert len(got) == len(ids)                      # LEFT-complete
    assert by_id.loc[0].tolist() == [0, 0, 0]        # empty text
    assert by_id.loc[1].tolist() == [0, 0, 0]        # one token
    assert int(by_id.loc[2, "n_bigrams"]) == 5
    # the frequent pair (a,b) carries fewer bits than the singleton (x,y)
    ab = int(by_id.loc[3, "mean_millibits"])
    xy = int(by_id.loc[4, "mean_millibits"])
    assert ab < xy


def test_curriculum_order_planted(ray_session, tmp_path):
    """Ranks are a permutation 0..n-1, ordered easy->hard by surprisal
    with doc_id tie-break; a doc of common tokens ranks before a doc of
    rare ones; oracle-exact."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from crusty_ray.ops.curation import curriculum_order_ds

    # 'ez' appears everywhere (low surprisal); rareN tokens appear once
    texts = {i: f"ez ez ez ez ez" for i in range(6)}
    texts[6] = "rare1 rare2 rare3 rare4 rare5"      # hardest
    texts[7] = "ez ez rare6 rare7 ez"               # middling
    ids = sorted(texts)
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": [texts[i] for i in ids],
        "lang": ["en"] * len(ids),
        "source": ["s"] * len(ids),
        "n_chars": pa.array([len(texts[i]) for i in ids], pa.int64()),
    })
    d = tmp_path / "curr_fixture"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = _norm(_to_df(curriculum_order_ds(str(d))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
    oracle = _norm(con.sql(e.oracle_sql()["curriculum_order"]).df())
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False,
                                  check_exact=True)

    by_id = got.set_index("doc_id")
    assert sorted(got["rank"]) == list(range(len(ids)))  # total permutation
    assert int(by_id.loc[6, "rank"]) == len(ids) - 1     # hardest last
    assert int(by_id.loc[7, "rank"]) == len(ids) - 2     # middling next
    # the six identical easy docs tie on difficulty -> doc_id order
    easy = by_id.loc[range(6), "rank"].tolist()
    assert easy == sorted(easy) == list(range(6))
