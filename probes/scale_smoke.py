"""Scale smokes for the contract ops: replicated sf tables, exact checks.

Each leg runs a family of ops end to end over tables 20-100x the sf0.1
(or sf0.01) fixtures and checks what survives replication exactly: output
cardinalities, per-group counts that must scale by the replica count, or
the same DuckDB oracle the driver contract runs. Every op ships only slim
partials / O(groups) tables to the driver, so each line also reports the
driver maxRSS, which must stay flat across a leg.

Corpora (built once under ``/tmp/scale_smoke``, reused by later runs):

- documents: 100 salted replicas of sf0.1 (500k docs, ~58 MB). Each
  replica appends one replica-unique token, so every original 5-gram is a
  corpus-wide duplicate: the worst case for the dup-decision partitions.
- facts: 20 key-strided replicas of sf0.1 orders / lineitem / events /
  customer. One stride per key (orderkey; custkey = user_id) across all
  four tables, so every replica joins only itself and contributes exactly
  the base join matches.
- embeddings: 200k x 64 synthetic vectors (16 planted centers).
- leg ``session_t`` replicates the sf0.01 contract fixture instead
  (embeddings 100x, documents 20x) and compares against the oracles.

Legs:

- ``text_ops``: exact_substr_removal, bigram_surprisal (one row per doc).
  split_leakage is deliberately absent: its Jaccard-component stage is
  pair-quadratic in docs-per-gram, and this fixture's 31-token vocabulary
  makes nearly every document pair a candidate.
- ``session_m``: quality blend, dedup rate, bloom join (exact 20x per-flag
  counts), order/event coverage, winsorized and MAD price stats.
- ``session_p``: sorted-neighborhood pairs (exactly 2n-3 at window 2),
  epoch shuffle manifest, salted join (exact 20x per segment), z-order
  layout, part triangles, order upserts.
- ``session_q``: Fellegi-Sunter linkage, weighted sampling, TF-IDF
  keywords, name linkage, OLS trend, modal event, decayed activity,
  purchase attribution, k-core, link prediction.
- ``session_r``: k-means, Count-Min (est >= exact for every user), entity
  resolution, neighbor stats (degree sum = 2x edges), label spread.
- ``session_s``: snapshot diff (I/U/D counts from key arithmetic), quality
  rules, percent rank, rolling median, sliding distinct users, event
  trigrams, inactivity, Gini, RFM, and a 2,000-clip video near-dup sweep.
- ``session_t``: ann_ivf_quant, ann_lsh_md5, ann_pq_quant,
  hybrid_retrieval, each bit-exact against its DuckDB oracle at 100x.

Measured at 32 cpus (2026-08): exact_substr_removal 156 s and
bigram_surprisal 276 s at 500k docs; quality_blend_rank 14.6 s; bloom join
9.2 s at 12M lineitems; driver maxRSS flat at 0.3-0.5 GB in every leg.

Run: PYTHONPATH=. python probes/scale_smoke.py <leg> [<leg> ...]
Prints one line per op and ``ALL OK`` or ``FAILURES`` per leg.
"""

import functools
import os
import resource
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import duckdb
import ray

SF = "/root/testdata/sf0.1"
SF_SMALL = "/root/testdata/sf0.01"
ROOT = "/tmp/scale_smoke"
DOC_REPLICAS = 100
FACT_REPLICAS = 20
EMB_N = 200_000
EMB_DIM = 64
T_EMB_REPLICAS = 100
T_DOC_REPLICAS = 20
# directories keyed on the replica counts: editing one can't silently
# reuse a stale corpus
DOCS = f"{ROOT}/docs_x{DOC_REPLICAS}"
FACTS = f"{ROOT}/facts_x{FACT_REPLICAS}"
EMBS = f"{ROOT}/emb{EMB_N}"
T_DIR = f"{ROOT}/contract_x{T_EMB_REPLICAS}"


def rss_gb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6


def count(sql):
    return duckdb.sql(sql).fetchone()[0]


# ---------------------------------------------------------------- corpora

def _replicate(src_dir, out_dir, table, replicas, strides):
    """Key-strided replication: replica k adds ``k * stride`` to each key
    column in ``strides``, so ids stay unique and replica 0 is the base
    table verbatim."""
    path = f"{out_dir}/{table}.parquet"
    if os.path.exists(path):
        return
    os.makedirs(out_dir, exist_ok=True)
    src = pq.read_table(f"{src_dir}/{table}.parquet")
    pq.write_table(pa.concat_tables(
        pa.table({n: (pc.add(src[n], k * strides[n]) if n in strides
                      else src[n]) for n in src.column_names})
        for k in range(replicas)), path)


def build_docs():
    dst = f"{DOCS}/documents.parquet"
    if os.path.exists(dst):
        return
    os.makedirs(DOCS, exist_ok=True)
    t = pq.read_table(f"{SF}/documents.parquet")
    n = t.num_rows
    frames = []
    for k in range(DOC_REPLICAS):
        # one replica-unique trailing token: originals' grams now repeat
        # corpus-wide; the tail gram stays unique per replica
        texts = [f"{x} rep{k}tail" for x in t["text"].to_pylist()]
        frames.append(pa.table({
            "doc_id": pc.add(t["doc_id"], k * n), "text": texts,
            "lang": t["lang"], "source": t["source"],
            "n_chars": t["n_chars"]}))
    pq.write_table(pa.concat_tables(frames), dst)


def build_facts():
    def key_max(table, col):
        return count(f"SELECT max({col}) FROM read_parquet('{SF}/{table}.parquet')")

    ok = key_max("orders", "o_orderkey") + 1
    ck = max(key_max("orders", "o_custkey"), key_max("events", "user_id"),
             key_max("customer", "c_custkey")) + 1
    ev = key_max("events", "event_id") + 1
    for table, strides in [
            ("orders", {"o_orderkey": ok, "o_custkey": ck}),
            ("lineitem", {"l_orderkey": ok}),
            ("events", {"user_id": ck, "event_id": ev}),
            ("customer", {"c_custkey": ck})]:
        _replicate(SF, FACTS, table, FACT_REPLICAS, strides)


def build_embeddings():
    path = f"{EMBS}/embeddings.parquet"
    if os.path.exists(path):
        return
    os.makedirs(EMBS, exist_ok=True)
    rng = np.random.RandomState(11)
    # 16 planted cluster centers + noise, L2-normalized like the sf tables
    centers = rng.randn(16, EMB_DIM)
    mat = (centers[rng.randint(0, 16, EMB_N)]
           + 0.3 * rng.randn(EMB_N, EMB_DIM)).astype(np.float32)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(EMB_N, dtype=np.int64)),
        "embedding": pa.array(list(mat), type=pa.list_(pa.float32())),
        "label": pa.array(np.zeros(EMB_N, dtype=np.int32)),
    }), path)


# ---------------------------------------------------------------- checker

def check_op(checks, name, fn, check):
    """Time ``fn`` (a Dataset or frame is materialized to pandas; an int
    is a row count), then append ``check`` on its result to ``checks``."""
    t0, r0 = time.time(), rss_gb()
    res = fn()
    if hasattr(res, "to_pandas"):
        res = res.to_pandas()
    wall = time.time() - t0
    ok = bool(check(res))
    checks.append(ok)
    rows = res if isinstance(res, int) else len(res)
    print(f"{name}: {wall:.1f}s rows={rows} maxRSS={rss_gb():.2f}GB "
          f"(start {r0:.2f}) {'OK' if ok else 'FAIL'}", flush=True)


# ---------------------------------------------------------------- legs

def leg_text_ops(run):
    from crusty_ray.ops.text import (bigram_surprisal_ds,
                                     exact_substr_removal_ds)
    n_docs = count(f"SELECT count(*) FROM read_parquet('{DOCS}/documents.parquet')")
    for name, fn in [("exact_substr_removal", exact_substr_removal_ds),
                     ("bigram_surprisal", bigram_surprisal_ds)]:
        run(f"{name} ({n_docs} docs)", lambda: fn(DOCS).count(),
            lambda rows: rows == n_docs)


def leg_session_m(run):
    from crusty_ray.ops import joins, quantiles, text
    from crusty_ray.ops.curation import quality_blend_rank_ds

    base = duckdb.sql(f"""
        SELECT l.l_returnflag, count(*) n FROM
        read_parquet('{SF}/lineitem.parquet') l
        JOIN (SELECT DISTINCT o_orderkey FROM
              read_parquet('{SF}/orders.parquet')
              WHERE o_orderpriority='1-URGENT') o
        ON l.l_orderkey = o.o_orderkey GROUP BY 1 ORDER BY 1""").df()
    n_docs = count(f"SELECT count(*) FROM read_parquet('{DOCS}/documents.parquet')")
    run(f"quality_blend_rank ({n_docs} docs)",
        lambda: quality_blend_rank_ds(DOCS),
        lambda df: len(df) == n_docs)
    run(f"dedup_rate_by_source ({n_docs} docs)",
        lambda: text.dedup_rate_by_source_ds(DOCS),
        lambda df: len(df) == 20 and int(df["n_docs"].sum()) == n_docs)
    run(f"bloom_join_urgent_items ({FACT_REPLICAS}x lineitem)",
        lambda: joins.bloom_join_urgent_items_ds(FACTS, capacity=1 << 21),
        lambda df: df.sort_values("l_returnflag")["n_items"].tolist()
        == (base["n"] * FACT_REPLICAS).tolist())
    run(f"order_event_coverage ({FACT_REPLICAS}x orders+events)",
        lambda: joins.order_event_coverage_ds(FACTS),
        lambda df: len(df) > 0 and len(df) % FACT_REPLICAS == 0)
    run(f"price_winsorized_stats ({FACT_REPLICAS}x orders)",
        lambda: quantiles.price_winsorized_stats_ds(FACTS),
        lambda df: len(df) == 5)
    run(f"price_mad_by_priority ({FACT_REPLICAS}x orders)",
        lambda: quantiles.price_mad_by_priority_ds(FACTS),
        lambda df: len(df) == 5)


def leg_session_p(run):
    from crusty_ray.ops.analytic import upsert_orders_latest_ds
    from crusty_ray.ops.dedup import sorted_neighborhood_pairs_ds
    from crusty_ray.ops.graph import part_triangles_ds
    from crusty_ray.ops.joins import salted_join_segment_stats_ds
    from crusty_ray.ops.pack import (epoch_shuffle_manifest_ds,
                                     zorder_events_layout_ds)

    n_docs = count(f"SELECT count(*) FROM read_parquet('{DOCS}/documents.parquet')")
    base = duckdb.sql(f"""
        SELECT c_mktsegment, count(*) n
        FROM read_parquet('{SF}/events.parquet') e
        JOIN read_parquet('{SF}/customer.parquet') c
          ON e.user_id = c.c_custkey
        GROUP BY 1 ORDER BY 1""").df()
    n_events = count(f"SELECT count(*) FROM read_parquet('{FACTS}/events.parquet')")
    n_orders = count(f"SELECT count(*) FROM read_parquet('{SF}/orders.parquet')")

    run(f"sorted_neighborhood_pairs ({n_docs} docs)",
        lambda: sorted_neighborhood_pairs_ds(DOCS),
        lambda df: len(df) == 2 * n_docs - 3)
    run(f"epoch_shuffle_manifest ({n_docs} docs x 2 epochs)",
        lambda: epoch_shuffle_manifest_ds(DOCS, n_epochs=2),
        lambda df: len(df) == 2 * n_docs
        and df.groupby("epoch")["shuffle_rank"].max().eq(n_docs - 1).all())
    run(f"salted_join_segment_stats ({FACT_REPLICAS}x events+customer)",
        lambda: salted_join_segment_stats_ds(FACTS),
        lambda df: df.sort_values("c_mktsegment")["n_events"].tolist()
        == (base["n"] * FACT_REPLICAS).tolist())
    run(f"zorder_events_layout ({FACT_REPLICAS}x events)",
        lambda: zorder_events_layout_ds(FACTS),
        lambda df: int(df["n_rows"].sum()) == n_events)
    run("part_triangles (sf0.1 co-purchase graph)",
        lambda: part_triangles_ds(SF),
        lambda df: len(df) > 0 and (df["n_triangles"] > 0).all())
    run("upsert_orders_latest (sf0.1 orders)",
        lambda: upsert_orders_latest_ds(SF),
        lambda df: len(df) == n_orders
        and int(df["n_versions"].max()) == 3)


def leg_session_q(run):
    from crusty_ray.ops.behavior import (decayed_user_activity_ds,
                                         purchase_attribution_ds)
    from crusty_ray.ops.graph import kcore_parts_ds, link_prediction_parts_ds
    from crusty_ray.ops.linkage import (name_linkage_ds,
                                        record_linkage_scores_ds)
    from crusty_ray.ops.sample import weighted_doc_sample_ds
    from crusty_ray.ops.stats import user_modal_event_ds, user_value_trend_ds
    from crusty_ray.ops.text import doc_keywords_ds

    n_docs = count(f"SELECT count(*) FROM read_parquet('{DOCS}/documents.parquet')")
    n_cust = count(f"SELECT count(*) FROM read_parquet('{FACTS}/customer.parquet')")
    n_users_sf = count(f"SELECT count(DISTINCT user_id) FROM "
                       f"read_parquet('{SF}/events.parquet')")
    n_purch_sf = count(f"SELECT count(*) FROM read_parquet('{SF}/events.parquet') "
                       f"WHERE event_type = 'purchase'")

    run(f"record_linkage_scores ({n_docs} docs)",
        lambda: record_linkage_scores_ds(DOCS),
        lambda df: len(df) == 2 * n_docs - 3
        and set(df["decision"].unique()) <= {"match", "possible",
                                             "non_match"})
    run(f"weighted_doc_sample ({n_docs} docs)",
        lambda: weighted_doc_sample_ds(DOCS),
        lambda df: len(df) == 100
        and sorted(df["rnk"]) == list(range(1, 101)))
    run(f"doc_keywords ({n_docs} docs)",
        lambda: doc_keywords_ds(DOCS),
        lambda df: len(df) <= 3 * n_docs and df["rn"].isin([1, 2, 3]).all()
        and (df["weight"] > 0).all())
    run(f"name_linkage ({n_cust} customers = {FACT_REPLICAS}x)",
        lambda: name_linkage_ds(FACTS),
        lambda df: len(df) == 2 * n_cust - 3
        and (df["name_distance"] >= 0).all())
    run(f"user_value_trend ({FACT_REPLICAS}x events)",
        lambda: user_value_trend_ds(FACTS),
        lambda df: len(df) == FACT_REPLICAS * n_users_sf)
    run(f"user_modal_event ({FACT_REPLICAS}x events)",
        lambda: user_modal_event_ds(FACTS),
        lambda df: len(df) == FACT_REPLICAS * n_users_sf)
    run(f"decayed_user_activity ({FACT_REPLICAS}x events)",
        lambda: decayed_user_activity_ds(FACTS),
        lambda df: len(df) == 50
        and df["decay_score"].is_monotonic_decreasing)
    run(f"purchase_attribution ({FACT_REPLICAS}x events)",
        lambda: purchase_attribution_ds(FACTS),
        lambda df: len(df) == FACT_REPLICAS * n_purch_sf)
    run("kcore_parts (sf0.1 co-purchase graph)",
        lambda: kcore_parts_ds(SF),
        lambda df: len(df) > 0 and (df["core_degree"] >= 1).all())
    run("link_prediction_parts (sf0.1 support-2 graph)",
        lambda: link_prediction_parts_ds(SF),
        lambda df: len(df) == 50
        and df["common_neighbors"].is_monotonic_decreasing)


def leg_session_r(run):
    from crusty_ray.ops.graph import (part_cosupport_edges,
                                      part_label_spread_ds,
                                      part_neighbor_stats_ds)
    from crusty_ray.ops.linkage import entity_clusters_ds
    from crusty_ray.ops.similarity import kmeans_embeddings_ds
    from crusty_ray.ops.sketch import cms_user_counts_ds

    n_docs = count(f"SELECT count(*) FROM read_parquet('{DOCS}/documents.parquet')")
    n_events = count(f"SELECT count(*) FROM read_parquet('{FACTS}/events.parquet')")
    n_edges = part_cosupport_edges(SF).count()
    n_seeds = count(f"SELECT count(*) FROM read_parquet('{SF}/part.parquet') "
                    f"WHERE p_partkey % 5 = 0")

    run(f"kmeans_embeddings ({EMB_N} x {EMB_DIM} vectors, k=8, 2 rounds)",
        lambda: kmeans_embeddings_ds(EMBS),
        lambda df: len(df) == EMB_N and df["cluster"].between(0, 7).all()
        and (df["d2"] >= 0).all())
    run(f"cms_user_counts ({n_events} events = {FACT_REPLICAS}x)",
        lambda: cms_user_counts_ds(FACTS),
        lambda df: (df["cms_est"] >= df["exact_n"]).all()
        and int(df["exact_n"].sum()) == n_events)
    run(f"entity_clusters ({n_docs} docs)",
        lambda: entity_clusters_ds(DOCS),
        lambda df: len(df) == n_docs and (df["entity_size"] >= 1).all()
        and (df["entity_id"] <= df["doc_id"]).all())
    run(f"part_neighbor_stats (sf0.1 graph, {n_edges} edges)",
        lambda: part_neighbor_stats_ds(SF),
        lambda df: int(df["degree"].sum()) == 2 * n_edges
        and (df["max_nb_cents"] >= df["avg_nb_cents"]).all())
    run(f"part_label_spread (sf0.1 graph, {n_seeds} seeds)",
        lambda: part_label_spread_ds(SF),
        lambda df: (df["assigned_round"] == 0).sum() == n_seeds
        and df["assigned_round"].isin([0, 1, 2]).all())


def leg_session_s(run):
    from crusty_ray.codecs.av import synth_video_overlapping
    from crusty_ray.ops.analytic import (customer_rfm_ds,
                                         price_percent_rank_ds,
                                         rolling_median_user_value_ds,
                                         snapshot_diff_orders_ds)
    from crusty_ray.ops.behavior import (event_trigrams_ds,
                                         user_inactivity_report_ds)
    from crusty_ray.ops.multimodal import video_phash_near_dups
    from crusty_ray.ops.stats import events_gini_ds, quality_rules_ds
    from crusty_ray.ops.windows import sliding_distinct_users_ds

    k = pq.read_table(f"{FACTS}/orders.parquet",
                      columns=["o_orderkey"])["o_orderkey"] \
        .to_numpy(zero_copy_only=False)
    n_orders = len(k)
    exp_u = int(((k % 7 == 0) & (k % 13 != 0) & (k % 1000 != 0)).sum())
    exp_d = int((k % 13 == 0).sum())
    exp_i = int((k % 11 == 0).sum())
    events = f"read_parquet('{FACTS}/events.parquet')"
    n_events = count(f"SELECT count(*) FROM {events}")
    n_users = count(f"SELECT count(DISTINCT user_id) FROM {events}")
    n_cust = count(f"SELECT count(DISTINCT o_custkey) FROM "
                   f"read_parquet('{FACTS}/orders.parquet')")
    exp_tri = count(f"SELECT sum(greatest(c - 2, 0)) FROM (SELECT count(*) "
                    f"AS c FROM {events} GROUP BY user_id)")
    sf_hours = count(
        f"SELECT count(DISTINCT CAST(floor(epoch(ts)) AS BIGINT) // 3600) "
        f"FROM read_parquet('{SF}/events.parquet')")
    viol_1x = count(
        f"SELECT sum(CASE WHEN o_orderdate >= TIMESTAMP '2001-01-01' "
        f"THEN 1 ELSE 0 END) FROM read_parquet('{SF}/orders.parquet')")

    run(f"snapshot_diff_orders ({n_orders} orders = {FACT_REPLICAS}x)",
        lambda: snapshot_diff_orders_ds(FACTS),
        lambda df: (df["change"] == "U").sum() == exp_u
        and (df["change"] == "D").sum() == exp_d
        and (df["change"] == "I").sum() == exp_i)
    run(f"quality_rules_report ({n_orders} orders = {FACT_REPLICAS}x)",
        lambda: quality_rules_ds(FACTS),
        lambda df: (df["n_checked"] == n_orders).all()
        and int(df.set_index("rule_name").loc["orderkey_unique",
                                              "n_violations"]) == 0
        and int(df.set_index("rule_name").loc["orderdate_before_2001",
                                              "n_violations"])
        == FACT_REPLICAS * viol_1x)
    run(f"price_percent_rank ({n_orders} orders = {FACT_REPLICAS}x)",
        lambda: price_percent_rank_ds(FACTS),
        lambda df: len(df) == n_orders
        and df.groupby("o_orderpriority")["pct_pm"].max().eq(1000).all()
        and df["pct_pm"].between(0, 1000).all())
    run(f"rolling_median_user_value ({n_events} events = {FACT_REPLICAS}x)",
        lambda: rolling_median_user_value_ds(FACTS),
        lambda df: len(df) == n_events
        and df["roll_med_cents"].between(df["cents"].min(),
                                         df["cents"].max()).all())
    # replicas add users, not hours: the hour set is sf0.1's
    run(f"sliding_distinct_users ({n_events} events = {FACT_REPLICAS}x)",
        lambda: sliding_distinct_users_ds(FACTS),
        lambda df: len(df) == sf_hours and (df["n_users"] >= 1).all())
    run(f"event_trigrams ({n_events} events = {FACT_REPLICAS}x)",
        lambda: event_trigrams_ds(FACTS),
        lambda df: int(df["n"].sum()) == int(exp_tri))
    run(f"user_inactivity_report ({n_users} users = {FACT_REPLICAS}x)",
        lambda: user_inactivity_report_ds(FACTS),
        lambda df: len(df) == n_users and (df["idle_hours"] >= 0).all()
        and (df["idle_hours"] == 0).any())
    run(f"events_gini ({n_events} events = {FACT_REPLICAS}x)",
        lambda: events_gini_ds(FACTS),
        lambda df: len(df) == 1 and int(df["n_users"][0]) == n_users
        and int(df["total_events"][0]) == n_events
        and 0 <= int(df["gini_pm"][0]) <= 1000)
    run(f"customer_rfm ({n_orders} orders, {n_cust} customers)",
        lambda: customer_rfm_ds(FACTS),
        lambda df: len(df) == n_cust
        and df["r_score"].between(1, 5).all()
        and df["rfm"].between(111, 555).all())

    # 500 bases x 4 copies shifted by 2 frames, 6 sampled even frames:
    # copies 1 and 2 apart share >= 4 frames, 3 apart share 3 < 4, so
    # 5 of the C(4,2) pairs per base survive min_shared=4
    n = 2000
    clips = pa.table({
        "video_id": pa.array(np.arange(n, dtype=np.int64)),
        "bytes": pa.array([synth_video_overlapping(i, base_mod=500)
                           for i in range(n)], pa.binary())})
    run(f"video_near_dups ({n} clips = ~40x)",
        lambda: video_phash_near_dups(ray.data.from_arrow(clips),
                                      min_shared=4),
        lambda df: len(df) == 500 * 5)


def leg_session_t(run):
    import __ray_entry__ as entry

    # sf0.01-sized bases (the contract fixture): replica 0 keeps the
    # smallest ids, which are the query sets
    _replicate(SF_SMALL, T_DIR, "embeddings", T_EMB_REPLICAS,
               {"vec_id": count(f"SELECT max(vec_id) FROM read_parquet("
                                f"'{SF_SMALL}/embeddings.parquet')") + 1})
    _replicate(SF_SMALL, T_DIR, "documents", T_DOC_REPLICAS,
               {"doc_id": count(f"SELECT max(doc_id) FROM read_parquet("
                                f"'{SF_SMALL}/documents.parquet')") + 1})
    qs, oracles = entry.queries(), entry.oracle_sql()
    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{T_DIR}/{t}.parquet')")

    def exact(name):
        def check(got):
            want = con.execute(oracles[name]).df()
            cols = sorted(got.columns)
            a = got[cols].sort_values(cols).reset_index(drop=True)
            b = want[cols].sort_values(cols).reset_index(drop=True)
            return a.astype("int64").equals(b.astype("int64"))
        return check

    for name in ("ann_ivf_quant", "ann_lsh_md5", "ann_pq_quant",
                 "hybrid_retrieval"):
        run(f"{name} (oracle at {T_EMB_REPLICAS}x)",
            lambda: qs[name](T_DIR), exact(name))


LEGS = {"text_ops": (leg_text_ops, (build_docs,)),
        "session_m": (leg_session_m, (build_docs, build_facts)),
        "session_p": (leg_session_p, (build_docs, build_facts)),
        "session_q": (leg_session_q, (build_docs, build_facts)),
        "session_r": (leg_session_r, (build_docs, build_facts,
                                      build_embeddings)),
        "session_s": (leg_session_s, (build_facts,)),
        "session_t": (leg_session_t, ())}


def main(legs):
    unknown = [leg for leg in legs if leg not in LEGS]
    if not legs or unknown:
        sys.exit(f"usage: scale_smoke.py <leg> [<leg> ...]; "
                 f"legs: {' '.join(LEGS)}")
    for leg in legs:
        for build in LEGS[leg][1]:
            build()
    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    ok = True
    for leg in legs:
        checks = []
        t0 = time.time()
        LEGS[leg][0](functools.partial(check_op, checks))
        ok = ok and all(checks)
        print(f"{leg}: {time.time() - t0:.1f}s "
              f"{'ALL OK' if all(checks) else 'FAILURES'}", flush=True)
    ray.shutdown()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main(sys.argv[1:])
