"""Deduplication operators — exact, MinHash-LSH, SimHash, n-gram Jaccard,
embedding-cosine — each expressed Ray-Data-first.

Scale notes (the part that matters at 100 TB):
- exact dedup is a hash-partitioned ``groupby(content_hash)`` keeping the min
  doc_id per group — one shuffle of (hash, id) pairs, never of full texts;
- MinHash signatures/shingles are computed vectorized per batch, then only the
  (band_id, band_hash, doc_id) triples shuffle (``groupby`` on the band key) —
  the classic sig→band→bucket plan from the LSH literature;
- SimHash buckets by 16-bit quadrants (hamming ≤ 3 ⇒ at least one of four
  quadrants equal — pigeonhole), so candidate generation is again a small-row
  shuffle;
- n-gram Jaccard is the exact verifier (and its own SQL-expressible operator);
- embedding near-dup quantizes to integers (``floor(x·1000)`` in float64) so
  the DuckDB oracle is bit-exact — float scoring paths live in
  ``ops/similarity.py``.
"""

from __future__ import annotations

import hashlib
import numpy as np
import pandas as pd
import pyarrow as pa

from .io import read_parquet as _io_read

from ..core.hashing import hash64_batch

# ---------------------------------------------------------------- exact dedup

def exact_dedup_ds(sf_dir: str):
    """One surviving doc_id (the min) per distinct text, keyed by md5."""
    def add_hash(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["text_md5"] = [hashlib.md5(t.encode("utf-8")).hexdigest()
                             for t in batch["text"].fillna("")]
        return batch[["doc_id", "text_md5"]]

    from .agg import partitioned_group_apply
    ds = _io_read(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    ds = ds.map_batches(add_hash, batch_format="pandas")

    def first_per_hash(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("text_md5", as_index=False).agg(
            keep_doc_id=("doc_id", "min"), n_dups=("doc_id", "size"))
        return out.astype({"keep_doc_id": "int64", "n_dups": "int64"})

    # high-cardinality key (one group per distinct text) → coarse partitions
    return partitioned_group_apply(ds, ["text_md5"], first_per_hash)


# ---------------------------------------------------------------- shingling

def word_ngrams(text: str, n: int = 3) -> set[str]:
    toks = text.split()
    if len(toks) < n:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}


# ---------------------------------------------------------------- minhash-lsh

N_PERM = 64
N_BANDS = 16        # 16 bands × 4 rows: catches Jaccard ≳ 0.5 w.h.p.
ROWS_PER_BAND = N_PERM // N_BANDS


_PERM_OFFSETS = (np.arange(N_PERM, dtype=np.uint64)
                 * np.uint64(0x9E3779B97F4A7C15))


def minhash_signature(grams: set[str]) -> np.ndarray:
    """64-perm MinHash from one base hash + splitmix-derived families,
    computed in one vectorized (n_grams × N_PERM) pass."""
    if not grams:
        return np.full(N_PERM, np.iinfo(np.uint64).max, dtype=np.uint64)
    base = hash64_batch(list(grams))  # min() is order-invariant; no sort
    from ..core.hashing import mix64
    with np.errstate(over="ignore"):
        fam = mix64(base[:, None] + _PERM_OFFSETS[None, :])
    return fam.min(axis=0)


def minhash_bands_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """doc → N_BANDS rows (band_id, band_hash, doc_id): the only thing that
    shuffles.

    Band hashes are a vectorized splitmix chain over each band's
    ROWS_PER_BAND signature words (r1 used one Python blake2b call per
    (doc, band) — ~800k calls at sf0.1, the stage's hot loop)."""
    from ..core.hashing import mix64
    if not len(batch):
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "band_id": pd.Series([], dtype="int64"),
                             "band_hash": pd.Series([], dtype="int64")})
    sigs = np.stack([minhash_signature(word_ngrams(t))
                     for t in batch["text"].fillna("")])        # (N, 64)
    bands = sigs.reshape(len(sigs), N_BANDS, ROWS_PER_BAND)     # (N, B, R)
    with np.errstate(over="ignore"):
        h = np.zeros((len(sigs), N_BANDS), dtype=np.uint64)
        for r in range(ROWS_PER_BAND):  # R=4 vectorized combine steps
            h = mix64(h + bands[:, :, r] + np.uint64(r) * _PERM_OFFSETS[1])
    n = len(sigs)
    return pd.DataFrame({
        "doc_id": np.repeat(batch["doc_id"].to_numpy(), N_BANDS),
        "band_id": np.tile(np.arange(N_BANDS, dtype=np.int64), n),
        "band_hash": h.reshape(-1).astype(np.int64),
    })


def minhash_candidates_ds(sf_dir: str, max_bucket: int | None = None):
    """documents → LSH candidate pairs (distinct, with matching-band counts).

    Both groupbys key on high-cardinality values (band buckets; pairs), so
    they run as coarse hash partitions with pandas inside (ops/agg.py).

    **Stop-hash cap** (``max_bucket``): a (band_id, band_hash) bucket larger
    than the cap is dropped WHOLE before pairing — the standard stop-hash
    rule: an over-common band hash is the n-gram analog of a stopword and
    each of its pairs would otherwise cost O(bucket²). Deterministic (pure
    size predicate, no sampling). Output contract under a cap: a candidate
    pair survives iff the two docs share at least one non-hot band; genuine
    near-dups almost always share several bands, so recall loss concentrates
    on degenerate clusters (e.g. thousands of identical shells). ``None``
    (default) disables the cap — the conformance/oracle mode."""
    ds = _io_read(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    bands = ds.map_batches(minhash_bands_batch, batch_format="pandas")
    return _band_candidates(bands, max_bucket)


def _band_candidates(bands, max_bucket: int | None = None):
    """(doc_id, band_id, band_hash) rows → distinct candidate pairs with
    matching-band counts — the shared bucket-self-join plan behind both the
    production crc32 path and the md5 oracle face."""
    from .agg import partitioned_group_apply

    def pairs_in_part(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized bucket self-join (the r1 per-bucket Python loop +
        # pd.concat of thousands of mostly-empty frames was 8 s of the
        # stage's 10 s at sf0.1; this merge is ~0.1 s for the same rows)
        if max_bucket is not None:
            sz = df.groupby(["band_id", "band_hash"])["doc_id"] \
                   .transform("size")
            df = df[sz <= max_bucket]
        m = df.merge(df, on=["band_id", "band_hash"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        return pd.DataFrame({"doc_a": m["doc_id_x"].astype("int64"),
                             "doc_b": m["doc_id_y"].astype("int64")})

    pairs = partitioned_group_apply(bands, ["band_hash"], pairs_in_part)

    def count_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["doc_a", "doc_b"], as_index=False).size() \
                .rename(columns={"size": "n_bands"})
        return out.astype({"n_bands": "int64"})

    return partitioned_group_apply(pairs, ["doc_a", "doc_b"], count_pairs)


def minhash_dedup_pairs(sf_dir: str, threshold: float = 0.7):
    """Candidates → exact-Jaccard-verified near-dup pairs, fully distributed.

    The verify is a two-shuffle bucketed join (no driver materialization —
    the r1 VERDICT's defect #3):
    1. every document maps to one (doc_id, gram_hashes) row — 64-bit gram
       hashes as a list column, never the text;
    2. every candidate pair emits two side rows (doc_id, doc_a, doc_b);
       co-partitioning the union on doc_id attaches each side's gram list
       (docs with no candidate pairs emit nothing);
    3. co-partitioning on the pair key brings both sides' gram lists
       together; exact Jaccard on the hash sets (full 64-bit ``sip64``
       — the "collision odds negligible" claim requires it; r5 review:
       ``hash64_batch`` is effectively 32-bit on equal-length grams),
       integer per-mille output, ≥ threshold kept.
    """
    def doc_hashes(t: str) -> np.ndarray:
        g = word_ngrams(t)
        return _gram_hash64(list(g)) if g else None

    return _verified_jaccard_pairs(minhash_candidates_ds(sf_dir), sf_dir,
                                   doc_hashes, threshold=threshold)


def _verified_jaccard_pairs(cands, sf_dir: str, doc_hash_fn,
                            threshold: float | None = None,
                            threshold_pm: int | None = None):
    """Shared two-shuffle bucketed verify (see ``minhash_dedup_pairs``).

    ``doc_hash_fn(text) → int64 gram-hash array | None``. Exactly one of
    ``threshold`` (float, round-to-pm output — the production contract) or
    ``threshold_pm`` (floor-divide per-mille — the SQL-parity contract,
    matching DuckDB's ``//``) must be given.
    """
    if (threshold is None) == (threshold_pm is None):
        raise ValueError("give exactly one of threshold / threshold_pm")
    from .agg import partitioned_group_apply

    # one row per (candidate pair, side): the "requests" table of the join
    def to_sides(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": pd.concat([batch["doc_a"], batch["doc_b"]],
                                ignore_index=True).astype("int64"),
            "doc_a": pd.concat([batch["doc_a"]] * 2, ignore_index=True).astype("int64"),
            "doc_b": pd.concat([batch["doc_b"]] * 2, ignore_index=True).astype("int64"),
            "gram_hash": pd.Series([-1] * (2 * len(batch)), dtype="int64"),
        })

    sides = cands.map_batches(to_sides, batch_format="pandas")

    # one row per (doc, distinct 3-gram hash). At 100 TB a bloom of candidate
    # ids broadcast into this map would prune non-candidate docs before the
    # shuffle; unpruned it is still only fixed-width int rows, never text.
    def doc_grams(batch: pd.DataFrame) -> pd.DataFrame:
        ids, hashes = [], []
        for d, t in zip(batch["doc_id"], batch["text"].fillna("")):
            h = doc_hash_fn(t)  # int64 gram hashes, order-invariant downstream
            if h is not None and len(h):
                ids.extend([d] * len(h))
                hashes.append(h)
        return pd.DataFrame({
            "doc_id": pd.Series(ids, dtype="int64"),
            "doc_a": pd.Series([-1] * len(ids), dtype="int64"),
            "doc_b": pd.Series([-1] * len(ids), dtype="int64"),
            "gram_hash": pd.Series(
                np.concatenate(hashes) if hashes else [], dtype="int64"),
        })

    docs = _io_read(f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "text"]) \
        .map_batches(doc_grams, batch_format="pandas")

    # shuffle 1 — co-partition on doc_id: each pair-side picks up its doc's
    # gram rows (plain pandas merge inside the partition)
    def attach(df: pd.DataFrame) -> pd.DataFrame:
        grams = df.loc[df["doc_a"] < 0, ["doc_id", "gram_hash"]]
        side = df.loc[df["doc_a"] >= 0, ["doc_id", "doc_a", "doc_b"]]
        m = side.merge(grams, on="doc_id")
        return m[["doc_a", "doc_b", "gram_hash"]]

    attached = partitioned_group_apply(docs.union(sides), ["doc_id"], attach)

    # shuffle 2 — co-partition on the pair key: a gram_hash seen twice within
    # a pair is shared; |union| = distinct grams, exact integer Jaccard
    def verify(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df.groupby(["doc_a", "doc_b", "gram_hash"], as_index=False).size()
        agg = cnt.groupby(["doc_a", "doc_b"]).agg(
            union=("size", "count"),
            inter=("size", lambda s: int((s == 2).sum()))).reset_index()
        if threshold_pm is not None:  # SQL-parity face: floor per-mille
            jpm = (1000 * agg["inter"]) // agg["union"].clip(lower=1)
            keep = jpm >= threshold_pm
        else:
            j = agg["inter"] / agg["union"].clip(lower=1)
            keep = j >= threshold
            jpm = (j * 1000).round()
        return pd.DataFrame({
            "doc_a": agg.loc[keep, "doc_a"].astype("int64"),
            "doc_b": agg.loc[keep, "doc_b"].astype("int64"),
            "jaccard_pm": jpm[keep].astype("int64"),
        }).reset_index(drop=True)

    return partitioned_group_apply(attached, ["doc_a", "doc_b"], verify)


# ------------------------------------------------- minhash md5 oracle face

MD5_N_PERM = 16
MD5_N_BANDS = 8          # 8 bands × 2 rows: s-curve knee ≈ (1/8)^(1/2) ≈ 0.35
MD5_ROWS_PER_BAND = MD5_N_PERM // MD5_N_BANDS


def minhash_md5_bands_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """doc → (doc_id, band_id, band_hash) rows under the SQL-parity md5
    hash family: permutation ``k`` of a gram is the first 8 bytes of
    ``md5("{k}:{gram}")``; a band's hash is ``md5("{band}:{s0}:{s1}")`` over
    its signature words printed in decimal — every step an exact DuckDB
    expression (md5 + substr + UBIGINT cast + ordered string_agg), unlike
    the production crc32/splitmix kernel (``minhash_bands_batch``), which
    has no SQL twin and therefore stays rows-only in the driver contract.

    Grams follow the corpus-wide SQL-parity convention
    (``ops.text.space_split_ngrams`` = the ``ngram_jaccard_pairs`` oracle's
    lead-window CTE); docs with no grams emit no band rows. The per-gram
    md5 loop is the face's documented cost (16 digests per distinct gram) —
    the production path exists precisely so this kernel never runs at scale.
    """
    from .text import space_split_ngrams
    ids: list[int] = []
    bids: list[int] = []
    hashes: list[int] = []
    md5 = hashlib.md5
    for d, t in zip(batch["doc_id"], batch["text"].fillna("")):
        grams = space_split_ngrams(t)
        if not grams:
            continue
        sig = [min(int(md5(f"{k}:{g}".encode("utf-8")).hexdigest()[:16], 16)
                   for g in grams) for k in range(MD5_N_PERM)]
        for b in range(MD5_N_BANDS):
            row = sig[b * MD5_ROWS_PER_BAND:(b + 1) * MD5_ROWS_PER_BAND]
            key = str(b) + ":" + ":".join(str(s) for s in row)
            bh = int(md5(key.encode("utf-8")).hexdigest()[:16], 16)
            ids.append(int(d))
            bids.append(b)
            hashes.append(bh)
    return pd.DataFrame({
        "doc_id": pd.Series(ids, dtype="int64"),
        "band_id": pd.Series(bids, dtype="int64"),
        # int64 wrap of the uint64 value — a bijection, so bucket identity
        # (all that matters internally; band hashes never reach the output)
        # is preserved
        "band_hash": pd.Series(
            np.array(hashes, dtype=np.uint64).astype(np.int64),
            dtype="int64"),
    })


def minhash_md5_candidates_ds(sf_dir: str):
    """LSH candidate pairs (doc_a, doc_b, n_bands) under the md5 oracle
    face — the sig→band→bucket→pair plan itself proven bit-exact against a
    pure-SQL DuckDB twin (``oracle_sql()['minhash_candidates_md5']``)."""
    ds = _io_read(f"{sf_dir}/documents.parquet",
                  columns=["doc_id", "text"])
    bands = ds.map_batches(minhash_md5_bands_batch, batch_format="pandas")
    return _band_candidates(bands)


def minhash_md5_candidates_capped_ds(sf_dir: str, max_bucket: int = 2):
    """The stop-hash cap itself under the md5 oracle face: band buckets
    larger than ``max_bucket`` are dropped WHOLE before pairing (the same
    deterministic rule as the production path's cap), and the DuckDB twin
    applies the identical bucket-size filter — so the CAP SEMANTICS are
    bit-exact-oracled, not just fixture-tested. The default cap of 2 binds
    on the sf tables (their largest md5-face bucket is 3)."""
    ds = _io_read(f"{sf_dir}/documents.parquet",
                  columns=["doc_id", "text"])
    bands = ds.map_batches(minhash_md5_bands_batch, batch_format="pandas")
    return _band_candidates(bands, max_bucket)


def _md5_gram_hashes(t: str) -> np.ndarray | None:
    """Distinct-gram md5-64 hashes under the SQL-parity convention (int64
    wrap). The oracle counts distinct gram *strings*; parity holds unless
    two of one pair's grams collide in 64 bits (odds ≈ g²/2⁶⁵ — negligible,
    and an accepted property of hash-based Jaccard at any scale)."""
    from .text import space_split_ngrams
    g = space_split_ngrams(t)
    if not g:
        return None
    return np.array([int(hashlib.md5(x.encode("utf-8")).hexdigest()[:16], 16)
                     for x in g], dtype=np.uint64).astype(np.int64)


def minhash_md5_pairs_ds(sf_dir: str, threshold_pm: int = 500):
    """md5-face candidates → exact-Jaccard-verified near-dup pairs
    (doc_a, doc_b, jaccard_pm), floor per-mille ≥ ``threshold_pm`` — the
    complete MinHash-LSH dedup pipeline (band, bucket, pair, verify) with
    an end-to-end DuckDB oracle. Same two-shuffle distributed verify as the
    production path (``_verified_jaccard_pairs``)."""
    return _verified_jaccard_pairs(minhash_md5_candidates_ds(sf_dir), sf_dir,
                                   _md5_gram_hashes, threshold_pm=threshold_pm)


# ---------------------------------------------------------------- simhash

def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount for uint64 arrays (numpy<2 has no bitwise_count)."""
    return np.unpackbits(x.view(np.uint8)).reshape(len(x), 8 * 8).sum(axis=1) \
        .astype(np.int64)


def signature_quadrant_pairs(sig_ds, id_col: str, sig_col: str,
                             max_hamming: int, out_a: str, out_b: str,
                             num_partitions: int = 32,
                             max_bucket: int | None = None):
    """Distributed near-dup pairs over 64-bit signatures (shared by SimHash
    text dedup and image phash dedup).

    Plan (everything runs in workers — no driver materialization, the r1
    VERDICT's top dedup defect):
    1. explode each signature row into four (quadrant, 16-bit value) bucket
       keys — pigeonhole: hamming ≤ 3 implies at least one equal quadrant
       (for radii > 3 the quadrant scheme is the standard approximate-recall
       LSH trade: only pairs sharing an exact quadrant are candidates);
    2. one coarse-partitioned shuffle of (bucket_key, id, sig) rows —
       signatures travel with their bucket rows, so the hamming verify is
       in-partition with no second lookup;
    3. per-bucket all-pairs xor+popcount (vectorized), keep ≤ max_hamming;
    4. one more small shuffle to dedup pairs found via multiple quadrants.

    **Stop-hash cap** (``max_bucket``): a quadrant bucket larger than the cap
    is skipped whole (deterministic size predicate) — a 16-bit quadrant value
    shared by a huge crowd (all-zero signatures, boilerplate shells) is a
    stop-hash whose O(bucket²) verify buys almost no true pairs; a true
    near-dup pair at radius ≤ 3 has ≥ 1 equal quadrant and usually several,
    so it survives via its non-hot quadrants. ``None`` disables (oracle/
    conformance mode)."""
    from .agg import partitioned_group_apply

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        v = df[sig_col].to_numpy().astype(np.int64).view(np.uint64)
        frames = []
        for q in range(4):
            qv = ((v >> np.uint64(16 * q)) & np.uint64(0xFFFF)).astype(np.int64)
            frames.append(pd.DataFrame({
                "qk": qv + (q << 16), id_col: df[id_col],
                sig_col: df[sig_col]}))
        return pd.concat(frames, ignore_index=True)

    quads = sig_ds.map_batches(explode, batch_format="pandas")

    def pairs_in_part(df: pd.DataFrame) -> pd.DataFrame:
        id_np = df[id_col].to_numpy()
        acc_a, acc_b, acc_d = [], [], []
        for _, g in df.groupby("qk", sort=False):
            if len(g) < 2 or (max_bucket is not None and len(g) > max_bucket):
                continue
            ids = g[id_col].to_numpy()
            sigs = g[sig_col].to_numpy().astype(np.int64).view(np.uint64)
            order = np.argsort(ids, kind="stable")
            ids, sigs = ids[order], sigs[order]
            iu, ju = np.triu_indices(len(ids), k=1)
            d = _popcount64(sigs[iu] ^ sigs[ju])
            keep = d <= max_hamming
            acc_a.append(ids[iu[keep]])
            acc_b.append(ids[ju[keep]])
            acc_d.append(d[keep])
        if acc_a:
            return pd.DataFrame({
                out_a: np.concatenate(acc_a), out_b: np.concatenate(acc_b),
                "hamming": np.concatenate(acc_d).astype("int64")})
        return pd.DataFrame({out_a: pd.Series([], dtype=id_np.dtype),
                             out_b: pd.Series([], dtype=id_np.dtype),
                             "hamming": pd.Series([], dtype="int64")})

    pairs = partitioned_group_apply(quads, ["qk"], pairs_in_part,
                                    num_partitions)

    def dedup_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # hamming is identical whichever quadrant surfaced the pair
        return df.groupby([out_a, out_b], as_index=False)["hamming"].first()

    return partitioned_group_apply(pairs, [out_a, out_b], dedup_pairs,
                                   num_partitions)


def signature_quadrant_matches(sig_ds, id_col: str, sig_col: str,
                               new_col: str, max_hamming: int,
                               num_partitions: int = 32,
                               max_bucket: int | None = None):
    """Bipartite variant of ``signature_quadrant_pairs`` for INCREMENTAL
    dedup: rows flagged ``new_col`` are checked against the non-flagged
    corpus rows; returns the distinct ids of new rows with at least one
    corpus row within ``max_hamming``. Same quadrant-bucket plan (pigeonhole
    exact for hamming ≤ 3); per bucket the verify is a vectorized
    new×corpus xor+popcount instead of all-pairs, and only matched NEW ids
    leave the bucket — the corpus never re-shuffles as pairs."""
    from .agg import partitioned_group_apply

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        v = df[sig_col].to_numpy().astype(np.int64).view(np.uint64)
        frames = []
        for q in range(4):
            qv = ((v >> np.uint64(16 * q)) & np.uint64(0xFFFF)).astype(np.int64)
            frames.append(pd.DataFrame({
                "qk": qv + (q << 16), id_col: df[id_col],
                sig_col: df[sig_col], new_col: df[new_col]}))
        return pd.concat(frames, ignore_index=True)

    quads = sig_ds.map_batches(explode, batch_format="pandas")

    def matched_in_part(df: pd.DataFrame) -> pd.DataFrame:
        id_np = df[id_col].to_numpy()
        acc = []
        for _, g in df.groupby("qk", sort=False):
            if max_bucket is not None and len(g) > max_bucket:
                continue
            isnew = g[new_col].to_numpy(dtype=bool)
            if not isnew.any() or isnew.all():
                continue
            sigs = g[sig_col].to_numpy().astype(np.int64).view(np.uint64)
            x = sigs[isnew][:, None] ^ sigs[~isnew][None, :]
            d = _popcount64(x.ravel()).reshape(x.shape)  # popcount is 1-D
            hit = (d <= max_hamming).any(axis=1)
            acc.append(g[id_col].to_numpy()[isnew][hit])
        ids = np.concatenate(acc) if acc else id_np[:0]
        return pd.DataFrame({id_col: pd.unique(ids)})

    m = partitioned_group_apply(quads, ["qk"], matched_in_part,
                                num_partitions)

    def dedup_ids(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()  # a doc can match via up to 4 quadrants

    return partitioned_group_apply(m, [id_col], dedup_ids, num_partitions)


def incremental_dedup_ds(sf_dir: str, max_hamming: int = 3,
                         new_min_src: int = 10):
    """Incremental ingestion dedup: documents from the NEW sources
    (``srcN, N >= new_min_src``) are kept only if no already-ingested corpus
    document (older sources) is a SimHash near-dup within ``max_hamming`` —
    the "dedupe the new crawl against the existing training set" step.

    Uses the md5-token simhash face (DuckDB-reproducible) and the bipartite
    quadrant plan: one signature pass over all docs, one bucket shuffle, one
    tiny matched-id shuffle, then a co-partitioned left anti join — corpus
    signatures never leave their buckets, nothing driver-side. Returns the
    kept new docs (doc_id, source)."""
    from .joins import hash_join

    ds = _io_read(f"{sf_dir}/documents.parquet",
                  columns=["doc_id", "source", "text"])

    def sig(batch: pd.DataFrame) -> pd.DataFrame:
        out = simhash_batch(batch, md5_token_hash)
        out["source"] = batch["source"].to_numpy()
        out["is_new"] = (batch["source"].str[3:].astype(int)
                         >= new_min_src).to_numpy()
        return out

    # materialize: the signature pass (per-token md5, the dominant cost)
    # feeds BOTH the quadrant-match plan and the anti-join's left side —
    # lazy, it would run twice
    sigs = ds.map_batches(sig, batch_format="pandas").materialize()
    matched = signature_quadrant_matches(sigs, "doc_id", "simhash",
                                         "is_new", max_hamming)

    def only_new(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.loc[batch["is_new"], ["doc_id", "source"]]

    def flag(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__m"] = np.int64(1)
        return batch

    joined = hash_join(sigs.map_batches(only_new, batch_format="pandas"),
                       matched.map_batches(flag, batch_format="pandas"),
                       on=["doc_id"], how="left", fill={"__m": np.int64(0)})

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.loc[batch["__m"] == 0, ["doc_id", "source"]]

    return joined.map_batches(keep, batch_format="pandas")


def md5_token_hash(toks: list[str]) -> np.ndarray:
    """64-bit token hashes from the md5 prefix — the DuckDB-reproducible
    hash family (`('0x'||substr(md5(tok),1,16))::UBIGINT`), used by the
    oracle-checkable simhash face."""
    return np.array([int(hashlib.md5(t.encode("utf-8")).hexdigest()[:16], 16)
                     for t in toks], dtype=np.uint64)


def simhash64(text: str, token_hash=hash64_batch) -> int:
    toks = text.split()
    if not toks:
        return 0
    hashes = token_hash(toks)
    bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1))
    counts = bits.sum(axis=0)
    sh = (counts * 2 > len(toks)).astype(np.uint64)
    return int((sh << np.arange(64, dtype=np.uint64)).sum())


def simhash_batch(batch: pd.DataFrame, token_hash=hash64_batch) -> pd.DataFrame:
    vals = np.array([simhash64(t, token_hash) for t in batch["text"].fillna("")],
                    dtype=np.uint64)
    out = pd.DataFrame({"doc_id": batch["doc_id"]})
    out["simhash"] = vals.astype(np.int64)
    return out


def simhash_pairs(sf_dir: str, max_hamming: int = 3, hash_impl: str = "md5",
                  max_bucket: int | None = None):
    """Near-dup pairs by SimHash: quadrant-bucket candidates → hamming verify,
    fully distributed (signature_quadrant_pairs).

    ``hash_impl="md5"`` is the oracle face (token hashes DuckDB can
    reproduce); ``"crc"`` is the fast engine path (hash64_batch) with
    identical plan shape. ``max_bucket`` is the stop-hash cap on hot
    quadrant buckets (see signature_quadrant_pairs; None = oracle mode).
    """
    hasher = md5_token_hash if hash_impl == "md5" else hash64_batch
    ds = _io_read(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    sh = ds.map_batches(lambda b: simhash_batch(b, hasher),
                        batch_format="pandas")
    return signature_quadrant_pairs(sh, "doc_id", "simhash", max_hamming,
                                    "doc_a", "doc_b", max_bucket=max_bucket)


# ---------------------------------------------------------------- ngram jaccard (SQL-parity)

def ngram_jaccard_pairs_ds(sf_dir: str, n: int = 3, threshold_pm: int = 500,
                           max_gram_df: int | None = None,
                           num_partitions: int = 32):
    """Exact word-n-gram Jaccard pairs within each ``source`` partition
    (see ``_ngram_pairs_impl`` for the shared distributed plan)."""
    return _ngram_pairs_impl(sf_dir, n, threshold_pm, max_gram_df,
                             num_partitions, score="jaccard")


def ngram_containment_pairs_ds(sf_dir: str, n: int = 3,
                               threshold_pm: int = 500,
                               max_gram_df: int | None = None,
                               num_partitions: int = 32):
    """Asymmetric n-gram CONTAINMENT pairs: shared / min(|A|, |B|) — the
    Broder containment measure that catches a short document embedded in a
    long one (quotes, boilerplate wrappers, excerpt pages), which symmetric
    Jaccard dilutes toward 0 as the size gap grows. Same distributed plan,
    per-doc counts and stop-gram cap contract as the Jaccard face; output
    column is ``containment_pm`` (integer per-mille, SQL-oracle-exact)."""
    return _ngram_pairs_impl(sf_dir, n, threshold_pm, max_gram_df,
                             num_partitions, score="containment")


def _ngram_pairs_impl(sf_dir: str, n: int, threshold_pm: int,
                      max_gram_df: int | None, num_partitions: int,
                      score: str):
    """Exact word-n-gram pair scores within each ``source`` partition.

    Fully SQL-expressible (explode n-grams → self-join on gram within source →
    jaccard = inter/union): the oracle-checked face of near-dup. The ``source``
    blocking bound keeps the pair space tractable — same role as an LSH band,
    but deterministic and SQL-checkable. Output uses integer per-mille
    jaccard for cross-engine hash equality.

    Scale plan (r3 rewrite — the previous shape put a WHOLE source in one
    ``map_groups`` task, unbounded at 100 TB): pairs only need same-gram
    co-location, so the exchange is a coarse hash partition of the
    (source, gram) key — every task holds a bounded hash-slice of gram
    rows, never a whole source. Each doc row carries its total distinct
    gram count ``n`` (computed in-batch at explode: a doc is one input
    row), so a pair's union = na + nb - shared needs no extra join; a
    second slim shuffle sums the per-partition shared-counts per pair.
    The in-partition work stays ONE vectorized self-merge.

    **Stop-gram cap** (``max_gram_df``): a gram appearing in more than
    ``max_gram_df`` docs of a source is removed from EVERY doc's gram set
    before pairing — intersection AND union both shrink, i.e. Jaccard is
    computed exactly over the non-stop grams (the classic stop-word-removal
    contract, still deterministic and order-free). This bounds the self-merge
    at O(max_gram_df²) per gram instead of O(hot-gram-df²). All rows of a
    (source, gram) land in one partition, so the group size IS the gram's
    per-source df and the cap is decided exactly; the capped mode recomputes
    post-cap per-doc counts distributed (two more slim shuffles + two
    broadcast-free hash joins) since the carried pre-cap ``n`` no longer
    equals the union term. ``None`` (default) disables — the bit-exact
    oracle face and the two-shuffle fast path."""
    from .agg import partitioned_group_apply

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        doc, src, gram, tot = [], [], [], []
        for d, s, t in zip(batch["doc_id"], batch["source"],
                           batch["text"].fillna("")):
            toks = t.split(" ")
            grams = {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)} \
                if len(toks) >= n else set()
            for g in grams:
                doc.append(d)
                src.append(s)
                gram.append(g)
                tot.append(len(grams))
        return pd.DataFrame({"doc_id": doc, "source": src, "gram": gram,
                             "n": pd.Series(tot, dtype="int64")})

    ds = _io_read(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "text"])
    grams = ds.map_batches(explode, batch_format="pandas")

    _pair_empty = pd.DataFrame({
        "doc_a": pd.Series([], dtype="int64"),
        "doc_b": pd.Series([], dtype="int64"),
        "shared": pd.Series([], dtype="int64"),
        "na": pd.Series([], dtype="int64"),
        "nb": pd.Series([], dtype="int64")})

    def pair_partials(df: pd.DataFrame) -> pd.DataFrame:
        # one vectorized self-merge over this hash-slice of (source, gram)
        if max_gram_df is not None:
            dfc = df.groupby(["source", "gram"])["doc_id"].transform("size")
            df = df[dfc <= max_gram_df]
        if not len(df):
            return _pair_empty
        m = df.merge(df, on=["source", "gram"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        out = m.groupby(["doc_id_x", "doc_id_y"], as_index=False).agg(
            shared=("gram", "size"), na=("n_x", "first"),
            nb=("n_y", "first"))
        out.columns = ["doc_a", "doc_b", "shared", "na", "nb"]
        return out.astype("int64")

    pairs = partitioned_group_apply(grams, ["source", "gram"], pair_partials,
                                    num_partitions)

    score_col = "jaccard_pm" if score == "jaccard" else "containment_pm"

    def _jpm_filter(agg: pd.DataFrame) -> pd.DataFrame:
        if score == "jaccard":
            denom = (agg["na"].to_numpy() + agg["nb"].to_numpy()
                     - agg["shared"].to_numpy())
        else:  # containment: shared over the smaller gram set
            denom = np.minimum(agg["na"].to_numpy(), agg["nb"].to_numpy())
        jpm = (1000 * agg["shared"].to_numpy()) // denom
        keep = jpm >= threshold_pm
        return pd.DataFrame({
            "doc_a": agg.loc[keep, "doc_a"].astype("int64").to_numpy(),
            "doc_b": agg.loc[keep, "doc_b"].astype("int64").to_numpy(),
            score_col: pd.Series(jpm[keep], dtype="int64"),
        })

    if max_gram_df is None:
        def finish(df: pd.DataFrame) -> pd.DataFrame:
            agg = df.groupby(["doc_a", "doc_b"], as_index=False).agg(
                shared=("shared", "sum"), na=("na", "first"),
                nb=("nb", "first"))
            return _jpm_filter(agg)

        return partitioned_group_apply(pairs, ["doc_a", "doc_b"], finish,
                                       num_partitions)

    # capped mode: distributed post-cap per-doc counts, then two slim joins
    from .joins import hash_join

    def count_partials(df: pd.DataFrame) -> pd.DataFrame:
        dfc = df.groupby(["source", "gram"])["doc_id"].transform("size")
        kept = df[dfc <= max_gram_df]
        out = kept.groupby("doc_id", as_index=False).size() \
            .rename(columns={"size": "cnt"})
        return out.astype("int64")

    def count_sum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("doc_id", as_index=False)["cnt"].sum() \
            .astype("int64")

    counts = partitioned_group_apply(
        partitioned_group_apply(grams, ["source", "gram"], count_partials,
                                num_partitions),
        ["doc_id"], count_sum, num_partitions)

    def shared_sum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["doc_a", "doc_b"], as_index=False)["shared"] \
            .sum().astype("int64")

    shared = partitioned_group_apply(
        pairs.map_batches(lambda b: b[["doc_a", "doc_b", "shared"]],
                          batch_format="pandas"),
        ["doc_a", "doc_b"], shared_sum, num_partitions)

    def _rename(frm: str, to: str):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            return b.rename(columns={"doc_id": frm, "cnt": to})
        return f

    j = hash_join(shared, counts.map_batches(_rename("doc_a", "na"),
                                             batch_format="pandas"),
                  on=["doc_a"], num_partitions=num_partitions)
    j = hash_join(j, counts.map_batches(_rename("doc_b", "nb"),
                                        batch_format="pandas"),
                  on=["doc_b"], num_partitions=num_partitions)
    return j.map_batches(_jpm_filter, batch_format="pandas")


# ------------------------------------------------------- blocked self-join

def blocked_self_join(ds, label_col: str, id_col: str,
                      score_fn, n_chunks: int = 8,
                      num_partitions: int = 32):
    """All-pairs-within-label, decomposed into chunk-pair tasks.

    A single hot label makes ``groupby(label).map_groups`` one O(n²) task
    (the r1 scale bound on the embedding pair ops). Standard blocked
    self-join instead: each row lands in chunk ``id % K`` and is REPLICATED
    to the K chunk-pair groups it participates in; each (label, cᵃ≤cᵇ)
    group scores only its two chunks (cross pairs, or i<j within the
    diagonal). Every unordered pair appears in exactly one group, so output
    equals the single-task all-pairs plan; per-task memory is bounded by
    two chunks and a hot label parallelizes across K(K+1)/2 tasks, at the
    cost of K× row replication through the shuffle.

    ``score_fn(ga, gb)``: pandas frames of the two chunks (``gb is None``
    for the diagonal) → pairs frame.
    """
    from .agg import partitioned_group_apply

    def replicate(df: pd.DataFrame) -> pd.DataFrame:
        chunk = (df[id_col].astype("int64") % n_chunks).to_numpy()
        frames = []
        for x in range(n_chunks):
            sub = df.copy()
            a = np.minimum(chunk, x)
            b = np.maximum(chunk, x)
            sub["__chunk"] = chunk
            sub["__pair"] = (df[label_col].astype(str) + "\x1f"
                             + pd.Series(a * n_chunks + b,
                                         index=df.index).astype(str))
            frames.append(sub)
        return pd.concat(frames, ignore_index=True) \
            .drop_duplicates([id_col, "__pair"])

    def score_group(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for key, g in df.groupby("__pair", sort=False):
            # Decode (a, b) from the key — never infer from which chunks
            # happen to be populated: a cross-chunk group whose label has
            # rows in only one of its two chunks would otherwise be
            # mis-scored as a diagonal, duplicating the true diagonal
            # group's pairs.
            a, b = divmod(int(key.rsplit("\x1f", 1)[1]), n_chunks)
            if a == b:
                outs.append(score_fn(g, None))
            else:
                ga = g[g["__chunk"] == a]
                gb = g[g["__chunk"] == b]
                if len(ga) and len(gb):
                    outs.append(score_fn(ga, gb))
        outs = [o for o in outs if o is not None and len(o)]
        if not outs:
            return score_fn(df.iloc[0:0], None)  # typed empty frame
        return pd.concat(outs, ignore_index=True)

    rep = ds.map_batches(replicate, batch_format="pandas")
    return partitioned_group_apply(rep, ["__pair"], score_group,
                                   num_partitions)


# ---------------------------------------------------------------- embedding near-dup (SQL-parity)

def embedding_quant_dedup_ds(sf_dir: str, threshold: int = 300_000):
    """Near-identical embedding pairs by quantized inner product.

    Embeddings are L2-normalized floats; quantize each dim to
    ``floor(float64(x)·1000)`` (bit-exact in numpy and DuckDB) and join pairs
    within the same ``label`` block with quantized inner product ≥ threshold.
    The float cosine path (brute-force + LSH) is ops/similarity.py.
    """
    def quantize(batch: pd.DataFrame) -> pd.DataFrame:
        q = [np.floor(np.asarray(v, dtype=np.float64) * 1000.0).astype(np.int64)
             for v in batch["embedding"]]
        return pd.DataFrame({"vec_id": batch["vec_id"], "label": batch["label"],
                             "q": q})

    ds = _io_read(f"{sf_dir}/embeddings.parquet")
    qds = ds.map_batches(quantize, batch_format="pandas")

    _empty = pd.DataFrame({"vec_a": pd.Series([], dtype="int64"),
                           "vec_b": pd.Series([], dtype="int64"),
                           "qdot": pd.Series([], dtype="int64")})

    def score(ga: pd.DataFrame, gb) -> pd.DataFrame:
        if not len(ga):
            return _empty
        ia = ga["vec_id"].to_numpy().astype(np.int64)
        ma = np.stack(ga["q"].to_list())
        if gb is None:
            order = np.argsort(ia)
            ia, ma = ia[order], ma[order]
            dots = ma @ ma.T
            iu, ju = np.triu_indices(len(ia), k=1)
            keep = dots[iu, ju] >= threshold
            return pd.DataFrame({"vec_a": ia[iu[keep]], "vec_b": ia[ju[keep]],
                                 "qdot": dots[iu, ju][keep].astype("int64")})
        ib = gb["vec_id"].to_numpy().astype(np.int64)
        mb = np.stack(gb["q"].to_list())
        dots = ma @ mb.T
        r, c = np.nonzero(dots >= threshold)
        a, b = ia[r], ib[c]
        return pd.DataFrame({"vec_a": np.minimum(a, b),
                             "vec_b": np.maximum(a, b),
                             "qdot": dots[r, c].astype("int64")})

    # blocked self-join (not groupby(label).map_groups): a skewed hot label
    # would otherwise be ONE O(n²) task — chunk pairs keep per-task memory
    # bounded and parallelize the hot label (r1 VERDICT "partial" fix)
    return blocked_self_join(qds, "label", "vec_id", score)


def embedding_cosine_pairs(sf_dir: str, threshold_pm: int = 300):
    """Float cosine near-dup pairs within each ``label`` block (the real
    embedding-dedup path; rows-only check — the bit-exact oracle face is
    ``embedding_quant_dedup_ds``). Output similarity as per-mille ints."""
    ds = _io_read(f"{sf_dir}/embeddings.parquet")

    def norm_rows(batch: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(batch["embedding"].to_list()).astype(np.float64)
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        return pd.DataFrame({"vec_id": batch["vec_id"],
                             "label": batch["label"],
                             "nv": list(mat)})

    nds = ds.map_batches(norm_rows, batch_format="pandas")

    _empty = pd.DataFrame({"vec_a": pd.Series([], dtype="int64"),
                           "vec_b": pd.Series([], dtype="int64"),
                           "sim_pm": pd.Series([], dtype="int64")})

    def score(ga: pd.DataFrame, gb) -> pd.DataFrame:
        if not len(ga):
            return _empty
        ia = ga["vec_id"].to_numpy().astype(np.int64)
        ma = np.stack(ga["nv"].to_list())
        if gb is None:
            order = np.argsort(ia)
            ia, ma = ia[order], ma[order]
            sims = ma @ ma.T
            iu, ju = np.triu_indices(len(ia), k=1)
            pm = np.floor(sims[iu, ju] * 1000.0).astype(np.int64)
            keep = pm >= threshold_pm
            return pd.DataFrame({"vec_a": ia[iu[keep]], "vec_b": ia[ju[keep]],
                                 "sim_pm": pm[keep]})
        ib = gb["vec_id"].to_numpy().astype(np.int64)
        mb = np.stack(gb["nv"].to_list())
        pm = np.floor((ma @ mb.T) * 1000.0).astype(np.int64)
        r, c = np.nonzero(pm >= threshold_pm)
        a, b = ia[r], ib[c]
        return pd.DataFrame({"vec_a": np.minimum(a, b),
                             "vec_b": np.maximum(a, b),
                             "sim_pm": pm[r, c]})

    # blocked self-join — same hot-label decomposition as the quantized face
    return blocked_self_join(nds, "label", "vec_id", score)


# ---------------------------------------------------- dedup components

def _filter_to_nodes(labeled_ds, nodes_ds, id_col: str, out_label: str,
                     num_partitions: int):
    """Keep only label rows whose id is in ``nodes_ds`` — the BSP paths let
    edge-only ids participate as conduits (so connectivity THROUGH them is
    preserved, matching the driver union-find), but the output contract is
    one row per declared node. One co-partitioned marker pass."""
    import numpy as np

    from .agg import partitioned_group_apply

    def markers(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({id_col: batch[id_col],
                             out_label: batch[id_col],  # dtype-true filler
                             "__m": np.int64(1)})

    def data_rows(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__m"] = np.int64(0)
        return batch

    def member_filter(df: pd.DataFrame) -> pd.DataFrame:
        known = df.loc[df["__m"] == 1, id_col].unique()
        d = df[df["__m"] == 0]
        return d.loc[d[id_col].isin(known), [id_col, out_label]]

    return partitioned_group_apply(
        labeled_ds.map_batches(data_rows, batch_format="pandas")
        .union(nodes_ds.map_batches(markers, batch_format="pandas")),
        [id_col], member_filter, num_partitions)


def connected_components(edges_ds, nodes_ds, id_col: str,
                         out_label: str = "component_id",
                         num_partitions: int = 32, max_rounds: int = 50,
                         driver_threshold: int = 2_000_000):
    """Distributed connected components by hash-min label propagation —
    the canonical-representative step of a dedup pipeline (near-dup PAIRS →
    dedup GROUPS, each doc labeled with the min id reachable through
    near-dup edges).

    BSP rounds, each two coarse-partition shuffles (ops/agg.py pattern):
    co-partition (labels ∪ directed edges) on ``src`` to attach each edge's
    source label, emit (dst, candidate); co-partition on ``node`` to
    min-combine. The labels table (one row per node) materializes between
    rounds — it IS the algorithm state, exactly like a pagerank vector.
    Each round ALSO treats the current labels as extra node↔label edges
    (shortcutting — the pointer-jumping idea of the hash-to-min /
    large-star CC algorithms), so a path of length d converges in O(log d)
    rounds instead of O(d). The label sum is the monotone convergence
    witness, one scalar aggregate per round on the driver.

    ``edges_ds``: columns (u, v); ``nodes_ds``: column ``id_col``.
    Returns a Dataset (id_col, out_label) covering EXACTLY the nodes_ds
    universe, on every path: an id that appears only in edges conducts
    connectivity (nodes joined through it land in one component, as in the
    driver union-find) but emits no output row.

    **Adaptive**: the edge set is the OUTPUT of near-dup detection —
    O(duplicate pairs), typically minuscule next to the corpus. Below
    ``driver_threshold`` edges, a driver union-find over just the int pairs
    + a broadcast label map (``ray.put``) beats ~10 s/round of fixed
    Ray-Data overhead on the BSP path; above it, the BSP rounds run (set
    ``driver_threshold=0`` to force them — the conformance tests do).
    """
    import ray
    from ray.data.aggregate import Sum

    from .agg import partitioned_group_apply

    # edges are consumed twice (count, then either collect or explode) and
    # are the OUTPUT of the expensive near-dup join — materialize so the
    # upstream pipeline runs once, not per consumption
    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        def ident(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({id_col: batch[id_col],
                                 out_label: batch[id_col]})
        return nodes_ds.map_batches(ident, batch_format="pandas")
    if n_edges < driver_threshold:
        # id pairs only, never corpus rows; any orderable id type (the BSP
        # path below needs int64 ids — dictionary-encode first at scale)
        pairs = edges_ds.to_pandas()
        parent: dict = {}

        def find(x):
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != x:
                parent[x], x = r, parent[x]
            return r

        for u, v in zip(pairs["u"], pairs["v"]):
            ru, rv = find(u), find(v)
            if ru != rv:
                # union by min id so roots ARE the component minima
                lo, hi = (ru, rv) if ru < rv else (rv, ru)
                parent[hi] = lo
        comp = {x: find(x) for x in list(parent)}
        comp_ref = ray.put(comp)

        def label(batch: pd.DataFrame, _cache={}) -> pd.DataFrame:
            if "m" not in _cache:  # one fetch/deserialize per worker process
                _cache["m"] = ray.get(comp_ref)
            m = _cache["m"]
            ids = batch[id_col]
            return pd.DataFrame({
                id_col: ids,
                out_label: ids.map(lambda i: m.get(i, i)).astype(ids.dtype)})

        return nodes_ds.map_batches(label, batch_format="pandas")

    def to_nodes(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[id_col].astype("int64")
        return pd.DataFrame({"src": ids, "dst": -1, "lab": ids})

    def to_edges(batch: pd.DataFrame) -> pd.DataFrame:
        u = batch["u"].astype("int64")
        v = batch["v"].astype("int64")
        return pd.DataFrame({
            "src": pd.concat([u, v], ignore_index=True),
            "dst": pd.concat([v, u], ignore_index=True),
            "lab": pd.Series([-1] * (2 * len(batch)), dtype="int64"),
        })

    # The BSP rounds need integer ids (labels ARE ids, min-combined as
    # ints). Non-integer ids (image_id strings, URLs) go through a
    # distributed dictionary encoding first, then decode + canonicalize so
    # the output labels are still the per-component MIN ORIGINAL id —
    # identical to the driver union-find path. The schema may be arrow- or
    # pandas-block-backed depending on upstream stages.
    import pyarrow as _pa
    from .joins import _materialize_if_shuffle_lineage
    # schema probe executes a lazy shuffle lineage in full — materialize
    # such a nodes_ds once (it is consumed again by to_nodes below)
    nodes_ds = _materialize_if_shuffle_lineage(nodes_ds)
    schema = nodes_ds.schema()
    id_type = dict(zip(schema.names, schema.types))[id_col]
    is_int = (_pa.types.is_integer(id_type)
              if isinstance(id_type, _pa.DataType)
              else np.issubdtype(np.dtype(id_type), np.integer))
    if not is_int:
        return _cc_bsp_encoded(edges_ds, nodes_ds, id_col, out_label,
                               num_partitions, max_rounds)

    edges = edges_ds.map_batches(to_edges, batch_format="pandas") \
        .materialize()  # static across rounds
    labels = nodes_ds.map_batches(to_nodes, batch_format="pandas") \
        .materialize()
    prev_sum = None

    def propagate(df: pd.DataFrame) -> pd.DataFrame:
        lab_rows = df[df["dst"] < 0]
        out = [pd.DataFrame({"node": lab_rows["src"],
                             "cand": lab_rows["lab"]})]
        e = df[df["dst"] >= 0]
        if len(e):
            m = e.merge(lab_rows[["src", "lab"]], on="src",
                        suffixes=("", "_l"))
            out.append(pd.DataFrame({"node": m["dst"], "cand": m["lab_l"]}))
        return pd.concat(out, ignore_index=True)

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("node", as_index=False)["cand"].min()
        return pd.DataFrame({"src": out["node"].astype("int64"),
                             "dst": pd.Series([-1] * len(out), dtype="int64"),
                             "lab": out["cand"].astype("int64")})

    def lab_edges(batch: pd.DataFrame) -> pd.DataFrame:
        # shortcut edges node↔label (self-labels carry no information)
        nz = batch[batch["src"] != batch["lab"]]
        return pd.DataFrame({
            "src": pd.concat([nz["src"], nz["lab"]], ignore_index=True)
                     .astype("int64"),
            "dst": pd.concat([nz["lab"], nz["src"]], ignore_index=True)
                     .astype("int64"),
            "lab": pd.Series([-1] * (2 * len(nz)), dtype="int64"),
        })

    for _ in range(max_rounds):
        shortcuts = labels.map_batches(lab_edges, batch_format="pandas")
        msgs = partitioned_group_apply(labels.union(edges).union(shortcuts),
                                       ["src"], propagate, num_partitions)
        # re-cap the block count every round: the sort shuffle emits as many
        # blocks as its (union-widened) input has, so without this coalesce
        # blocks roughly double per round — by round 5 the loop is thousands
        # of tiny tasks of pure scheduling overhead (measured: a 100k-node
        # probe went from stuck-past-12-min to 53 s total)
        labels = partitioned_group_apply(msgs, ["node"], combine,
                                         num_partitions) \
            .repartition(num_partitions).materialize()
        s = labels.aggregate(Sum("lab"))["sum(lab)"]
        if s == prev_sum:
            break
        prev_sum = s

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({id_col: batch["src"].astype("int64"),
                             out_label: batch["lab"].astype("int64")})

    # edge-only ids served as conduits during the rounds; the output covers
    # exactly the declared node universe (identical to the driver path)
    return _filter_to_nodes(labels.map_batches(project,
                                               batch_format="pandas"),
                            nodes_ds, id_col, out_label, num_partitions)


def _dict_encode_ids(nodes_ds, id_col: str, num_partitions: int):
    """Distributed dictionary encoding: (id_col, __code:int64), one row per
    distinct id. Codes are ``partition << 40 | rank-within-partition`` —
    globally unique without any driver pass or prefix-sum exchange, and
    deterministic (hash partitioning + sorted rank are both seed-free)."""
    from .agg import partitioned_group_apply

    def enc(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].drop_duplicates().sort_values() \
                        .reset_index(drop=True)
        if not len(ids):
            return pd.DataFrame({id_col: ids,
                                 "__code": pd.Series([], dtype="int64")})
        # recompute this partition's index the same way add_part assigned
        # it. The scalar goes through Python int BEFORE the modulo: numpy
        # uint64 % python-int coerces to float64 and loses low bits.
        part = int(pd.util.hash_pandas_object(
            ids.iloc[:1].astype(str), index=False).iloc[0]) % num_partitions
        return pd.DataFrame({
            id_col: ids,
            "__code": (np.int64(part) << np.int64(40))
                      + np.arange(len(ids), dtype="int64")})

    return partitioned_group_apply(nodes_ds, [id_col], enc, num_partitions)


def _cc_bsp_encoded(edges_ds, nodes_ds, id_col: str, out_label: str,
                    num_partitions: int, max_rounds: int):
    """connected_components BSP path for NON-integer ids: dictionary-encode
    distributed (never a driver id map), translate edge endpoints through two
    co-partitioned joins, run the int BSP rounds, decode, and re-canonicalize
    labels to the per-component min ORIGINAL id so the output is identical to
    the driver union-find path. Every exchanged row is fixed-width (ids +
    int64 codes); the corpus never shuffles."""
    from .agg import partitioned_group_apply

    # encode EVERY id that appears — nodes and edge endpoints — so an id
    # present only in edges still conducts connectivity (matching the
    # driver union-find); the final output is filtered back to nodes_ds
    all_ids = nodes_ds.map_batches(lambda b: b[[id_col]],
                                   batch_format="pandas") \
        .union(edges_ds.map_batches(
            lambda b: pd.DataFrame({id_col: b["u"]}),
            batch_format="pandas")) \
        .union(edges_ds.map_batches(
            lambda b: pd.DataFrame({id_col: b["v"]}),
            batch_format="pandas"))
    codes = _dict_encode_ids(all_ids, id_col, num_partitions).materialize()

    # -- translate u: union (id, "", code) with (u, v, -1), co-partition on
    # the key, merge inside.
    def codes_as_u(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"__key": batch[id_col],
                             "__v": [""] * len(batch),
                             "__code": batch["__code"].astype("int64")})

    def edges_keyed_u(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"__key": batch["u"],
                             "__v": batch["v"],
                             "__code": pd.Series([-1] * len(batch),
                                                 dtype="int64")})

    def attach_u(df: pd.DataFrame) -> pd.DataFrame:
        c = df.loc[df["__code"] >= 0, ["__key", "__code"]]
        e = df.loc[df["__code"] < 0, ["__key", "__v"]]
        m = e.merge(c, on="__key")
        return pd.DataFrame({"__key": m["__v"],
                             "__cu": m["__code"].astype("int64"),
                             "__code": pd.Series([-1] * len(m),
                                                 dtype="int64")})

    half = partitioned_group_apply(
        codes.map_batches(codes_as_u, batch_format="pandas")
             .union(edges_ds.map_batches(edges_keyed_u,
                                         batch_format="pandas")),
        ["__key"], attach_u, num_partitions)

    # -- translate v the same way (edge rows now carry __cu >= 0)
    def codes_as_v(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"__key": batch[id_col],
                             "__cu": pd.Series([-1] * len(batch),
                                               dtype="int64"),
                             "__code": batch["__code"].astype("int64")})

    def attach_v(df: pd.DataFrame) -> pd.DataFrame:
        c = df.loc[df["__code"] >= 0, ["__key", "__code"]]
        e = df.loc[df["__code"] < 0, ["__key", "__cu"]]
        m = e.merge(c, on="__key")
        return pd.DataFrame({"u": m["__cu"].astype("int64"),
                             "v": m["__code"].astype("int64")})

    int_edges = partitioned_group_apply(
        codes.map_batches(codes_as_v, batch_format="pandas").union(half),
        ["__key"], attach_v, num_partitions)

    def int_nodes(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"__code": batch["__code"].astype("int64")})

    labels = connected_components(
        int_edges, codes.map_batches(int_nodes, batch_format="pandas"),
        "__code", out_label="__lab", num_partitions=num_partitions,
        max_rounds=max_rounds, driver_threshold=0)

    # -- decode codes back to original ids (co-partition labels ∪ codes on
    # the int code), then canonicalize: component label = min original id.
    def codes_keyed(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"__code": batch["__code"].astype("int64"),
                             "__id": batch[id_col],
                             "__lab": pd.Series([-1] * len(batch),
                                                dtype="int64")})

    def labels_keyed(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"__code": batch["__code"].astype("int64"),
                             "__id": [""] * len(batch),
                             "__lab": batch["__lab"].astype("int64")})

    def decode(df: pd.DataFrame) -> pd.DataFrame:
        c = df.loc[df["__lab"] < 0, ["__code", "__id"]]
        l = df.loc[df["__lab"] >= 0, ["__code", "__lab"]]
        m = l.merge(c, on="__code")
        return pd.DataFrame({"__id": m["__id"],
                             "__lab": m["__lab"].astype("int64")})

    decoded = partitioned_group_apply(
        codes.map_batches(codes_keyed, batch_format="pandas")
             .union(labels.map_batches(labels_keyed, batch_format="pandas")),
        ["__code"], decode, num_partitions)

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        rep = df.groupby("__lab")["__id"].transform("min")
        return pd.DataFrame({id_col: df["__id"], out_label: rep})

    out = partitioned_group_apply(decoded, ["__lab"], canon, num_partitions)
    return _filter_to_nodes(out, nodes_ds, id_col, out_label, num_partitions)


def neardup_components_ds(sf_dir: str, threshold: int = 300_000):
    """Dedup groups over the quantized-embedding near-dup graph: every
    vector labeled with the min vec_id of its connected component (vectors
    with no near-dup edge are their own component). SQL-checkable via a
    recursive-CTE min-reachability oracle."""
    pairs = embedding_quant_dedup_ds(sf_dir, threshold=threshold)

    def as_uv(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"u": batch["vec_a"].astype("int64"),
                             "v": batch["vec_b"].astype("int64")})

    edges = pairs.map_batches(as_uv, batch_format="pandas")
    nodes = _io_read(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])
    return connected_components(edges, nodes, "vec_id")


def doc_dedup_groups_ds(sf_dir: str, threshold_pm: int = 500,
                        max_gram_df: int | None = None):
    """End-to-end corpus dedup decision surface: exact-duplicate edges
    (identical md5) ∪ exact n-gram-Jaccard near-dup edges → connected
    components → one canonical doc (min doc_id) per group plus an integer
    ``keep`` flag. This is the keep/drop table a training-data pipeline
    joins against the corpus; SQL-checked end-to-end (md5 grouping +
    Jaccard self-join + recursive-CTE reachability).

    ``max_gram_df`` is the Jaccard leg's stop-gram cap (see
    ``_ngram_pairs_impl``) — the scale knob for low-diversity corpora
    where hot grams put thousands of docs in one pair group (measured:
    a 31-token-vocab 500k-doc fixture is pair-quadratic uncapped,
    probes/scale_smoke.py text_ops). ``None`` (default) keeps the
    bit-exact oracle face."""
    from .agg import partitioned_group_apply

    def add_hash(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"].astype("int64"),
            "text_md5": [hashlib.md5(t.encode("utf-8")).hexdigest()
                         for t in batch["text"].fillna("")]})

    docs = _io_read(f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "text"]) \
        .map_batches(add_hash, batch_format="pandas")

    def exact_edges(df: pd.DataFrame) -> pd.DataFrame:
        mins = df.groupby("text_md5")["doc_id"].transform("min")
        sel = df["doc_id"] != mins
        return pd.DataFrame({"u": mins[sel].astype("int64"),
                             "v": df.loc[sel, "doc_id"].astype("int64")})

    e1 = partitioned_group_apply(docs, ["text_md5"], exact_edges)

    def as_uv(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"u": batch["doc_a"].astype("int64"),
                             "v": batch["doc_b"].astype("int64")})

    e2 = ngram_jaccard_pairs_ds(sf_dir, threshold_pm=threshold_pm,
                                max_gram_df=max_gram_df) \
        .map_batches(as_uv, batch_format="pandas")

    nodes = _io_read(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    comp = connected_components(e1.union(e2), nodes, "doc_id",
                                out_label="canonical_id")

    def decide(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"].astype("int64"),
            "canonical_id": batch["canonical_id"].astype("int64"),
            "keep": (batch["doc_id"] == batch["canonical_id"])
                    .astype("int64")})

    return comp.map_batches(decide, batch_format="pandas")


def semdedup_ds(sf_dir: str, n_clusters: int = 16, threshold_pm: int = 950,
                max_cluster: int | None = None):
    """SemDeDup (Abbas et al. 2023): semantic deduplication by k-means
    clustering + within-cluster cosine pruning — the embedding-space
    complement of the n-gram near-dup family, and the standard "prune
    semantically redundant web data before training" step.

    Plan (no all-pairs, no driver materialization):
    1. deterministic spherical k-means centroids, sample-trained
       (``ops.similarity._train_centroids``) and broadcast once;
    2. one shuffle-free map assigns every vector its nearest-centroid
       cluster (vectorized argmax over unit vectors);
    3. ``partitioned_group_apply`` on the cluster id runs the greedy
       keep/drop INSIDE workers: visiting vec_ids ascending, a row is
       dropped iff its floor-per-mille cosine to an already-KEPT row of the
       same cluster is >= ``threshold_pm``. Cluster size bounds per-task
       work (pair space is sum of cluster sizes squared, not corpus²).

    ``n_clusters=1`` collapses to the serial whole-corpus greedy — the
    brute-force oracle face in tests. Returns one row per vector:
    (vec_id, cluster, keep, dup_of) with dup_of = the kept row it
    duplicates (highest cosine, first-max tie-break; -1 for kept rows).

    ``max_cluster`` is the stop-hash cap (same deterministic contract as
    the LSH band / quadrant / hot-gram caps): a cluster larger than the cap
    is kept WHOLE — no pruning, no O(K²) similarity matrix — because a
    quantizer cell that degenerate means the centroids under-fit (the
    production fix is more clusters: the paper sizes n_clusters ~ √N).
    Keeping is the conservative direction for training data; ``None``
    (default) disables — the oracle face.
    """
    import ray as _ray

    from .agg import partitioned_group_apply
    from .similarity import _train_centroids

    C = _train_centroids(sf_dir, n_clusters)
    cent_ref = _ray.put(C)

    def assign(batch: pd.DataFrame, _cache={}) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "cluster": pd.Series([], dtype="int64"),
                                 "nv": pd.Series([], dtype="object")})
        if "C" not in _cache:  # one fetch per worker process
            _cache["C"] = _ray.get(cent_ref)
        mat = np.stack(batch["embedding"].to_list()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = mat / np.where(norms == 0.0, 1.0, norms)
        return pd.DataFrame({
            "vec_id": batch["vec_id"].astype("int64"),
            "cluster": np.argmax(_cache["C"] @ mat.T, axis=0)
            .astype(np.int64),
            "nv": list(mat),
        })

    def prune_cluster(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for cl, g in df.groupby("cluster", sort=False):
            order = np.argsort(g["vec_id"].to_numpy(), kind="stable")
            ids = g["vec_id"].to_numpy()[order]
            if max_cluster is not None and len(ids) > max_cluster:
                # degenerate quantizer cell: keep whole (cap contract above)
                frames.append(pd.DataFrame({
                    "vec_id": ids, "cluster": np.int64(cl),
                    "keep": np.ones(len(ids), dtype=bool),
                    "dup_of": np.full(len(ids), -1, dtype=np.int64)}))
                continue
            mat = np.stack(g["nv"].to_list())[order]
            pm = np.floor((mat @ mat.T) * 1000.0).astype(np.int64)
            keep = np.zeros(len(ids), dtype=bool)
            dup_of = np.full(len(ids), -1, dtype=np.int64)
            kept_idx: list[int] = []
            for i in range(len(ids)):
                if kept_idx:
                    sims = pm[i, kept_idx]
                    j = int(np.argmax(sims))
                    if sims[j] >= threshold_pm:
                        dup_of[i] = ids[kept_idx[j]]
                        continue
                keep[i] = True
                kept_idx.append(i)
            frames.append(pd.DataFrame({
                "vec_id": ids, "cluster": np.int64(cl),
                "keep": keep, "dup_of": dup_of}))
        return pd.concat(frames, ignore_index=True) if frames else \
            pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                          "cluster": pd.Series([], dtype="int64"),
                          "keep": pd.Series([], dtype="bool"),
                          "dup_of": pd.Series([], dtype="int64")})

    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                  columns=["vec_id", "embedding"])
    assigned = ds.map_batches(assign, batch_format="pandas",
                              batch_size=4096)
    return partitioned_group_apply(assigned, ["cluster"], prune_cluster,
                                   num_partitions=min(n_clusters, 32))


def semdedup_quant_ds(sf_dir: str, n_clusters: int = 8, rounds: int = 2,
                      threshold_q: int = 300_000):
    """SemDeDup under the INTEGER quantized metric — the SQL-oracled twin
    of ``semdedup_ds`` (r4 VERDICT next #6, the md5-minhash pattern applied
    to the embedding-dedup family): the identical cluster-then-greedy plan
    with the float spherical quantizer swapped for the repo's quantized
    Lloyd coarse quantizer (``similarity._kmeans_centroids`` — the same
    unrolled-CTE body `kmeans_embeddings`/`ann_ivf_quant` oracle) and the
    within-cluster cosine replaced by the integer dot of floor(x·1000)
    vectors, so DuckDB replays training, assignment AND the sequential
    greedy keep/drop bit-exactly (the greedy unrolls as a one-rank-per-step
    recursive CTE carrying each cluster's kept-rank list).

    Greedy contract (== semdedup_ds): visiting vec_ids ascending within a
    cluster, a row is dropped iff its qdot to an already-KEPT row is
    ≥ ``threshold_q``; dup_of = the kept row with the highest qdot
    (first-max tie-break), -1 for kept rows. Returns one row per vector:
    (vec_id, cluster, keep[0/1 int], dup_of).

    Scale plan is semdedup_ds's: centroids broadcast once, one shuffle-free
    assignment map, the greedy runs inside ``partitioned_group_apply`` on
    the cluster id (pair space bounded by cluster sizes, never corpus²).
    The float face keeps the ``semdedup_float`` name (rows-only)."""
    import ray as _ray

    from .agg import partitioned_group_apply
    from .similarity import _assign_quant, _kmeans_centroids, _quant_stage

    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                  columns=["vec_id", "embedding"])
    qds = ds.map_batches(_quant_stage("vec_id", "embedding"),
                         batch_format="pandas")
    cen = _kmeans_centroids(qds, "vec_id", n_clusters, rounds)
    cent_ref = _ray.put(cen)

    def assign(batch: pd.DataFrame, _cache={}) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "cluster": pd.Series([], dtype="int64"),
                                 "q": pd.Series([], dtype="object")})
        if "C" not in _cache:  # one fetch per worker process
            _cache["C"] = _ray.get(cent_ref)
        mat = np.stack(batch["__q"].to_list())
        a, _ = _assign_quant(mat, _cache["C"])
        return pd.DataFrame({"vec_id": batch["vec_id"].astype("int64"),
                             "cluster": a.astype(np.int64),
                             "q": list(mat)})

    _empty = pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                           "cluster": pd.Series([], dtype="int64"),
                           "keep": pd.Series([], dtype="int64"),
                           "dup_of": pd.Series([], dtype="int64")})

    def prune_cluster(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for cl, g in df.groupby("cluster", sort=False):
            order = np.argsort(g["vec_id"].to_numpy(), kind="stable")
            ids = g["vec_id"].to_numpy()[order]
            mat = np.stack(g["q"].to_list())[order]
            qd = mat @ mat.T  # exact int64 dots (|q| ≤ ~1000·dim)
            keep = np.zeros(len(ids), dtype=np.int64)
            dup_of = np.full(len(ids), -1, dtype=np.int64)
            kept_idx: list[int] = []
            for i in range(len(ids)):
                if kept_idx:
                    sims = qd[i, kept_idx]
                    j = int(np.argmax(sims))  # first max == lowest rank
                    if sims[j] >= threshold_q:
                        dup_of[i] = ids[kept_idx[j]]
                        continue
                keep[i] = 1
                kept_idx.append(i)
            frames.append(pd.DataFrame({
                "vec_id": ids, "cluster": np.int64(cl),
                "keep": keep, "dup_of": dup_of}))
        return pd.concat(frames, ignore_index=True) if frames else _empty

    assigned = qds.map_batches(assign, batch_format="pandas",
                               batch_size=4096)
    return partitioned_group_apply(assigned, ["cluster"], prune_cluster,
                                   num_partitions=min(n_clusters, 32))


def dedup_canonical_ds(sf_dir: str):
    """Canonical-representative selection: for every exact-duplicate group
    (same text md5), keep the BEST copy — longest ``n_chars``, ties broken
    by smallest ``doc_id`` — instead of ``exact_dedup``'s blind min-id rule.
    This is the curation step that follows clustering in production dedup
    (pick the least-truncated / least-mangled copy as the group's survivor).

    Scale plan: only slim (text_md5, doc_id, n_chars) rows shuffle — the
    per-doc md5 is computed in-batch at the read, texts never move — and the
    argmax is ``grouped_top_n(n=1)``'s local-prune-then-one-coarse-partition
    plan, so per-task work is bounded regardless of how hot a duplicate
    group is (each block contributes at most one candidate row per group it
    sees). Returns the DISTRIBUTED manifest (one row per distinct text —
    essentially the deduped corpus) like ``exact_dedup_ds``; callers decide
    whether to collect.
    """
    from .agg import grouped_top_n

    def slim(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "text_md5": [hashlib.md5(t.encode("utf-8")).hexdigest()
                         for t in batch["text"].fillna("")],
            "doc_id": batch["doc_id"].astype("int64").to_numpy(),
            "n_chars": batch["n_chars"].astype("int64").to_numpy()})

    slim_ds = _io_read(f"{sf_dir}/documents.parquet",
                       columns=["doc_id", "text", "n_chars"]) \
        .map_batches(slim, batch_format="pandas")
    top = grouped_top_n(slim_ds, ["text_md5"], "n_chars", n=1,
                        ascending=False, tie_cols=["doc_id"])

    _schema = pa.schema([("text_md5", pa.string()),
                         ("canon_doc_id", pa.int64()),
                         ("n_chars", pa.int64())])

    def finish(df: pd.DataFrame) -> pa.Table:
        # emit Arrow: empty pandas blocks lose their schema in Ray, empty
        # Arrow blocks keep it (the empty-corpus case stays typed)
        if "text_md5" not in df.columns:  # schema dropped on empty blocks
            return _schema.empty_table()
        out = df.rename(columns={"doc_id": "canon_doc_id"}) \
            [["text_md5", "canon_doc_id", "n_chars"]] \
            .astype({"canon_doc_id": "int64", "n_chars": "int64"})
        return pa.Table.from_pandas(out, schema=_schema,
                                    preserve_index=False)

    # union one typed empty block: an all-empty shuffle yields ZERO blocks
    # (no UDF ever runs), which would leave the manifest schema-less
    import ray
    return top.map_batches(finish, batch_format="pandas") \
        .union(ray.data.from_arrow(_schema.empty_table()))


def tfidf_cosine_pairs_ds(sf_dir: str, threshold_ppm: int = 250_000,
                          num_partitions: int = 32):
    """Exact sparse TF-IDF cosine pair scores within each ``source``
    partition — the exact-similarity counterpart of the MinHash/SimHash
    estimates: score(a,b) = cos²(a,b) in parts-per-million under integer
    weights w = tf · ibits, where ibits = bit_length(N // df) − 1 is the
    integer-quantized idf (the unigram-surprisal bit convention, so the
    DuckDB oracle is exact: ``length(bin(N // df)) - 1``).

    Emitting cos² instead of cos keeps everything in integer arithmetic
    (no sqrt): cos²·10⁶ = 10⁶·dot² // (na2·nb2). The default threshold
    250 000 ppm = cosine ≥ 0.5.

    Scale plan (the `_ngram_pairs_impl` shape, token-weighted):

    1. one distributed pass computes corpus df per token (per-batch
       distinct (token, doc) partials → token-hash partition); the
       O(vocab) (token → ibits) table is broadcast once via ``ray.put``;
    2. the weights explode drops ibits = 0 tokens — every token appearing
       in more than half the corpus vanishes BEFORE the pair stage, the
       built-in stopword suppression that bounds corpus-wide hot tokens;
       per-doc na2 = Σw² is computed in-batch (a doc is one input row);
    3. pairs need same-token co-location only: one coarse hash partition
       of (source, token) does a vectorized self-merge per slice, emitting
       per-pair dot partials; a second slim shuffle sums per pair.

    ALL similarity partials (w·w products, per-pair dot sums, per-doc na2
    norms) are exact Python ints carried in object-dtype columns — the
    oracle sums the same quantities as HUGEINT, and a 10⁶-token document's
    Σw² already exceeds int64, so int64 partials would silently wrap (the
    grouped_int_variance precedent). Only the bounded outputs (doc ids,
    cos2_ppm ≤ 10⁶) are int64.
    A token hot WITHIN one source but rare corpus-wide keeps a high ibits
    and pays O(df_source²) in its slice — the documented residual skew,
    same contract as the Jaccard face's uncapped mode (cap via the
    stop-gram recompute pattern if a corpus needs it).
    """
    import ray

    from .agg import partitioned_group_apply

    from .text import token_ibits_ref

    docs = _io_read(f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "source", "text"])
    # the shared integer-idf pass (one bit convention for every TF-IDF
    # face); the table arrives pre-filtered to ibits > 0
    _, ibits_ref = token_ibits_ref(docs, num_partitions)

    def weights(batch: pd.DataFrame, _cache={}) -> pd.DataFrame:
        if "m" not in _cache:
            _cache["m"] = ray.get(ibits_ref)
        m = _cache["m"]
        doc, src, tok, w, na2 = [], [], [], [], []
        for d, s, t in zip(batch["doc_id"], batch["source"],
                           batch["text"].fillna("")):
            tf: dict = {}
            for x in t.split(" "):
                if x in m:
                    tf[x] = tf.get(x, 0) + 1
            ws = {x: c * m[x] for x, c in tf.items()}
            norm = sum(v * v for v in ws.values())
            for x, v in ws.items():
                doc.append(d)
                src.append(s)
                tok.append(x)
                w.append(v)
                na2.append(norm)
        # w and na2 stay Python ints (object dtype): Σw² and w·w products
        # exceed int64 on large documents; the oracle uses HUGEINT
        return pd.DataFrame({
            "doc_id": pd.Series(doc, dtype="int64"),
            "source": pd.Series(src, dtype="object"),
            "token": pd.Series(tok, dtype="object"),
            "w": pd.Series(w, dtype="object"),
            "na2": pd.Series(na2, dtype="object")})

    _pair_empty = pd.DataFrame({
        "doc_a": pd.Series([], dtype="int64"),
        "doc_b": pd.Series([], dtype="int64"),
        "dot": pd.Series([], dtype="object"),
        "na2": pd.Series([], dtype="object"),
        "nb2": pd.Series([], dtype="object")})

    def pair_partials(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return _pair_empty
        m = df.merge(df, on=["source", "token"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        if not len(m):
            return _pair_empty
        # object-dtype products: exact Python ints, no int64 wraparound
        m["dp"] = m["w_x"] * m["w_y"]
        out = m.groupby(["doc_id_x", "doc_id_y"], as_index=False).agg(
            dot=("dp", "sum"), na2=("na2_x", "first"),
            nb2=("na2_y", "first"))
        out.columns = ["doc_a", "doc_b", "dot", "na2", "nb2"]
        return out.astype({"doc_a": "int64", "doc_b": "int64",
                           "dot": "object", "na2": "object",
                           "nb2": "object"})

    pairs = partitioned_group_apply(
        docs.map_batches(weights, batch_format="pandas"),
        ["source", "token"], pair_partials, num_partitions)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "doc_a" not in df.columns:
            return pd.DataFrame({
                "doc_a": pd.Series([], dtype="int64"),
                "doc_b": pd.Series([], dtype="int64"),
                "cos2_ppm": pd.Series([], dtype="int64")})
        agg = df.groupby(["doc_a", "doc_b"], as_index=False).agg(
            dot=("dot", "sum"), na2=("na2", "first"), nb2=("nb2", "first"))
        # Python-int ppm: 10^6 · dot² overflows int64 at large docs
        ppm = np.fromiter(
            ((1_000_000 * int(d) * int(d)) // (int(a) * int(b))
             for d, a, b in zip(agg["dot"], agg["na2"], agg["nb2"])),
            dtype="int64", count=len(agg))
        keep = ppm >= threshold_ppm
        return pd.DataFrame({
            "doc_a": agg.loc[keep, "doc_a"].astype("int64").to_numpy(),
            "doc_b": agg.loc[keep, "doc_b"].astype("int64").to_numpy(),
            "cos2_ppm": pd.Series(ppm[keep], dtype="int64")})

    return partitioned_group_apply(pairs, ["doc_a", "doc_b"], finish,
                                   num_partitions)


# ---------------------------------------------- sorted-neighborhood blocking

def snm_pairs(ds, id_col: str, metric_col: str, window: int = 2,
              block: int = 1024, metric_offset: int = 0,
              out_a: str = "id_a", out_b: str = "id_b",
              gap_col: str = "gap", num_partitions: int = 32):
    """Sorted-Neighborhood Method blocking (Hernández & Stolfo 1995) — the
    third classic candidate-pair generator beside the LSH-bucket and
    quadrant plans, GENERIC over (id, integer blocking metric): order the
    corpus by (metric, id) and emit each record paired with its next
    ``window`` neighbors in that order. ``metric_offset`` shifts a
    possibly-negative metric non-negative before key packing (ids < 2^40,
    shifted metric ≥ 0 — the repo's composite-key invariant).

    Scale plan: NO global sort. The global rank comes from
    ``pack.ordered_pack``'s two-phase range-partitioned prefix count
    (weight 1 → dense 0-based rank, the ``_surprisal_rank`` trick). Ranks
    then bucket by ``rk // block``; a row whose rank sits within ``window``
    of its bucket's floor is ALSO copied to the previous bucket (boundary
    replication — the ≤ window/block overhead replaces any cross-partition
    coordination), and each bucket pairs rank r with r+1 … r+window
    entirely locally, emitting only pairs whose LEFT row it owns. Ranks are
    dense by construction, so neighbor lookup is a vectorized shift, not a
    join. Output: (out_a, out_b, gap_col), out_a the lower-ranked side and
    gap_col the (unshifted) metric difference.
    """
    from .agg import partitioned_group_apply
    from .pack import ordered_pack

    if not 0 < window < block:
        raise ValueError(f"need 0 < window < block, got {window}/{block}")

    def keyed(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[id_col].astype("int64")
        metric = batch[metric_col].astype("int64")
        shifted = metric + metric_offset
        if len(batch) and (int(shifted.min()) < 0
                           or int(ids.max()) >= (1 << 40)):
            # ordered_pack's order key must be non-negative and the pack
            # needs ids < 2^40 — fail loudly instead of emitting silently
            # wrong candidate pairs (e.g. a negative metric without its
            # metric_offset)
            raise ValueError(
                f"snm_pairs key out of range: metric+offset min "
                f"{int(shifted.min())}, id max {int(ids.max())} "
                f"(need shifted ≥ 0 and ids < 2^40)")
        return pd.DataFrame({
            "__id": ids, "__m": metric,
            "__key": shifted * (1 << 40) + ids,
            "__one": np.int64(1)})

    ranked = ordered_pack(ds.map_batches(keyed, batch_format="pandas"),
                          "__key", "__one", budget=1,
                          bucket_width=64 << 40, out_col="__rk",
                          num_partitions=num_partitions)

    def replicate(df: pd.DataFrame) -> pd.DataFrame:
        rk = df["__rk"].to_numpy(dtype=np.int64)
        out = df[["__id", "__m", "__rk"]].copy()
        out["__b"] = rk // block
        tail = (rk % block < window) & (rk >= block)
        extra = out[tail].copy()
        extra["__b"] = extra["__b"] - 1
        return pd.concat([out, extra], ignore_index=True)

    rep = ranked.map_batches(replicate, batch_format="pandas")

    def pairs_in_part(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for b, g in df.groupby("__b", sort=False):
            g = g.sort_values("__rk")
            rk = g["__rk"].to_numpy(dtype=np.int64)
            ids = g["__id"].to_numpy(dtype=np.int64)
            nc = g["__m"].to_numpy(dtype=np.int64)
            own = (rk // block) == b
            for d in range(1, window + 1):
                if len(g) <= d:
                    break
                m = own[:-d] & (rk[d:] - rk[:-d] == d)
                outs.append(pd.DataFrame({
                    out_a: ids[:-d][m], out_b: ids[d:][m],
                    gap_col: nc[d:][m] - nc[:-d][m]}))
        if not outs:
            return pd.DataFrame({out_a: pd.Series([], dtype="int64"),
                                 out_b: pd.Series([], dtype="int64"),
                                 gap_col: pd.Series([], dtype="int64")})
        return pd.concat(outs, ignore_index=True).astype("int64")

    return partitioned_group_apply(rep, ["__b"], pairs_in_part,
                                   num_partitions)


def sorted_neighborhood_pairs_ds(sf_dir: str, window: int = 2,
                                 block: int = 1024,
                                 num_partitions: int = 32):
    """SNM blocking over documents, keyed (n_chars, doc_id) —
    near-identical documents have near-identical lengths, so
    length-adjacency is a cheap high-recall blocking axis that needs no
    text shuffle at all. Output: (doc_a, doc_b, char_gap); the generic
    plan is ``snm_pairs``."""
    docs = _io_read(f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "n_chars"])
    return snm_pairs(docs, "doc_id", "n_chars", window=window, block=block,
                     out_a="doc_a", out_b="doc_b", gap_col="char_gap",
                     num_partitions=num_partitions)


# ----------------------------- prefix-filter set-similarity join (SSJoin)

def _gram_hash64(grams: list[str]) -> np.ndarray:
    """Full-64-bit vectorized gram hash (``core.hashing.sip64``) — NOT
    ``hash64_batch``, whose two-crc32 construction collapses to an
    effective 32-bit hash for equal-length strings; this family keeps
    the g²/2⁶⁵ within-pair collision odds the bit-exact-oracle contract
    quotes (see sip64's docstring for the failure analysis)."""
    from ..core.hashing import sip64
    return sip64(grams).astype(np.int64)


def _distinct_gram_rows(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, w) rows — DISTINCT word 3-grams per document under the
    corpus-wide convention (``ops.text.space_split_ngrams``), carried as
    64-bit gram HASHES (``_gram_hash64``), never strings: every exchange
    of the prefix-filter plan moves slim int64 rows. Sound because the
    verified OUTPUT is invariant to the canonical order (candidates are
    complete under ANY globally consistent gram order — the completeness
    proof never uses which order), and the exact-Jaccard verify already
    counts 64-bit hashes (the accepted collision convention of
    ``_md5_gram_hashes``). A doc is one input row, so per-batch dedup is
    globally complete."""
    from .text import space_split_ngrams
    ids, hashes = [], []
    for d, t in zip(batch["doc_id"], batch["text"].fillna("")):
        gs = space_split_ngrams(t)
        if not gs:
            continue
        ids.extend([int(d)] * len(gs))
        hashes.append(_gram_hash64(list(gs)))
    return pd.DataFrame({"doc_id": pd.Series(ids, dtype="int64"),
                         "w": pd.Series(
                             np.concatenate(hashes) if hashes else [],
                             dtype="int64")})


def prefix_jaccard_pairs_ds(sf_dir: str, threshold_pm: int = 500,
                            num_partitions: int = 32):
    """EXACT set-similarity self-join over document 3-gram sets — prefix
    filtering (SSJoin, Chaudhuri/Ganti/Kaushik ICDE'06; All-Pairs, Bayardo
    et al. WWW'07): the deterministic, no-false-negative alternative to
    MinHash-LSH candidates, over the SAME gram sets the MinHash verify
    scores (``space_split_ngrams``). Canonical gram order = ascending
    global document frequency (rarest first), ties by 64-bit gram hash —
    the ORDER is an internal choice (see ``_distinct_gram_rows``: the
    verified output is order-invariant, so the oracle's string-ordered
    plan yields the identical result); a doc of ``s`` distinct grams
    indexes only its first ``s - ceil(t·s) + 1``
    grams; any pair with Jaccard ≥ t provably shares a prefix gram (the
    minimal common gram of the intersection lies in both prefixes — if it
    sat outside doc x's prefix, the whole intersection would fit in x's
    suffix of size ceil(t·s)-1 < ceil(t·s) ≤ |∩|), so candidates are
    COMPLETE — unlike LSH there is no recall loss — while hot
    (boilerplate-class) grams never generate buckets because frequent
    grams sort to the suffix.

    Plan (every exchange a coarse hash partition, no broadcast state):
      1. explode DISTINCT (doc_id, gram) rows, in-batch;
      2. shuffle on gram → attach global df to each row;
      3. shuffle on doc_id → rank by (df, gram), keep the prefix;
      4. shuffle on gram → in-bucket self-merge → distinct candidate
         pairs (prefix buckets are df-ordered-rare, hence small);
      5. the shared two-shuffle bucketed verify
         (``_verified_jaccard_pairs`` over ``_gram_hash64`` sides — the
         hash family is internal to the engine, so the fast vectorized
         full-64-bit kernel applies) computes exact integer Jaccard over
         the full gram sets and keeps floor-per-mille ≥ ``threshold_pm``.

    At 100 TB this is the exact-dedup complement to the MinHash path: same
    shuffle discipline (slim int64/gram-hash rows, never text), one more
    exchange than LSH in return for provably-zero false negatives.
    Returns (doc_a, doc_b, jaccard_pm) — bit-exact vs
    ``oracle_sql()['prefix_jaccard_pairs']``."""
    from .agg import partitioned_group_apply

    docs = _io_read(f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "text"])
    toks = docs.map_batches(_distinct_gram_rows, batch_format="pandas")

    # 2. gram-partitioned df attach: a partition holds every row of each
    # of its grams, so the group size IS the gram's global df
    def attach_df(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["dfn"] = out.groupby("w")["doc_id"].transform("size") \
            .astype("int64")
        return out

    with_df = partitioned_group_apply(toks, ["w"], attach_df, num_partitions)

    # 3. doc-partitioned prefix: rank grams rarest-first, keep the first
    # s - ceil(t·s) + 1 (integer ceil: (t_pm·s + 999) // 1000); each
    # prefix row carries (s, pos) for the in-bucket size/positional
    # filters below
    def take_prefix(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "dfn", "w"], kind="mergesort")
        g = df.groupby("doc_id")["w"]
        rn = (g.cumcount() + 1).astype("int64")
        s = g.transform("size").astype("int64")
        keep = rn <= s - ((threshold_pm * s + 999) // 1000) + 1
        out = df.loc[keep, ["doc_id", "w"]].reset_index(drop=True)
        out["s"] = s[keep].to_numpy()
        out["pos"] = rn[keep].to_numpy()
        return out

    pref = partitioned_group_apply(with_df, ["doc_id"], take_prefix,
                                   num_partitions)

    # 4. prefix-gram buckets → candidate pairs (vectorized self-merge,
    # the _band_candidates shape) with the two classic
    # completeness-preserving prunes applied IN-BUCKET, before any pair
    # ships (on the templated sf corpus they cut candidates ~50×):
    #   SIZE filter (SSJoin): J ≥ t ⇒ t·max(sa,sb) ≤ min(sa,sb);
    #   POSITIONAL filter (PPJoin): overlap ≤ min(sa−pa, sb−pb)+1 via
    #   this shared gram's positions, while J ≥ t needs
    #   |∩| ≥ ceil(t·(sa+sb)/(1+t));
    # then distinct pairs
    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="w")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        sa = m["s_x"].to_numpy(np.int64)
        sb = m["s_y"].to_numpy(np.int64)
        size_ok = threshold_pm * np.maximum(sa, sb) \
            <= 1000 * np.minimum(sa, sb)
        ub = np.minimum(sa - m["pos_x"].to_numpy(np.int64),
                        sb - m["pos_y"].to_numpy(np.int64)) + 1
        need = -(-(threshold_pm * (sa + sb)) // (1000 + threshold_pm))
        m = m[size_ok & (ub >= need)]
        return pd.DataFrame({"doc_a": m["doc_id_x"].astype("int64"),
                             "doc_b": m["doc_id_y"].astype("int64")})

    pairs = partitioned_group_apply(pref, ["w"], pairs_in_bucket,
                                    num_partitions)
    from .graph import distinct_rows
    cands = distinct_rows(pairs, ["doc_a", "doc_b"], num_partitions)

    # 5. exact verify over full gram sets (shared bucketed two-shuffle,
    # full-64-bit vectorized hash — see _gram_hash64)
    def doc_hashes(t: str) -> np.ndarray | None:
        from .text import space_split_ngrams
        g = space_split_ngrams(t)
        return _gram_hash64(list(g)) if g else None

    return _verified_jaccard_pairs(cands, sf_dir, doc_hashes,
                                   threshold_pm=threshold_pm)
