"""Similarity search over an embedding column (``list<float>``).

Baseline: brute-force cosine top-k — numpy matmul per batch against a
broadcast query matrix (``ray.put`` once, ``ray.get`` in each actor's
``__init__``; never re-shipped per batch). Each batch emits its local top-k
per query (partial agg); a tiny ``groupby(query_id)`` merge produces the
global top-k — the shuffle moves only k rows per (query, block).

Scale path: LSH bucketing by random-hyperplane signs (seed-stable planes) —
probes only matching buckets, trading recall for a ~2^bits fan-in reduction.

The SQL-oracle-checked face (`ann_quantized`) scores with integer quantized
inner products (``floor(float64(x)·1000)``), bit-exact vs DuckDB.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray

from .io import read_parquet as _io_read

from ..core.hashing import stable_rng


def _load_queries(sf_dir: str, n_queries: int) -> pd.DataFrame:
    """The n query rows (smallest vec_ids). Pruned two-phase read (r1
    VERDICT fix #5): an id-column-only scan finds the cutoff, then a
    predicate-pushdown read fetches just those rows — never the whole
    embedding table into driver memory."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    dset = pads.dataset(f"{sf_dir}/embeddings.parquet", format="parquet")
    ids = dset.to_table(columns=["vec_id"])["vec_id"].to_numpy()
    if len(ids) > n_queries:
        cutoff = np.partition(ids, n_queries - 1)[n_queries - 1]
    else:
        cutoff = ids.max() if len(ids) else 0
    t = dset.to_table(filter=pads.field("vec_id") <= pc.scalar(cutoff))
    return t.to_pandas().nsmallest(n_queries, "vec_id").reset_index(drop=True)


class BruteForceScorer:
    """Actor: holds the normalized query matrix (fetched from the object
    store once, in __init__)."""

    def __init__(self, queries_ref, k: int):
        q = ray.get(queries_ref)
        self.qids = q["vec_id"].to_numpy()
        qm = np.stack(q["embedding"].to_list()).astype(np.float64)
        self.qmat = qm / np.linalg.norm(qm, axis=1, keepdims=True)
        self.k = k

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["vec_id"].to_numpy()
        mat = np.stack(batch["embedding"].to_list()).astype(np.float64)
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = self.qmat @ mat.T                     # (Q, B)
        k = min(self.k, sims.shape[1])
        rows = {"query_id": [], "vec_id": [], "sim_pm": []}
        for qi, qid in enumerate(self.qids):
            # batch-local top-k (partial), deterministic tie-break by vec_id
            order = np.lexsort((ids, -sims[qi]))[:k]
            rows["query_id"].extend([qid] * len(order))
            rows["vec_id"].extend(ids[order])
            rows["sim_pm"].extend(
                np.floor(sims[qi][order] * 1000.0).astype(np.int64))
        return pd.DataFrame(rows)


def _merge_topk(k: int):
    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["sim_pm", "vec_id"],
                              ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g
    return merge


def ann_bruteforce_ds(sf_dir: str, n_queries: int = 8, k: int = 10):
    """Global cosine top-k per query (self-search over the embeddings table)."""
    queries_ref = ray.put(_load_queries(sf_dir, n_queries))
    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    partial = ds.map_batches(
        BruteForceScorer,
        fn_constructor_kwargs={"queries_ref": queries_ref, "k": k},
        batch_format="pandas", batch_size=4096, concurrency=2)
    return partial.groupby("query_id").map_groups(
        _merge_topk(k), batch_format="pandas")


# ---------------------------------------------------------------- LSH variant

class LshBucketStage:
    """Random-hyperplane signature: seed-stable planes built once per actor."""

    def __init__(self, dim: int, n_bits: int = 8, seed: int = 42):
        self.planes = stable_rng("lsh-planes", seed).standard_normal((n_bits, dim))

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(batch["embedding"].to_list()).astype(np.float64)
        signs = (self.planes @ mat.T) > 0                       # (bits, B)
        bucket = np.zeros(mat.shape[0], dtype=np.int64)
        for b in range(signs.shape[0]):
            bucket = (bucket << 1) | signs[b]
        out = batch[["vec_id"]].copy()
        out["bucket"] = bucket
        out["embedding"] = batch["embedding"]
        return out


def ann_lsh_ds(sf_dir: str, n_queries: int = 8, k: int = 10, n_bits: int = 8):
    """Bucketed ANN: queries probe only their own hyperplane bucket.

    Recall < 1 by design (reported vs brute force in tests); fan-in per query
    drops ~2^n_bits — the 10^10-row path.
    """
    import pyarrow.parquet as pq
    dim = len(pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 1)
              .to_pandas()["embedding"][0])
    queries = _load_queries(sf_dir, n_queries)
    stage = LshBucketStage(dim, n_bits)
    qmat = np.stack(queries["embedding"].to_list()).astype(np.float64)
    qsigns = (stage.planes @ qmat.T) > 0
    qbucket = np.zeros(len(queries), dtype=np.int64)
    for b in range(qsigns.shape[0]):
        qbucket = (qbucket << 1) | qsigns[b]
    queries = queries.assign(bucket=qbucket)
    queries_ref = ray.put(queries)

    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    # instance (not class) → stateless tasks: the plane matrix is tiny, and
    # task-based stages avoid reserving a whole actor pool on small clusters
    bucketed = ds.map_batches(LshBucketStage(dim, n_bits),
                              batch_format="pandas", batch_size=4096)

    class BucketScorer:
        def __init__(self):
            q = ray.get(queries_ref)
            self.by_bucket: dict[int, pd.DataFrame] = {
                int(b): g for b, g in q.groupby("bucket")}
            self.k = k

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            frames = []
            for b, g in batch.groupby("bucket"):
                qs = self.by_bucket.get(int(b))
                if qs is None or not len(g):
                    continue
                ids = g["vec_id"].to_numpy()
                mat = np.stack(g["embedding"].to_list()).astype(np.float64)
                mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
                qm = np.stack(qs["embedding"].to_list()).astype(np.float64)
                qm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
                sims = qm @ mat.T
                for qi, qid in enumerate(qs["vec_id"].to_numpy()):
                    order = np.lexsort((ids, -sims[qi]))[: self.k]
                    frames.append(pd.DataFrame({
                        "query_id": qid, "vec_id": ids[order],
                        "sim_pm": np.floor(sims[qi][order] * 1000.0).astype(np.int64),
                    }))
            if not frames:
                return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                                     "vec_id": pd.Series([], dtype="int64"),
                                     "sim_pm": pd.Series([], dtype="int64")})
            return pd.concat(frames, ignore_index=True)

    partial = bucketed.map_batches(BucketScorer(), batch_format="pandas",
                                   batch_size=8192)
    return partial.groupby("query_id").map_groups(
        _merge_topk(k), batch_format="pandas")


# ---------------------------------------------------------------- IVF variant

def _train_centroids(sf_dir: str, n_lists: int, iters: int = 5,
                     sample: int = 2048) -> np.ndarray:
    """Deterministic coarse quantizer: spherical k-means (few Lloyd rounds)
    on a bounded head-sample of the table. Seeded via stable_rng, so every
    run and every worker sees identical lists. At 100 TB the sample read
    stays O(sample) — train once, broadcast the (n_lists × dim) matrix."""
    import pyarrow.dataset as pads
    dset = pads.dataset(f"{sf_dir}/embeddings.parquet", format="parquet")
    X = []
    need = sample
    for b in dset.to_batches(columns=["embedding"], batch_size=1024):
        X.extend(b.column("embedding").to_pylist())
        need -= b.num_rows
        if need <= 0:
            break
    X = np.asarray(X[:sample], dtype=np.float64)
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    rng = stable_rng("ivf-centroids", n_lists)
    C = X[rng.choice(len(X), size=min(n_lists, len(X)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(C @ X.T, axis=0)           # cosine (unit norms)
        for j in range(len(C)):
            members = X[assign == j]
            if len(members):
                m = members.mean(axis=0)
                n = np.linalg.norm(m)
                if n > 0:
                    C[j] = m / n
    return C


def ann_ivf_ds(sf_dir: str, n_queries: int = 8, k: int = 10,
               n_lists: int = 16, nprobe: int = 2):
    """IVF ANN: coarse-quantizer inverted lists, queries probe the nprobe
    nearest lists only (the classic IVF-Flat plan; recall vs brute force is
    asserted in tests). Fan-in per query drops ~n_lists/nprobe — the other
    10^10-row path next to ann_lsh_ds."""
    C = _train_centroids(sf_dir, n_lists)
    queries = _load_queries(sf_dir, n_queries)
    qm = np.stack(queries["embedding"].to_list()).astype(np.float64)
    qm_n = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    probe = np.argsort(-(C @ qm_n.T), axis=0)[:nprobe].T   # (Q, nprobe)
    queries = queries.assign(probes=[set(map(int, p)) for p in probe])
    queries_ref = ray.put(queries)
    cent_ref = ray.put(C)

    class IvfAssign:
        def __init__(self):
            self.C = ray.get(cent_ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            mat = np.stack(batch["embedding"].to_list()).astype(np.float64)
            mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
            out = batch[["vec_id"]].copy()
            out["list_id"] = np.argmax(self.C @ mat.T, axis=0).astype(np.int64)
            out["embedding"] = batch["embedding"]
            return out

    class ListScorer:
        def __init__(self):
            q = ray.get(queries_ref)
            self.qids = q["vec_id"].to_numpy()
            qmat = np.stack(q["embedding"].to_list()).astype(np.float64)
            self.qmat = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
            self.probes = list(q["probes"])
            self.k = k

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            frames = []
            for lid, g in batch.groupby("list_id"):
                q_idx = [i for i, p in enumerate(self.probes) if int(lid) in p]
                if not q_idx or not len(g):
                    continue
                ids = g["vec_id"].to_numpy()
                mat = np.stack(g["embedding"].to_list()).astype(np.float64)
                mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
                sims = self.qmat[q_idx] @ mat.T
                for row, qi in enumerate(q_idx):
                    order = np.lexsort((ids, -sims[row]))[: self.k]
                    frames.append(pd.DataFrame({
                        "query_id": self.qids[qi], "vec_id": ids[order],
                        "sim_pm": np.floor(sims[row][order] * 1000.0)
                        .astype(np.int64)}))
            if not frames:
                return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                                     "vec_id": pd.Series([], dtype="int64"),
                                     "sim_pm": pd.Series([], dtype="int64")})
            return pd.concat(frames, ignore_index=True)

    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                  columns=["vec_id", "embedding"])
    assigned = ds.map_batches(IvfAssign(), batch_format="pandas",
                              batch_size=4096)
    partial = assigned.map_batches(ListScorer(), batch_format="pandas",
                                   batch_size=8192)
    return partial.groupby("query_id").map_groups(
        _merge_topk(k), batch_format="pandas")


# ---------------------------------------------------------------- PQ variant

def _train_pq_codebooks(sf_dir: str, m: int, ks: int, iters: int = 5,
                        sample: int = 2048) -> np.ndarray:
    """Deterministic product-quantization codebooks: plain L2 Lloyd rounds
    per subspace on a bounded head-sample of UNIT-normalized vectors (PQ on
    the unit sphere makes ADC L2 a monotone proxy for cosine:
    ||a-b||² = 2 - 2·cos). Same O(sample) train / broadcast-once contract
    as the IVF coarse quantizer. Returns (m, ks, dim//m)."""
    import pyarrow.dataset as pads
    dset = pads.dataset(f"{sf_dir}/embeddings.parquet", format="parquet")
    X = []
    need = sample
    for b in dset.to_batches(columns=["embedding"], batch_size=1024):
        X.extend(b.column("embedding").to_pylist())
        need -= b.num_rows
        if need <= 0:
            break
    X = np.asarray(X[:sample], dtype=np.float64)
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    dim = X.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    dsub = dim // m
    rng = stable_rng("pq-codebooks", m * 1000 + ks)
    books = np.empty((m, ks, dsub), dtype=np.float64)
    for j in range(m):
        S = X[:, j * dsub:(j + 1) * dsub]
        C = S[rng.choice(len(S), size=min(ks, len(S)), replace=False)].copy()
        for _ in range(iters):
            d2 = ((S[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            for c in range(len(C)):
                members = S[assign == c]
                if len(members):
                    C[c] = members.mean(axis=0)
        books[j, :len(C)] = C
        if len(C) < ks:          # tiny tables: repeat last centroid
            books[j, len(C):] = C[-1]
    return books


def ann_pq_ds(sf_dir: str, n_queries: int = 8, k: int = 10,
              m: int = 8, ks: int = 16):
    """Product-quantization ANN with asymmetric distance computation (ADC,
    Jégou et al. 2011) — the memory-compression scale path next to
    ``ann_lsh_ds`` / ``ann_ivf_ds``: each vector is stored as ``m`` uint8
    codes (here 8 bytes vs 256 bytes of float32 at dim 64), so a 10^10-row
    index fits in RAM where raw vectors cannot; search never touches the
    original embeddings after encoding.

    Plan: codebooks train once on an O(sample) head read and broadcast via
    ``ray.put``; encode is one shuffle-free ``map_batches`` (vectorized
    per-subspace argmin); search precomputes each query's (m × ks) ADC
    lookup table in the scorer's ``__init__`` and scores a batch with pure
    table gathers — no float matmul against data vectors. Approximate
    cosine = 1 - d²/2 on unit vectors, floored to per-mille like every ANN
    face. Partial per-batch top-k merges through the same tiny
    ``groupby(query_id)`` as the brute-force plan. Recall vs brute force is
    pinned in tests (rows-only face: quantization error is float-ordered).
    """
    books = _train_pq_codebooks(sf_dir, m, ks)
    queries = _load_queries(sf_dir, n_queries)
    books_ref = ray.put(books)
    queries_ref = ray.put(queries)

    class PqEncode:
        def __init__(self):
            self.books = ray.get(books_ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            mat = np.stack(batch["embedding"].to_list()).astype(np.float64)
            mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
            mm, kk, dsub = self.books.shape
            codes = np.empty((len(mat), mm), dtype=np.uint8)
            for j in range(mm):
                S = mat[:, j * dsub:(j + 1) * dsub]
                # (B, ks) squared L2 via expansion: avoids the (B, ks, dsub)
                # broadcast temp at production batch sizes
                d2 = (S * S).sum(1)[:, None] \
                    - 2.0 * (S @ self.books[j].T) \
                    + (self.books[j] ** 2).sum(1)[None, :]
                codes[:, j] = np.argmin(d2, axis=1)
            out = batch[["vec_id"]].copy()
            out["codes"] = list(codes)
            return out

    class AdcScorer:
        def __init__(self):
            books = ray.get(books_ref)
            q = ray.get(queries_ref)
            self.qids = q["vec_id"].to_numpy()
            qm = np.stack(q["embedding"].to_list()).astype(np.float64)
            qm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
            mm, kk, dsub = books.shape
            # per-query ADC tables: tab[q, j, c] = ||q_sub_j - books[j, c]||²
            self.tab = np.empty((len(qm), mm, kk), dtype=np.float64)
            for j in range(mm):
                Qs = qm[:, j * dsub:(j + 1) * dsub]
                self.tab[:, j, :] = ((Qs[:, None, :]
                                      - books[j][None, :, :]) ** 2).sum(2)
            self.k = k

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            ids = batch["vec_id"].to_numpy()
            codes = np.stack(batch["codes"].to_list())          # (B, m)
            mm = codes.shape[1]
            d2 = np.zeros((len(self.qids), len(ids)), dtype=np.float64)
            for j in range(mm):                                  # m gathers
                d2 += self.tab[:, j, :][:, codes[:, j]]
            sims = 1.0 - d2 / 2.0
            kk = min(self.k, sims.shape[1])
            rows = {"query_id": [], "vec_id": [], "sim_pm": []}
            for qi, qid in enumerate(self.qids):
                order = np.lexsort((ids, -sims[qi]))[:kk]
                rows["query_id"].extend([qid] * len(order))
                rows["vec_id"].extend(ids[order])
                rows["sim_pm"].extend(
                    np.floor(sims[qi][order] * 1000.0).astype(np.int64))
            return pd.DataFrame(rows)

    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                  columns=["vec_id", "embedding"])
    encoded = ds.map_batches(PqEncode(), batch_format="pandas",
                             batch_size=4096)
    partial = encoded.map_batches(AdcScorer(), batch_format="pandas",
                                  batch_size=8192)
    return partial.groupby("query_id").map_groups(
        _merge_topk(k), batch_format="pandas")


# ---------------------------------------------------------------- SQL-parity face

def ann_quantized_ds(sf_dir: str, n_queries: int = 5, k: int = 10):
    """Top-k by integer quantized inner product — DuckDB-bit-exact ANN."""
    queries = _load_queries(sf_dir, n_queries)
    qq = [np.floor(np.asarray(v, np.float64) * 1000.0).astype(np.int64)
          for v in queries["embedding"]]
    queries_ref = ray.put((queries["vec_id"].to_numpy(), np.stack(qq)))

    class QuantScorer:
        def __init__(self):
            self.qids, self.qmat = ray.get(queries_ref)
            self.k = k

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            ids = batch["vec_id"].to_numpy()
            mat = np.stack([
                np.floor(np.asarray(v, np.float64) * 1000.0).astype(np.int64)
                for v in batch["embedding"]])
            dots = self.qmat @ mat.T
            rows = {"query_id": [], "vec_id": [], "qdot": []}
            for qi, qid in enumerate(self.qids):
                order = np.lexsort((ids, -dots[qi]))[: self.k]
                rows["query_id"].extend([qid] * len(order))
                rows["vec_id"].extend(ids[order])
                rows["qdot"].extend(dots[qi][order])
            return pd.DataFrame(rows).astype(
                {"query_id": "int64", "vec_id": "int64", "qdot": "int64"})

    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    partial = ds.map_batches(QuantScorer, batch_format="pandas",
                             batch_size=4096, concurrency=2)

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["qdot", "vec_id"],
                              ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partial.groupby("query_id").map_groups(merge, batch_format="pandas")


def hard_negatives_ds(sf_dir: str, n_queries: int = 5, k: int = 10):
    """Hard-negative mining — for each anchor (query) vector, the top-k
    most similar vectors with a DIFFERENT label: the negatives
    contrastive / metric-learning training wants (high similarity, wrong
    class — the pairs that actually move the margin; cf. in-batch vs
    mined negatives in dense-retrieval training, e.g. DPR/ANCE).

    Same scale plan as ``ann_quantized_ds`` (this face's bit-exact
    convention): the anchor matrix broadcasts once via ``ray.put``
    (pruned two-phase read), each batch emits its LOCAL label-excluded
    top-k per anchor (k rows per (anchor, block), never the table), and a
    tiny per-anchor merge finishes. Integer quantized inner products
    (floor(x·1000)) keep it DuckDB-bit-exact; ties break by vec_id.

    Returns (query_id, vec_id, qdot, rnk), rnk 1..k.
    """
    queries = _load_queries(sf_dir, n_queries)
    qq = [np.floor(np.asarray(v, np.float64) * 1000.0).astype(np.int64)
          for v in queries["embedding"]]
    queries_ref = ray.put((queries["vec_id"].to_numpy(),
                           queries["label"].to_numpy(np.int64),
                           np.stack(qq)))

    class HardNegScorer:
        def __init__(self):
            self.qids, self.qlabels, self.qmat = ray.get(queries_ref)
            self.k = k

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            ids = batch["vec_id"].to_numpy()
            labels = batch["label"].to_numpy(np.int64)
            mat = np.stack([
                np.floor(np.asarray(v, np.float64) * 1000.0).astype(np.int64)
                for v in batch["embedding"]])
            dots = self.qmat @ mat.T
            rows = {"query_id": [], "vec_id": [], "qdot": []}
            for qi, qid in enumerate(self.qids):
                neg = np.nonzero(labels != self.qlabels[qi])[0]
                if not len(neg):
                    continue
                order = neg[np.lexsort((ids[neg], -dots[qi][neg]))][: self.k]
                rows["query_id"].extend([qid] * len(order))
                rows["vec_id"].extend(ids[order])
                rows["qdot"].extend(dots[qi][order])
            return pd.DataFrame(rows).astype(
                {"query_id": "int64", "vec_id": "int64", "qdot": "int64"})

    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                  columns=["vec_id", "embedding", "label"])
    partial = ds.map_batches(HardNegScorer, batch_format="pandas",
                             batch_size=4096, concurrency=2)

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["qdot", "vec_id"],
                              ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partial.groupby("query_id").map_groups(merge, batch_format="pandas")


def embedding_pca_ds(sf_dir: str, n_components: int = 8):
    """Distributed PCA over the embedding column — the dimensionality-
    reduction / whitening step vector pipelines run before indexing or
    clustering (OPQ/PCA-compressed ANN, embedding compression for
    storage). Two passes, neither materializing the table:

      1. second-moment partials: each batch emits ONE slim row
         (n, sum_vec, sum_outer) — the algebraic-moment combine (same
         shape as ``label_centroids_ds``); the driver reduce is
         O(blocks) rows and the eigendecomposition is of the dim x dim
         covariance (64 x 64 here), never the data.
      2. projection: shuffle-free ``map_batches`` — components broadcast
         once via ``ray.put``, one matmul per batch.

    Eigenvector sign is normalized (largest-|coordinate| made positive)
    so the output is deterministic up to float reduce order; the face is
    rows-only in the driver contract (float sums are order-dependent at
    the ulp), with a serial-numpy pytest oracle at 1e-8.

    Returns (vec_id, proj) with proj = list<float64> length
    ``n_components``, ordered by descending eigenvalue.
    """
    path = f"{sf_dir}/embeddings.parquet"

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(df["embedding"].to_list()).astype(np.float64)
        return pd.DataFrame({"n": [len(mat)],
                             "s": [mat.sum(axis=0).tolist()],
                             "ss": [(mat.T @ mat).ravel().tolist()]})

    parts = _io_read(path, columns=["embedding"]) \
        .map_batches(partial, batch_format="pandas").to_pandas()
    n = int(parts["n"].sum())
    s = np.sum(np.stack(parts["s"].to_list()), axis=0)
    dim = len(s)
    ss = np.sum(np.stack(parts["ss"].to_list()), axis=0).reshape(dim, dim)
    mu = s / n
    cov = (ss - n * np.outer(mu, mu)) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)            # ascending
    comps = evecs[:, ::-1][:, :n_components].T    # (c, dim), desc eigenvalue
    for i in range(comps.shape[0]):               # deterministic sign
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    model_ref = ray.put((mu, comps))

    def project(batch: pd.DataFrame, _cache={}) -> pd.DataFrame:
        if "m" not in _cache:  # one object-store fetch per worker process
            _cache["m"] = ray.get(model_ref)
        mu_, c_ = _cache["m"]
        mat = np.stack(batch["embedding"].to_list()).astype(np.float64)
        proj = (mat - mu_) @ c_.T
        return pd.DataFrame({"vec_id": batch["vec_id"].astype("int64"),
                             "proj": list(proj)})

    return _io_read(path, columns=["vec_id", "embedding"]) \
        .map_batches(project, batch_format="pandas")


def label_centroids_ds(sf_dir: str):
    """Per-label embedding centroid — the vector-aggregation primitive
    (cluster centers, class prototypes, IVF training all reduce to it).

    Distributed as algebraic partials: each batch emits ONE row per label it
    sees, carrying (sum_vector, count) — numpy matrix math, no per-row loop —
    and a single tiny per-label pandas reduce finishes sum/count. Only
    |labels|·dim floats ever shuffle, never the embedding table. Float sums
    are batch-order-dependent at the ulp level, so the face is rows-only in
    the driver contract; the pytest oracle checks against numpy to 1e-4."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(df["embedding"].to_numpy())  # (n, dim) float32
        out_rows = []
        for lab, idx in df.groupby("label").indices.items():
            out_rows.append({
                "label": int(lab),
                "vsum": mat[idx].sum(axis=0, dtype=np.float64).tolist(),
                "n": int(len(idx)),
            })
        return pd.DataFrame(out_rows)

    parts = _io_read(f"{sf_dir}/embeddings.parquet",
                     columns=["embedding", "label"]) \
        .map_batches(partial, batch_format="pandas").to_pandas()
    # tiny: blocks × |labels| partial rows
    out_rows = []
    for lab, g in parts.groupby("label"):
        total = np.sum(np.stack(g["vsum"].to_numpy()), axis=0)
        n = int(g["n"].sum())
        out_rows.append({"label": int(lab), "n": n,
                         "centroid": (total / n).tolist()})
    return pd.DataFrame(sorted(out_rows, key=lambda r: r["label"]))


def label_centroids_quant_ds(sf_dir: str):
    """Per-label centroid partial sums over integer-quantized embeddings —
    the bit-exact (SQL-oracled) face of label_centroids_ds: int64 sums are
    order-independent, so the distributed reduce hashes identically to
    DuckDB's UNNEST + GROUP BY. Long format: one row per (label, dim) with
    the quantized component sum (floor(x*1000), the repo-wide embedding
    quantization convention) and the label's row count.

    Plan: each batch emits |labels_seen| x dim partial rows from one numpy
    matrix reduction (no per-row loop); one coarse shuffle on label finishes.
    Only |labels| x dim x blocks tiny rows ever move - never the vectors."""

    _EMPTY = pd.DataFrame({c: pd.Series([], dtype="int64")
                           for c in ["label", "dim", "qsum", "n"]})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return _EMPTY
        mat = np.stack([
            np.floor(np.asarray(v, np.float64) * 1000.0).astype(np.int64)
            for v in df["embedding"]])  # (n, dim)
        dim = mat.shape[1]
        labs, sums, ns = [], [], []
        for lab, idx in df.groupby("label").indices.items():
            labs.append(int(lab))
            sums.append(mat[idx].sum(axis=0))
            ns.append(len(idx))
        return pd.DataFrame({
            "label": np.repeat(np.asarray(labs, np.int64), dim),
            "dim": np.tile(np.arange(1, dim + 1, dtype=np.int64), len(labs)),
            "qsum": np.concatenate(sums) if sums else
            np.array([], dtype=np.int64),
            "n": np.repeat(np.asarray(ns, np.int64), dim),
        })

    def reduce_part(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["label", "dim"], as_index=False).agg(
            qsum=("qsum", "sum"), n=("n", "sum"))
        return out.astype({c: "int64" for c in out.columns})

    from .agg import partitioned_group_apply
    parts = _io_read(f"{sf_dir}/embeddings.parquet",
                     columns=["embedding", "label"]) \
        .map_batches(partial, batch_format="pandas")
    return partitioned_group_apply(parts, ["label"], reduce_part)


def embedding_outliers_ds(sf_dir: str, threshold: int = 1_000_000):
    """Embedding outlier pruning (the LAION/DataComp "drop vectors far from
    their cluster centroid" curation step): flag every vector whose squared
    distance to its LABEL's quantized mean exceeds ``threshold``.

    Integer face (bit-exact across engines): embeddings quantize to
    ``floor(x·1000)`` (the repo-wide convention); the label mean is the
    FLOOR-divided component mean of the quantized sums (numpy
    ``floor_divide``; the oracle writes ``floor(qsum::DOUBLE / n)`` —
    DuckDB's integer ``//`` truncates toward zero where numpy floors, and
    the double quotient is exact at these magnitudes since |qsum| ≤ n·2000
    ≪ 2^53). d2 = Σ(q − mean)² ≤ 64·(4000)² ≈ 1e9 — int64-safe at any
    corpus size (an n-scaled formulation like Σ(n·q − S)² would overflow
    at n ~ 1e6).

    Scale plan: reuses ``label_centroids_quant_ds``'s algebraic partial
    sums (only |labels|·dim slim rows shuffle); the per-label mean vector
    is packed to BYTES and joined back to the (vec_id, label, packed-q)
    rows through the generic shuffle ``hash_join`` — the label table is
    fact-sized at production scale, never broadcast. The d2 pass is one
    vectorized numpy reduction per batch.

    Returns (vec_id, label, d2, is_outlier).
    """
    from .agg import partitioned_group_apply
    from .joins import hash_join

    def qpack(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "vec_id": df["vec_id"].astype("int64"),
            "label": df["label"].astype("int64")})
        out["qv"] = [np.floor(np.asarray(v, np.float64) * 1000.0)
                     .astype(np.int64).tobytes() for v in df["embedding"]]
        return out

    qvecs = _io_read(f"{sf_dir}/embeddings.parquet",
                     columns=["vec_id", "label", "embedding"]) \
        .map_batches(qpack, batch_format="pandas")

    def pack_mean(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lab, g in df.groupby("label"):
            g = g.sort_values("dim")
            mean = np.floor_divide(g["qsum"].to_numpy(np.int64),
                                   g["n"].to_numpy(np.int64))
            rows.append((int(lab), mean.astype(np.int64).tobytes()))
        return pd.DataFrame({
            "label": pd.Series([r[0] for r in rows], dtype="int64"),
            "mq": [r[1] for r in rows]})

    means = partitioned_group_apply(label_centroids_quant_ds(sf_dir),
                                    ["label"], pack_mean)

    joined = hash_join(qvecs, means, on=["label"])

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ["vec_id", "label", "d2",
                                           "is_outlier"]})
        q = np.stack([np.frombuffer(b, np.int64) for b in batch["qv"]])
        m = np.stack([np.frombuffer(b, np.int64) for b in batch["mq"]])
        d2 = ((q - m) ** 2).sum(axis=1)
        return pd.DataFrame({
            "vec_id": batch["vec_id"].astype("int64").to_numpy(),
            "label": batch["label"].astype("int64").to_numpy(),
            "d2": d2.astype("int64"),
            "is_outlier": (d2 > threshold).astype("int64")})

    return joined.map_batches(score, batch_format="pandas")


# ---------------------------------------------------------- k-means (Lloyd)

def kmeans_quant(ds, id_col: str, vec_col: str, k: int = 8,
                 rounds: int = 2):
    """Fixed-round Lloyd k-means over integer-quantized vectors — the
    iterative-ML-training primitive (broadcast model state → algebraic
    partials → tiny driver reduce, repeated), fully deterministic so the
    unrolled-CTE SQL oracle hashes bit-exact:

    - vectors quantize to ``floor(x·1000)`` int64 (the repo convention);
    - init: the ``k`` rows with the smallest ids are centroids 0..k−1;
    - assign: argmin squared L2, ties to the LOWEST centroid id
      (np.argmin's first-hit == the oracle's ``ORDER BY d2, cid`` rank);
    - update: per-dim TRUNCATED mean (``stats._trunc_div`` — quantized
      components go negative, so DuckDB ``//`` semantics are load-bearing);
      a cluster that lost every member keeps its previous centroid.

    Per round: ONE broadcast of the k×dim int64 model (``ray.put``), one
    streaming pass emitting ≤ k partial rows per block (packed-bytes sums),
    an O(blocks·k·dim) driver combine — the vectors themselves never
    shuffle, and the input re-reads from storage each round rather than
    pinning the corpus in the object store. After ``rounds`` updates the
    final assignment streams out as (id, cluster, d2)."""
    qds = ds.map_batches(_quant_stage(id_col, vec_col),
                         batch_format="pandas")
    cen = _kmeans_centroids(qds, id_col, k, rounds)
    cref = ray.put(cen)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                                 "cluster": pd.Series([], dtype="int64"),
                                 "d2": pd.Series([], dtype="int64")})
        mat = np.stack(df["__q"].to_numpy())
        a, d2 = _assign_quant(mat, ray.get(cref))
        return pd.DataFrame({id_col: df[id_col].astype("int64"),
                             "cluster": a.astype("int64"),
                             "d2": d2.astype("int64")})

    return qds.map_batches(final, batch_format="pandas")


def _quant_stage(id_col: str, vec_col: str):
    """Per-batch floor(x·1000) quantizer → (id_col, __q) frames."""
    def quant(df: pd.DataFrame) -> pd.DataFrame:
        mat = [np.floor(np.asarray(v, np.float64) * 1000.0).astype(np.int64)
               for v in df[vec_col]]
        return pd.DataFrame({id_col: df[id_col].astype("int64"),
                             "__q": mat})
    return quant


def _assign_quant(mat: np.ndarray, c: np.ndarray):
    """(n, k) int64 squared distances; argmin's first hit = lowest cid on
    ties (== the oracle's ``ORDER BY d2, cid`` rank)."""
    d = ((mat[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
    a = d.argmin(axis=1)
    return a, d[np.arange(len(a)), a]


def _kmeans_centroids(qds, id_col: str, k: int, rounds: int) -> np.ndarray:
    """The Lloyd training loop of ``kmeans_quant`` (seed on the k smallest
    ids, ``rounds`` truncated-mean updates) returning the final (k × dim)
    int64 centroid matrix — shared with the IVF coarse quantizer so both
    faces replay the identical unrolled-CTE SQL plan."""
    from .stats import _trunc_div

    # ---- init: bottom-k by id (per-block partial prune, tiny driver merge)
    def bottomk(df: pd.DataFrame) -> pd.DataFrame:
        return df.nsmallest(k, id_col)

    seed = qds.map_batches(bottomk, batch_format="pandas").to_pandas()
    if seed.empty:
        # reachable from ann_ivf_append_ds when no vec_id < split (e.g.
        # the table is smaller than the split) — fail with the sizing
        # context instead of an opaque KeyError/np.stack crash (r4 ADVICE)
        raise ValueError(
            "k-means seed set is empty: the source dataset has no rows "
            f"(check the base/split sizing — need at least {k} vectors)")
    seed = seed.nsmallest(k, id_col).sort_values(id_col)  # ≤ k·blocks rows
    cen = np.stack(seed["__q"].to_numpy())  # (k, dim), cid = row index
    dim = cen.shape[1]

    for _ in range(rounds):
        cref = ray.put(cen)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            c = ray.get(cref)
            if df.empty:
                return pd.DataFrame({"cid": pd.Series([], dtype="int64"),
                                     "qsum": pd.Series([], dtype="object"),
                                     "n": pd.Series([], dtype="int64")})
            mat = np.stack(df["__q"].to_numpy())
            a, _ = _assign_quant(mat, c)
            rows = []
            for cid in np.unique(a):
                sel = mat[a == cid]
                rows.append({"cid": int(cid),
                             "qsum": sel.sum(axis=0).tobytes(),
                             "n": int(len(sel))})
            return pd.DataFrame(rows)

        parts = qds.map_batches(partial, batch_format="pandas").to_pandas()
        nxt = cen.copy()
        for cid, g in parts.groupby("cid"):
            s = np.sum([np.frombuffer(b, dtype=np.int64) for b in g["qsum"]],
                       axis=0)
            n = int(g["n"].sum())
            nxt[int(cid)] = _trunc_div(s, np.full(dim, n, dtype=np.int64))
        cen = nxt
    return cen


def kmeans_embeddings_ds(sf_dir: str, k: int = 8, rounds: int = 2):
    """Fixed-round quantized k-means over the embeddings table — the
    SQL-oracled face of the iterative clustering loop (init = k smallest
    vec_ids, two Lloyd updates, final assignment). Returns
    (vec_id, cluster, d2)."""
    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                  columns=["vec_id", "embedding"])
    return kmeans_quant(ds, "vec_id", "embedding", k=k, rounds=rounds)


# ------------------------------------------- SQL-oracled approximate faces

def _merge_topk_qdot(k: int):
    """Per-query global top-k finish over integer-dot partials
    (qdot DESC, vec_id ASC, rnk 1..k) — the ``ann_quantized`` convention."""
    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["qdot", "vec_id"],
                              ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g
    return merge


def ann_ivf_quant_ds(sf_dir: str, n_queries: int = 8, k: int = 10,
                     n_lists: int = 8, rounds: int = 2, nprobe: int = 2):
    """IVF-Flat under the integer-quantized metric — the SQL-oracled twin
    of ``ann_ivf_ds`` (the md5-minhash pattern: the production IVF plan
    with the float spherical quantizer swapped for the repo's quantized
    Lloyd coarse quantizer, so DuckDB replays training, assignment, probe
    selection AND scoring bit-exactly; cf. the reference's approximate
    structures being seed-stable for reproducibility, SURVEY §7.4):

    - coarse quantizer: ``_kmeans_centroids`` (k = n_lists, fixed rounds —
      the identical unrolled-CTE plan `kmeans_embeddings` oracles);
    - inverted-list assignment: argmin integer L2 d2, ties to the lowest
      list id;
    - probe selection: per query the ``nprobe`` lists by (d2, cid);
    - scoring: integer inner product within probed lists only, top-k by
      (qdot DESC, vec_id).

    Scale plan is ``ann_ivf_ds``'s: centroids broadcast once (O(n_lists ×
    dim)), each batch assigns + scores locally and emits ≤ k rows per
    (query, block), the per-query merge is tiny. Fan-in per query drops
    ~n_lists/nprobe vs brute force — recall < 1 by design (asserted vs
    brute in tests), while staying bit-exact vs the oracle.
    Returns (query_id, vec_id, qdot, rnk)."""
    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                  columns=["vec_id", "embedding"])
    qds = ds.map_batches(_quant_stage("vec_id", "embedding"),
                         batch_format="pandas")
    cen = _kmeans_centroids(qds, "vec_id", n_lists, rounds)

    queries = _load_queries(sf_dir, n_queries)
    qq = np.stack([np.floor(np.asarray(v, np.float64) * 1000.0)
                   .astype(np.int64) for v in queries["embedding"]])
    # nprobe nearest lists per query: stable argsort over d2 == the
    # oracle's ORDER BY d2, cid (cid IS the row index)
    qd2 = ((qq[:, None, :] - cen[None, :, :]) ** 2).sum(axis=2)
    probes = [np.argsort(row, kind="stable")[:nprobe] for row in qd2]
    ref = ray.put((queries["vec_id"].to_numpy(), qq, cen,
                   [set(map(int, p)) for p in probes]))

    class IvfQuantScorer:
        def __init__(self):
            self.qids, self.qmat, self.cen, self.probes = ray.get(ref)
            self.k = k

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if not len(batch):
                return pd.DataFrame({c: pd.Series([], dtype="int64")
                                     for c in ("query_id", "vec_id", "qdot")})
            ids = batch["vec_id"].to_numpy()
            mat = np.stack(batch["__q"].to_numpy())
            assign, _ = _assign_quant(mat, self.cen)
            rows = {"query_id": [], "vec_id": [], "qdot": []}
            for qi, qid in enumerate(self.qids):
                # dots only for the probed lists' rows (≈ nprobe/n_lists of
                # the batch) — the fan-in saving IS the point of IVF
                sel = np.nonzero(np.isin(assign,
                                         list(self.probes[qi])))[0]
                if not len(sel):
                    continue
                dots = mat[sel] @ self.qmat[qi]
                o = np.lexsort((ids[sel], -dots))[: self.k]
                rows["query_id"].extend([qid] * len(o))
                rows["vec_id"].extend(ids[sel][o])
                rows["qdot"].extend(dots[o])
            return pd.DataFrame(rows).astype(
                {"query_id": "int64", "vec_id": "int64", "qdot": "int64"})

    partial = qds.map_batches(IvfQuantScorer, batch_format="pandas",
                              batch_size=4096, concurrency=2)
    return partial.groupby("query_id").map_groups(
        _merge_topk_qdot(k), batch_format="pandas")


def ann_ivf_append_ds(sf_dir: str, split: int = 250, n_lists: int = 8,
                      rounds: int = 2):
    """IVF index maintenance — assign NEW vectors to a FROZEN coarse
    quantizer (the production "add to index without retraining" path every
    vector store runs between periodic retrains; the ingest sibling of
    ``incremental_dedup``'s bipartite plan): centroids train on the BASE
    rows only (vec_id < split — "the index as built"), then the delta rows
    (vec_id ≥ split — "the day's new embeddings") stream through one
    assignment pass against the broadcast centroids. The base is never
    rescanned at ingest time beyond training, and the delta pass is
    shuffle-free. Returns (vec_id, list_id, d2) for the delta rows."""
    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                  columns=["vec_id", "embedding"])
    qds = ds.map_batches(_quant_stage("vec_id", "embedding"),
                         batch_format="pandas")

    def base_only(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["vec_id"] < split]

    def delta_only(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["vec_id"] >= split]

    cen = _kmeans_centroids(qds.map_batches(base_only,
                                            batch_format="pandas"),
                            "vec_id", n_lists, rounds)
    cref = ray.put(cen)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ("vec_id", "list_id", "d2")})
        mat = np.stack(df["__q"].to_numpy())
        a, d2 = _assign_quant(mat, ray.get(cref))
        return pd.DataFrame({"vec_id": df["vec_id"].astype("int64"),
                             "list_id": a.astype("int64"),
                             "d2": d2.astype("int64")})

    return qds.map_batches(delta_only, batch_format="pandas") \
        .map_batches(assign, batch_format="pandas")


def _pq_codebooks_quant(qds, id_col: str, m: int, ks: int, rounds: int,
                        dim: int) -> list:
    """Fused product-quantization codebook training under the quantized
    metric: ONE Lloyd loop trains all ``m`` subspace codebooks together
    (per-batch partials keyed (subspace, cid) — the table is scanned
    ``rounds + 1`` times total, not per subspace). Seeds are the ``ks``
    smallest ids' subvectors; updates are truncated means — the identical
    unrolled-CTE plan as ``_kmeans_centroids``, per subspace."""
    from .stats import _trunc_div
    dsub = dim // m

    def bottomk(df: pd.DataFrame) -> pd.DataFrame:
        return df.nsmallest(ks, id_col)

    seed = qds.map_batches(bottomk, batch_format="pandas").to_pandas()
    if seed.empty:
        raise ValueError(
            "PQ codebook seed set is empty: the source dataset has no rows "
            f"(check the base/split sizing — need at least {ks} vectors)")
    seed = seed.nsmallest(ks, id_col).sort_values(id_col)
    full = np.stack(seed["__q"].to_numpy())
    cbs = [full[:, s * dsub:(s + 1) * dsub].copy() for s in range(m)]

    for _ in range(rounds):
        ref = ray.put(cbs)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            c = ray.get(ref)
            if df.empty:
                return pd.DataFrame({"s": pd.Series([], dtype="int64"),
                                     "cid": pd.Series([], dtype="int64"),
                                     "qsum": pd.Series([], dtype="object"),
                                     "n": pd.Series([], dtype="int64")})
            mat = np.stack(df["__q"].to_numpy())
            rows = []
            for s in range(m):
                sub = mat[:, s * dsub:(s + 1) * dsub]
                a, _ = _assign_quant(sub, c[s])
                for cid in np.unique(a):
                    sel = sub[a == cid]
                    rows.append({"s": s, "cid": int(cid),
                                 "qsum": sel.sum(axis=0).tobytes(),
                                 "n": int(len(sel))})
            return pd.DataFrame(rows)

        parts = qds.map_batches(partial, batch_format="pandas").to_pandas()
        nxt = [c.copy() for c in cbs]
        for (s, cid), g in parts.groupby(["s", "cid"]):
            ssum = np.sum([np.frombuffer(b, dtype=np.int64)
                           for b in g["qsum"]], axis=0)
            n = int(g["n"].sum())
            nxt[int(s)][int(cid)] = _trunc_div(
                ssum, np.full(dsub, n, dtype=np.int64))
        cbs = nxt
    return cbs


def ann_pq_quant_ds(sf_dir: str, n_queries: int = 8, k: int = 10,
                    m: int = 4, ks: int = 8, rounds: int = 2):
    """PQ/ADC under the integer-quantized metric — the SQL-oracled twin of
    ``ann_pq_ds``, completing the ANN family's oracle story (brute →
    ann_quantized, IVF → ann_ivf_quant, LSH → ann_lsh_md5, PQ → this):
    ``m`` subspace codebooks of ``ks`` codes each trained by quantized
    Lloyd, every vector encoded as its per-subspace argmin code, queries
    scored by asymmetric distance (ADC: Σ_s d2(query_sub, codebook[code]))
    — smallest adc_d2 wins, ties to the lowest vec_id.

    Scale plan: the codebooks are O(m·ks·dsub) and broadcast once; vectors
    never shuffle (each batch encodes + scores locally, emitting ≤ k rows
    per (query, block)); at production scale the stored codes are m bytes
    per vector — the memory-compression path of ``ann_pq_ds`` — while the
    quantized math keeps DuckDB replay bit-exact.
    Returns (query_id, vec_id, adc_d2, rnk)."""
    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                  columns=["vec_id", "embedding"])
    qds = ds.map_batches(_quant_stage("vec_id", "embedding"),
                         batch_format="pandas")
    queries = _load_queries(sf_dir, n_queries)
    dim = len(queries["embedding"][0])
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    dsub = dim // m
    cbs = _pq_codebooks_quant(qds, "vec_id", m, ks, rounds, dim)

    qq = np.stack([np.floor(np.asarray(v, np.float64) * 1000.0)
                   .astype(np.int64) for v in queries["embedding"]])
    # per-query ADC lookup tables: T[qi][s][code] = d2(query_sub, cb entry)
    tables = np.stack([
        np.stack([((qq[qi, s * dsub:(s + 1) * dsub] - cbs[s]) ** 2)
                  .sum(axis=1) for s in range(m)])
        for qi in range(len(qq))])                     # (Q, m, ks) int64
    ref = ray.put((queries["vec_id"].to_numpy(), cbs, tables))

    class PqQuantScorer:
        def __init__(self):
            self.qids, self.cbs, self.tables = ray.get(ref)
            self.k = k

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if not len(batch):
                return pd.DataFrame({c: pd.Series([], dtype="int64")
                                     for c in ("query_id", "vec_id",
                                               "adc_d2")})
            ids = batch["vec_id"].to_numpy()
            mat = np.stack(batch["__q"].to_numpy())
            codes = np.stack([
                _assign_quant(mat[:, s * dsub:(s + 1) * dsub],
                              self.cbs[s])[0]
                for s in range(m)], axis=1)            # (B, m)
            rows = {"query_id": [], "vec_id": [], "adc_d2": []}
            for qi, qid in enumerate(self.qids):
                adc = self.tables[qi][np.arange(m), codes].sum(axis=1)
                o = np.lexsort((ids, adc))[: self.k]   # adc ASC, id ASC
                rows["query_id"].extend([qid] * len(o))
                rows["vec_id"].extend(ids[o])
                rows["adc_d2"].extend(adc[o])
            return pd.DataFrame(rows).astype(
                {"query_id": "int64", "vec_id": "int64", "adc_d2": "int64"})

    partial = qds.map_batches(PqQuantScorer, batch_format="pandas",
                              batch_size=4096, concurrency=2)

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["adc_d2", "vec_id"]).head(k)
        g = g.reset_index(drop=True)
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partial.groupby("query_id").map_groups(merge,
                                                  batch_format="pandas")


def pca_power_quant_ds(sf_dir: str, rounds: int = 6, scale: int = 10 ** 6):
    """Dominant principal component by integer power iteration — the
    SQL-oracled twin of the float ``embedding_pca_ds`` (eigh is not
    SQL-replicable; a fixed-round power iteration under integer
    renormalization is, the same trick that made HITS oracle-able):

    - vectors quantize to floor(x·1000) (the repo convention);
    - integer mean m = trunc_div(Σqe, n) per dim (the centroid convention);
    - covariance C̄ = trunc_div(Σ (qe−m)(qe−m)ᵀ, n) — dividing by n INSIDE
      keeps every later matvec int64-safe at any corpus size (entries ≤
      (2·maxq)², independent of n);
    - ``rounds`` power steps from v₀ = scale·1: w = C̄v, then v =
      trunc_div(w·scale, max|w|) (L∞ integer renormalization, ties and
      signs exact);
    - sign pinned by forcing the largest-|component| dim positive
      (lowest dim on ties) — the float face's convention;
    - output: per-vector projection pc1_score = qe·v (NOT centered — the
      oracle's contract; an affine shift of the true PC1 coordinate).

    Convergence caveat (documented, tested): power iteration converges at
    rate (λ₂/λ₁)^rounds — on anisotropic data (real embedding tables) a
    few rounds recover PC1 (pinned ≥0.99-correlation on a planted-spike
    fixture in tests); the near-isotropic synthetic table has λ₂/λ₁ ≈
    0.99, so there the face's contract is the exact deterministic
    iteration itself (the Krylov direction), not a converged eigenvector.

    Scale plan: pass 1 streams per-block (n, Σqe) partials; pass 2 streams
    packed (qe−m)(qe−m)ᵀ partial Gram rows (dim×dim int64 per block — the
    O(blocks·dim²) driver combine of the PCA/k-means family); the 64-round
    driver matvec is O(dim²); pass 3 broadcasts v and scores each batch
    shuffle-free. Returns (vec_id, pc1_score)."""
    from .stats import _trunc_div

    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                  columns=["vec_id", "embedding"])
    qds = ds.map_batches(_quant_stage("vec_id", "embedding"),
                         batch_format="pandas").materialize()

    def sum_partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"n": pd.Series([], dtype="int64"),
                                 "s": pd.Series([], dtype="object")})
        mat = np.stack(df["__q"].to_numpy())
        return pd.DataFrame({"n": [len(mat)],
                             "s": [mat.sum(axis=0).tobytes()]})

    parts = qds.map_batches(sum_partial, batch_format="pandas").to_pandas()
    n = int(parts["n"].sum())
    s = np.sum([np.frombuffer(b, dtype=np.int64) for b in parts["s"]],
               axis=0)
    dim = len(s)
    m = _trunc_div(s, np.full(dim, n, dtype=np.int64))
    mref = ray.put(m)

    def gram_partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"g": pd.Series([], dtype="object")})
        c = np.stack(df["__q"].to_numpy()) - ray.get(mref)
        return pd.DataFrame({"g": [(c.T @ c).tobytes()]})

    gparts = qds.map_batches(gram_partial, batch_format="pandas").to_pandas()
    G = np.sum([np.frombuffer(b, dtype=np.int64).reshape(dim, dim)
                for b in gparts["g"]], axis=0)
    C = _trunc_div(G, np.full((dim, dim), n, dtype=np.int64))

    v = np.full(dim, scale, dtype=np.int64)
    for _ in range(rounds):
        w = C @ v                     # ≤ dim·maxC·scale ≈ 1e15, int64-safe
        mx = int(np.abs(w).max())
        if mx:
            # w·scale can pass int64 (the oracle's sum() is HUGEINT); the
            # O(dim) renormalization runs in exact Python ints, truncating
            # toward zero like DuckDB //
            v = np.array([(abs(int(x)) * scale // mx)
                          * (1 if x >= 0 else -1) for x in w],
                         dtype=np.int64)
        else:
            v = w
    # pin the sign: largest-|component| dim (lowest dim on ties) positive
    j = int(np.argmax(np.abs(v)))
    if v[j] < 0:
        v = -v
    vref = ray.put(v)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "pc1_score": pd.Series([], dtype="int64")})
        mat = np.stack(df["__q"].to_numpy())
        return pd.DataFrame({"vec_id": df["vec_id"].astype("int64"),
                             "pc1_score": mat @ ray.get(vref)})

    return qds.map_batches(score, batch_format="pandas")


def _lsh_md5_planes(n_bits: int, dim: int) -> np.ndarray:
    """±1 Rademacher projection planes from the repo's md5 shard kernel
    (parity of the first 8 hex digits of ``md5('lshp{b}:{i}')``, i
    1-based) — sign-random-projection with Rademacher entries has the
    same cosine collision property as Gaussian planes (Charikar 2002;
    Achlioptas 2003 for the ±1 family) while every coefficient is a
    DuckDB-replicable expression."""
    import hashlib
    coef = np.empty((n_bits, dim), dtype=np.int64)
    for b in range(n_bits):
        for i in range(1, dim + 1):
            h = int(hashlib.md5(f"lshp{b}:{i}".encode()).hexdigest()[:8], 16)
            coef[b, i - 1] = 1 if h % 2 == 0 else -1
    return coef


def _lsh_md5_bucket(mat: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Bucket id: bit b set iff the integer projection is strictly
    positive (> 0, never >= — the oracle's CASE WHEN s > 0)."""
    dots = coef @ mat.T                                  # (bits, n) int64
    bucket = np.zeros(dots.shape[1], dtype=np.int64)
    for b in range(coef.shape[0]):
        bucket |= (dots[b] > 0).astype(np.int64) << b
    return bucket


def ann_lsh_md5_ds(sf_dir: str, n_queries: int = 8, k: int = 10,
                   n_bits: int = 4):
    """Sign-random-projection LSH under the md5-Rademacher plane family —
    the SQL-oracled twin of ``ann_lsh_ds``: identical bucket-probe plan
    (each query scores only its own hyperplane bucket, fan-in drops
    ~2^n_bits), but planes, bucket bits and scores are all exact integer /
    md5 expressions DuckDB replays bit-for-bit. Recall < 1 by design
    (asserted vs brute force in tests). Returns (query_id, vec_id, qdot,
    rnk) — queries whose bucket holds < k vectors return fewer rows."""
    queries = _load_queries(sf_dir, n_queries)
    dim = len(queries["embedding"][0])
    coef = _lsh_md5_planes(n_bits, dim)
    qq = np.stack([np.floor(np.asarray(v, np.float64) * 1000.0)
                   .astype(np.int64) for v in queries["embedding"]])
    qbuck = _lsh_md5_bucket(qq, coef)
    ref = ray.put((queries["vec_id"].to_numpy(), qq, qbuck, coef))

    class Md5LshScorer:
        def __init__(self):
            self.qids, self.qmat, self.qbuck, self.coef = ray.get(ref)
            self.k = k

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if not len(batch):
                return pd.DataFrame({c: pd.Series([], dtype="int64")
                                     for c in ("query_id", "vec_id", "qdot")})
            ids = batch["vec_id"].to_numpy()
            mat = np.stack([
                np.floor(np.asarray(v, np.float64) * 1000.0).astype(np.int64)
                for v in batch["embedding"]])
            buck = _lsh_md5_bucket(mat, self.coef)
            rows = {"query_id": [], "vec_id": [], "qdot": []}
            for qi, qid in enumerate(self.qids):
                sel = np.nonzero(buck == self.qbuck[qi])[0]
                if not len(sel):
                    continue
                dots = mat[sel] @ self.qmat[qi]
                o = np.lexsort((ids[sel], -dots))[: self.k]
                rows["query_id"].extend([qid] * len(o))
                rows["vec_id"].extend(ids[sel][o])
                rows["qdot"].extend(dots[o])
            return pd.DataFrame(rows).astype(
                {"query_id": "int64", "vec_id": "int64", "qdot": "int64"})

    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                  columns=["vec_id", "embedding"])
    partial = ds.map_batches(Md5LshScorer, batch_format="pandas",
                             batch_size=4096, concurrency=2)
    return partial.groupby("query_id").map_groups(
        _merge_topk_qdot(k), batch_format="pandas")


def embedding_drift_by_label_ds(sf_dir: str):
    """Per-label embedding drift: squared distance between each label's
    quantized floor-mean and the GLOBAL floor-mean — the dataset-card
    monitor that flags a source/labelled slice whose vectors wander from
    the corpus center (distribution-shift detection on the embedding
    table). Returns (label, n, drift_d2).

    Scale plan: reuses ``label_centroids_quant_ds``'s algebraic partial
    sums (only |labels|·dim slim rows exist downstream); the global mean
    comes from re-reducing those SAME label sums over dim — the whole
    finish is O(|labels|·dim) rows, one extra coarse shuffle. The mean
    convention is ``embedding_outliers_ds``'s: floor_divide (the oracle's
    ``floor(qsum::DOUBLE / n)``, exact at these magnitudes)."""
    from .agg import partitioned_group_apply

    sums = label_centroids_quant_ds(sf_dir).materialize()  # (label,dim,qsum,n)

    def glob_part(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("dim", as_index=False).agg(gsum=("qsum", "sum"),
                                                    gn=("n", "sum"))
        return out.astype("int64")

    gmean = partitioned_group_apply(sums, ["dim"], glob_part).to_pandas()
    # dim rows total — the global centroid is a fixed-size constant
    g = gmean.sort_values("dim")
    gm = np.floor_divide(g["gsum"].to_numpy(np.int64),
                         g["gn"].to_numpy(np.int64))
    import ray as _ray
    gref = _ray.put(gm)

    def drift(df: pd.DataFrame) -> pd.DataFrame:
        g = _ray.get(gref)
        rows = []
        for lab, grp in df.groupby("label"):
            grp = grp.sort_values("dim")
            m = np.floor_divide(grp["qsum"].to_numpy(np.int64),
                                grp["n"].to_numpy(np.int64))
            d2 = int(((m - g) ** 2).sum())
            rows.append((int(lab), int(grp["n"].iloc[0]), d2))
        return pd.DataFrame({
            "label": pd.Series([r[0] for r in rows], dtype="int64"),
            "n": pd.Series([r[1] for r in rows], dtype="int64"),
            "drift_d2": pd.Series([r[2] for r in rows], dtype="int64")})

    return partitioned_group_apply(sums, ["label"], drift)


# ------------------------------------------------ exact kNN graph (self-join)

# the one k every face that SHARES the memoized graph must request — the
# mutual-kNN clustering derives its smaller lists from this graph, so a
# drift between its base request and this default would silently run the
# O(N²) matmul twice per session
KNN_GRAPH_BASE_K = 10


def knn_graph_quant_ds(sf_dir: str, k: int = KNN_GRAPH_BASE_K,
                       n_buckets: int = 4, num_partitions: int = 16):
    """Exact k-nearest-neighbor GRAPH over the embeddings table — for
    EVERY vector, its top-``k`` neighbors by integer quantized inner
    product (floor(x·1000), the repo-wide DuckDB-bit-exact convention),
    self excluded, ties by neighbor vec_id. The self-join face beside the
    query-side ANN ops: kNN graphs are what dedup clustering
    (SemDeDup-style), label propagation over embeddings, and
    graph-connectivity curation consume.

    Plan — block-nested-loop via bucket replication (the distributed exact
    formulation; FAISS calls it sharded brute force):
      1. the RIGHT side hash-buckets by ``md5(vec_id) % n_buckets``; the
         LEFT side replicates once per bucket (slim int64 qe rows — no
         raw floats, no text);
      2. one coarse hash partition per bucket: ONE vectorized int64
         matmul left×bucket, each left row keeps its bucket-local top-k
         (k rows per (left, bucket) — the shuffle moves O(N·B·k) slim
         rows, never O(N²));
      3. ``grouped_top_n`` merges bucket partials into the exact global
         top-k per vector (bottom-k of a union = bottom-k of per-bucket
         bottom-k's).

    Scale honesty: an exact kNN graph is intrinsically O(N²) compute at
    any layout — this face is the exact baseline and verify oracle; the
    100-TB path swaps step 1's hash buckets for IVF cells
    (``ann_ivf_quant``'s trained quantizer), turning the same plan into
    the standard approximate kNN-graph build with probed-cell recall.
    At the exact face, ``n_buckets`` bounds per-task right-side size;
    the left replica stream is ``n_buckets`` × N slim rows.

    Returns (vec_id, neighbor_id, qdot, rnk), rnk 1..k — bit-exact vs
    ``oracle_sql()['knn_graph']``. Memoized per session and parameter
    tuple (the `_EDGE_MEMO` pattern): the O(N²) matmul is the dominant
    cost of every face built on this graph (``mutual_knn_clusters``
    derives its k≤10 lists from the same blocks)."""
    from .agg import grouped_top_n, partitioned_group_apply
    from .analog import md5_shard
    from .graph import _EDGE_MEMO, _edge_memo_key

    memo_key = _edge_memo_key("knn", sf_dir, k, n_buckets, num_partitions)
    if memo_key is not None and memo_key in _EDGE_MEMO:
        return _EDGE_MEMO[memo_key]

    ds = _io_read(f"{sf_dir}/embeddings.parquet",
                  columns=["vec_id", "embedding"])

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["vec_id"].to_numpy(np.int64)
        qe = [np.floor(np.asarray(v, np.float64) * 1000.0).astype(np.int64)
              for v in batch["embedding"]]
        right_b = md5_shard(pd.Series(ids), n_buckets)
        frames = [pd.DataFrame({"vec_id": ids, "qe": qe, "side": 1,
                                "bucket": right_b})]
        for b in range(n_buckets):
            frames.append(pd.DataFrame({"vec_id": ids, "qe": qe, "side": 0,
                                        "bucket": b}))
        out = pd.concat(frames, ignore_index=True)
        return out.astype({"vec_id": "int64", "side": "int64",
                           "bucket": "int64"})

    rows = ds.map_batches(explode, batch_format="pandas")

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        # per-bucket groupby INSIDE the partition (the
        # partitioned_group_apply contract): a coarse partition may hold
        # several buckets, and mixing them would emit duplicate
        # (vec_id, neighbor) partials — one per co-resident left replica
        out = {"vec_id": [], "neighbor_id": [], "qdot": []}
        for _, grp in df.groupby("bucket", sort=False):
            left = grp[grp["side"] == 0]
            right = grp[grp["side"] == 1]
            if not len(left) or not len(right):
                continue
            lid = left["vec_id"].to_numpy(np.int64)
            rid = right["vec_id"].to_numpy(np.int64)
            lmat = np.stack(left["qe"].to_numpy())
            rmat = np.stack(right["qe"].to_numpy())
            dots = lmat @ rmat.T
            for i in range(len(lid)):
                cand = np.nonzero(rid != lid[i])[0]  # self excluded
                if not len(cand):
                    continue
                order = cand[np.lexsort((rid[cand], -dots[i][cand]))][:k]
                out["vec_id"].extend([lid[i]] * len(order))
                out["neighbor_id"].extend(rid[order])
                out["qdot"].extend(dots[i][order])
        return pd.DataFrame({
            "vec_id": pd.Series(out["vec_id"], dtype="int64"),
            "neighbor_id": pd.Series(out["neighbor_id"], dtype="int64"),
            "qdot": pd.Series(out["qdot"], dtype="int64")})

    partials = partitioned_group_apply(rows, ["bucket"], local_topk,
                                       num_partitions=n_buckets)
    res = grouped_top_n(partials, ["vec_id"], "qdot", k, ascending=False,
                        tie_cols=["neighbor_id"], rank_col="rnk",
                        num_partitions=num_partitions).materialize()
    if memo_key is not None:
        _EDGE_MEMO[memo_key] = res
    return res


def mutual_knn_clusters_ds(sf_dir: str, k: int = 5, n_buckets: int = 4,
                           num_partitions: int = 16):
    """Mutual-kNN clustering over the embeddings table — vectors u, v are
    linked iff EACH is in the other's top-``k`` (the classic
    shared/mutual-NN clustering rule: asymmetric neighbor edges into hub
    vectors do NOT merge clusters, which is what makes plain kNN-graph
    components collapse and mutual-kNN components stable), then clusters =
    connected components of the mutual graph.

    Composition face: ``knn_graph_quant_ds`` (exact bucket-replicated kNN
    graph) → one pair-keyed partition keeps the pairs present in BOTH
    directions → the shared adaptive ``connected_components`` (dedup's
    hash-min BSP / driver union-find). Every vector gets a row; singletons
    label themselves. The 100-TB path swaps the exact kNN stage for the
    IVF-bucketed one, everything downstream unchanged.

    Returns (vec_id, component_id), component_id = min reachable vec_id —
    bit-exact vs ``oracle_sql()['mutual_knn_clusters']``."""
    from .agg import partitioned_group_apply
    from .dedup import connected_components

    # derive k ≤ base neighbor lists from the memoized base-k graph:
    # top-k is the rnk ≤ k prefix of the base ranking (same order, same
    # tie-breaks), so the O(N²) matmul runs once per session for BOTH the
    # knn_graph face and this one; k > base computes its own graph
    if k <= KNN_GRAPH_BASE_K:
        base = knn_graph_quant_ds(sf_dir, k=KNN_GRAPH_BASE_K,
                                  n_buckets=n_buckets,
                                  num_partitions=num_partitions)
        knn = base.map_batches(
            lambda df: df[df["rnk"] <= k], batch_format="pandas")
    else:
        knn = knn_graph_quant_ds(sf_dir, k=k, n_buckets=n_buckets,
                                 num_partitions=num_partitions)

    def to_pairs(df: pd.DataFrame) -> pd.DataFrame:
        u = df["vec_id"].to_numpy(np.int64)
        v = df["neighbor_id"].to_numpy(np.int64)
        return pd.DataFrame({"a": np.minimum(u, v), "b": np.maximum(u, v),
                             "fwd": (u < v).astype(np.int64)})

    def mutual_only(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["a", "b"])["fwd"].nunique()
        keep = g[g == 2].reset_index()
        return pd.DataFrame({"u": keep["a"].astype("int64"),
                             "v": keep["b"].astype("int64")})

    edges = partitioned_group_apply(
        knn.map_batches(to_pairs, batch_format="pandas"), ["a", "b"],
        mutual_only, num_partitions)
    nodes = _io_read(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])
    return connected_components(edges, nodes, "vec_id", "component_id",
                                num_partitions)
