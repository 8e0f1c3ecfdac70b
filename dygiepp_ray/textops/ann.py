"""Similarity search over an embedding column (list<float>).

* ``brute_force_topk`` — baseline: the query matrix is broadcast once
  (``ray.put``), each batch does one numpy matmul and emits its local
  top-k candidates; a tiny driver-side merge finalizes.  Work is
  O(N x Q x D) fully distributed; shuffled bytes are O(batches x Q x k).
* ``lsh_topk`` — scale path: random-hyperplane signatures bucket the
  corpus (one groupby); queries search only their bucket (and
  optionally multiple probes).  Recall < 1 by construction; the
  baseline is the oracle for it.
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data


def _stack(col) -> np.ndarray:
    return np.stack([np.asarray(v, dtype=np.float64) for v in col])


class _BatchTopK:
    def __init__(self, query_ref, k: int, decode=None):
        q = ray.get(query_ref)
        self.qids = q["ids"]
        qm = q["vecs"]
        self.qnorm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
        self.k = k
        # column decoder -> (batch, d) float64; default: float embedding
        self.decode = decode or (lambda df: _stack(df["embedding"]))

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        vecs = self.decode(df)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (vecs / norms) @ self.qnorm.T        # (batch, Q)
        ids = df["vec_id"].to_numpy()
        k = min(self.k, len(ids))
        out_q, out_id, out_sim = [], [], []
        # per-query local top-k (argpartition, vectorized per column).
        # Ties at the k-th boundary must break by vec_id ASC — a bare
        # argpartition keeps an arbitrary subset of the tied rows, and
        # the driver merge can only rank candidates that survived here.
        for qi in range(sims.shape[1]):
            col = sims[:, qi]
            if len(col) > k:
                part = np.argpartition(-col, k - 1)
                kth = col[part[k - 1]]
                better = np.flatnonzero(col > kth)
                tied = np.flatnonzero(col == kth)
                tied = tied[np.argsort(ids[tied], kind="stable")][: k - len(better)]
                top = np.concatenate([better, tied])
            else:
                top = np.arange(len(col))
            out_q.append(np.full(len(top), self.qids[qi]))
            out_id.append(ids[top])
            out_sim.append(col[top])
        return pd.DataFrame(
            {
                "query_id": np.concatenate(out_q),
                "vec_id": np.concatenate(out_id),
                "sim": np.concatenate(out_sim),
            }
        )


def brute_force_topk(
    embeddings: ray.data.Dataset,
    query_ids: list[int],
    k: int = 5,
    exclude_self: bool = True,
) -> pd.DataFrame:
    """-> (query_id, vec_id, rank) exact cosine top-k per query vector.

    ``embeddings`` must have (vec_id, embedding).  Queries are looked up
    from the same dataset (filtered scan), broadcast via ray.put.
    """
    qset = set(query_ids)
    qdf = embeddings.map_batches(
        lambda df: df[df["vec_id"].isin(qset)], batch_format="pandas"
    ).to_pandas()
    if qdf.empty or "vec_id" not in qdf.columns:
        # no query vectors exist (e.g. empty table): no neighbors
        return pd.DataFrame(
            {c: pd.Series(dtype=np.int64)
             for c in ("query_id", "vec_id", "rank")}
        )
    qdf = qdf.sort_values("vec_id", ignore_index=True)
    query_ref = ray.put({"ids": qdf["vec_id"].to_numpy(), "vecs": _stack(qdf["embedding"])})

    # pool sized below the CPU budget so the read stage never starves
    # (an actor pool that reserves every CPU deadlocks the pipeline)
    cands = embeddings.map_batches(
        _BatchTopK,
        fn_constructor_args=(query_ref, k + (1 if exclude_self else 0)),
        batch_format="pandas",
        batch_size=4096,
        concurrency=2,
    ).to_pandas()

    return _rank_candidates(cands, k, exclude_self)


def _rank_candidates(
    cands: pd.DataFrame, k: int, exclude_self: bool
) -> pd.DataFrame:
    """Driver-side merge of per-block top-k survivors (<= blocks x k
    rows) into global ranks; ties break by vec_id ASC."""
    out = []
    for qid, g in cands.groupby("query_id", sort=True):
        g = g.sort_values(["sim", "vec_id"], ascending=[False, True], kind="stable")
        if exclude_self:
            g = g[g["vec_id"] != qid]
        g = g.head(k).reset_index(drop=True)
        out.append(
            pd.DataFrame(
                {
                    "query_id": np.full(len(g), qid, dtype=np.int64),
                    "vec_id": g["vec_id"].to_numpy().astype(np.int64),
                    "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                }
            )
        )
    return pd.concat(out, ignore_index=True)


def quantize_embeddings(
    embeddings: ray.data.Dataset,
    id_col: str = "vec_id",
    col: str = "embedding",
) -> ray.data.Dataset:
    """-> (vec_id, qvec, scale): symmetric per-vector int8 quantization
    (q_i = rint(v_i * 127 / max|v|)) — the 8x storage cut (float64 ->
    int8) that keeps a 100 TB embedding column object-store-resident.
    Map-only; ``qvec`` is the int8 buffer as a scalar bytes column (the
    exchange-safe payload convention), ``scale`` reconstructs magnitudes
    (ranking by cosine never needs it — scales cancel)."""

    def q(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                              "qvec": pd.Series(dtype=object),
                              "scale": pd.Series(dtype=np.float64)})
        if len(df) == 0 or col not in df.columns:
            return empty
        vecs = _stack(df[col])
        amax = np.abs(vecs).max(axis=1)
        amax[amax == 0] = 1.0
        qm = np.rint(vecs * (127.0 / amax[:, None])).astype(np.int8)
        return pd.DataFrame(
            {id_col: df[id_col].to_numpy(np.int64),
             "qvec": [r.tobytes() for r in qm],
             "scale": amax / 127.0}
        )

    return embeddings.map_batches(q, batch_format="pandas")


def _unpack_int8(col) -> np.ndarray:
    return np.stack(
        [np.frombuffer(b, dtype=np.int8) for b in col]
    ).astype(np.float64)


def quantized_topk(
    quantized: ray.data.Dataset,
    query_ids: list[int],
    k: int = 5,
    exclude_self: bool = True,
) -> pd.DataFrame:
    """Brute-force cosine top-k over int8-QUANTIZED vectors (see
    :func:`quantize_embeddings`): cosine is scale-invariant, so ranking
    uses only the int8 payloads — the memory-bandwidth cost per scanned
    vector drops 8x, which on a bandwidth-bound box IS the speedup.
    Same contract and tie rules as :func:`brute_force_topk`; recall vs
    the float path is pytest-pinned."""
    qset = set(query_ids)
    qdf = quantized.map_batches(
        lambda df: df[df["vec_id"].isin(qset)][["vec_id", "qvec"]],
        batch_format="pandas",
    ).to_pandas()
    if qdf.empty or "vec_id" not in qdf.columns:
        return pd.DataFrame(
            {c: pd.Series(dtype=np.int64)
             for c in ("query_id", "vec_id", "rank")}
        )
    qdf = qdf.sort_values("vec_id", ignore_index=True)
    query_ref = ray.put(
        {"ids": qdf["vec_id"].to_numpy(), "vecs": _unpack_int8(qdf["qvec"])}
    )
    cands = quantized.map_batches(
        _BatchTopK,
        fn_constructor_args=(
            query_ref, k + (1 if exclude_self else 0),
            lambda df: _unpack_int8(df["qvec"]),
        ),
        batch_format="pandas",
        batch_size=4096,
        concurrency=2,
    ).to_pandas()
    return _rank_candidates(cands, k, exclude_self)


def _probe_masks(n_planes: int, probe_bits: int) -> np.ndarray:
    """XOR masks for multi-probe: the zero mask plus every combination
    of up to ``probe_bits`` flipped planes."""
    from itertools import combinations

    masks = [0]
    for r in range(1, probe_bits + 1):
        for combo in combinations(range(n_planes), r):
            m = 0
            for p in combo:
                m |= 1 << p
            masks.append(m)
    return np.asarray(masks, dtype=np.int64)


def embedding_near_dups(
    embeddings: ray.data.Dataset,
    threshold: float = 0.95,
    n_planes: int = 8,
    seed: int = 77,
    num_buckets: int = 16,
    probe_bits: int = 2,
    bucket_cap: int | None = None,
) -> pd.DataFrame:
    """Embedding-cosine near-duplicate pairs (id_a < id_b, cosine >=
    threshold).

    Scale path with NO vector amplification through the shuffle: only
    (vec_id, bucket) signature rows (16 bytes each) are exchanged to
    generate candidate pairs; the vectors are joined to the DEDUPED
    pairs afterwards via :func:`dedup.attach_pair_values` (two keyed
    exchanges), so each vector ships O(pairs containing it) times
    instead of (n_probes)x through the bucket exchange.

    Multi-probe: every vector lands in its own bucket plus all
    <= ``probe_bits``-bit-flip neighbors; two vectors collide somewhere
    iff their signatures differ in <= 2*probe_bits planes.  At the
    default (8 planes, 2-bit probes = 37 signature rows/vector) a
    cosine-0.9 pair is missed only when >= 5 of 8 hyperplanes split it
    (P ~ 0.2%); probing is cheap precisely because only signatures are
    replicated.  Hyperplanes are derived from (seed, dim) inside each
    task — deterministic, nothing broadcast, no ``take(1)`` probe
    execution of the upstream plan.
    """
    from ..core import hash_exchange
    from .dedup import attach_pair_values

    masks = _probe_masks(n_planes, probe_bits)

    def sign_probe(df: pd.DataFrame) -> pd.DataFrame:
        vecs = _stack(df["embedding"])
        planes = np.random.RandomState(seed).normal(size=(n_planes, vecs.shape[1]))
        bits = (vecs @ planes.T) > 0
        base = (
            bits.astype(np.int64) << np.arange(bits.shape[1], dtype=np.int64)
        ).sum(axis=1)
        buckets = (base[:, None] ^ masks[None, :]).ravel()
        return pd.DataFrame(
            {
                "vec_id": np.repeat(df["vec_id"].to_numpy(), len(masks)),
                "bucket": buckets,
            }
        )

    probed = embeddings.map_batches(sign_probe, batch_format="pandas")

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64)}
        )
        if len(df) == 0 or "bucket" not in df.columns:
            return empty
        d = df.drop_duplicates(["bucket", "vec_id"])
        sizes = d.groupby("bucket", sort=False)["vec_id"].transform("size")
        d = d[sizes >= 2]
        outs = []
        from .dedup import LSH_BUCKET_CAP, _capped_pair_indices

        cap = bucket_cap if bucket_cap is not None else LSH_BUCKET_CAP
        for _, g in d.groupby("bucket", sort=False):
            ids = np.sort(g["vec_id"].to_numpy())
            a, b = _capped_pair_indices(len(ids), cap, "embedding_near_dups")
            outs.append(pd.DataFrame({"id_a": ids[a], "id_b": ids[b]}))
        if not outs:
            return empty
        return pd.concat(outs, ignore_index=True).drop_duplicates(ignore_index=True)

    cand = hash_exchange(probed, "bucket", pairs, num_buckets)

    from .dedup import _add_pair_key

    deduped = hash_exchange(
        cand.map_batches(_add_pair_key, batch_format="pandas"),
        "pkey",
        lambda df: df.drop_duplicates(["id_a", "id_b"], ignore_index=True).drop(columns="pkey"),
        num_buckets,
    )

    def vec_bytes(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["vec_id"].to_numpy(),
                "vec": [
                    np.asarray(v, dtype=np.float64).tobytes() for v in df["embedding"]
                ],
            }
        )

    vecs_ds = embeddings.map_batches(vec_bytes, batch_format="pandas")
    joined = attach_pair_values(deduped, vecs_ds, "vec", "v_a", "v_b",
                                num_buckets, value_dtype=pa.binary())

    def cosine(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "v_a" not in df.columns:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64),
                 "cosine": pd.Series(dtype=np.float64)}
            )
        va = np.stack([np.frombuffer(v, dtype=np.float64) for v in df["v_a"]])
        vb = np.stack([np.frombuffer(v, dtype=np.float64) for v in df["v_b"]])
        na = np.linalg.norm(va, axis=1)
        nb = np.linalg.norm(vb, axis=1)
        na[na == 0] = 1.0
        nb[nb == 0] = 1.0
        sims = (va * vb).sum(axis=1) / (na * nb)
        out = pd.DataFrame(
            {"id_a": df["id_a"].to_numpy(), "id_b": df["id_b"].to_numpy(),
             "cosine": sims.round(6)}
        )
        return out[out["cosine"] >= threshold].reset_index(drop=True)

    pdf = joined.map_batches(cosine, batch_format="pandas").to_pandas()
    if "id_a" not in pdf.columns or len(pdf) == 0:  # zero pairs end-to-end
        return pd.DataFrame(
            {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64),
             "cosine": pd.Series(dtype=np.float64)}
        )
    return pdf.sort_values(["id_a", "id_b"], ignore_index=True)


def kmeans_centroids(
    embeddings: ray.data.Dataset,
    k: int = 16,
    iters: int = 5,
    seed_ids: list[int] | None = None,
) -> np.ndarray:
    """Distributed k-means coarse quantizer (the IVF training step).

    Each iteration is ONE streaming pass: every batch assigns its
    vectors to the nearest current centroid and emits per-cluster
    (sum, count) partials; the driver reduces the tiny (k x d) partial
    table and broadcasts the new centroids via closure capture.  The
    driver never holds vectors — only k x d floats.

    Deterministic: seeds are the vectors of the ``k`` smallest vec_ids
    unless ``seed_ids`` is given (no RNG, so results are stable across
    runs and parallelism)."""
    # iterative consumer: iters+1 full passes — pin the (pruned) input
    # blocks in the object store once instead of re-decoding parquet
    # per pass (spill-managed at scale; measured ~2x on ivf_topk)
    embeddings = embeddings.materialize()
    if seed_ids is None:
        small = embeddings.map_batches(
            lambda df: df.nsmallest(k, "vec_id"), batch_format="pandas"
        ).to_pandas().nsmallest(k, "vec_id")
    else:
        sset = set(seed_ids)
        small = embeddings.map_batches(
            lambda df: df[df["vec_id"].isin(sset)], batch_format="pandas"
        ).to_pandas().sort_values("vec_id")
    centroids = _stack(small["embedding"])

    for _ in range(iters):
        cref = ray.put(centroids)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            c = ray.get(cref)
            vecs = _stack(df["embedding"])
            assign = np.argmin(
                ((vecs[:, None, :] - c[None, :, :]) ** 2).sum(axis=2), axis=1
            )
            rows = []
            for ci in np.unique(assign):
                sel = vecs[assign == ci]
                rows.append(
                    {"cluster": int(ci), "vsum": sel.sum(axis=0).tobytes(),
                     "n": len(sel)}
                )
            return pd.DataFrame(rows)

        parts = embeddings.map_batches(partial, batch_format="pandas").to_pandas()
        new = centroids.copy()
        for ci, g in parts.groupby("cluster"):
            total = np.sum(
                [np.frombuffer(b, dtype=np.float64) for b in g["vsum"]], axis=0
            )
            n = g["n"].sum()
            if n:
                new[ci] = total / n
        centroids = new
    return centroids


def ivf_topk(
    embeddings: ray.data.Dataset,
    query_ids: list[int],
    k: int = 5,
    nlist: int = 16,
    nprobe: int = 4,
    iters: int = 5,
) -> pd.DataFrame:
    """IVF cosine top-k: k-means coarse quantizer -> inverted lists ->
    queries scan only their ``nprobe`` nearest lists (one keyed exchange
    on list id).  ``nprobe == nlist`` degenerates to exhaustive search
    and equals ``brute_force_topk`` exactly (the correctness oracle);
    smaller nprobe trades recall for a 1/(nlist/nprobe) scan fraction —
    the 100 TB shape, since each list is an independent partition."""
    # multi-pass consumer (k-means training + query filter + list
    # assignment): materialize once; kmeans_centroids re-uses the
    # already-materialized blocks (second materialize is a no-op)
    embeddings = embeddings.materialize()
    if embeddings.count() == 0:  # nothing to quantize or probe
        return pd.DataFrame(
            {c: pd.Series(dtype=np.int64)
             for c in ("query_id", "vec_id", "rank")}
        )
    centroids = kmeans_centroids(embeddings, k=nlist, iters=iters)
    cref = ray.put(centroids)

    qset = set(query_ids)
    qdf = embeddings.map_batches(
        lambda df: df[df["vec_id"].isin(qset)], batch_format="pandas"
    ).to_pandas()
    if qdf.empty or "vec_id" not in qdf.columns:
        return pd.DataFrame(
            {c: pd.Series(dtype=np.int64)
             for c in ("query_id", "vec_id", "rank")}
        )
    qdf = qdf.sort_values("vec_id", ignore_index=True)
    qvecs = _stack(qdf["embedding"])
    listed = _assign_lists(embeddings, cref)
    return _ivf_query(
        listed, centroids, qdf["vec_id"].to_numpy(), qvecs, k, nprobe
    )


def _assign_lists(embeddings: ray.data.Dataset, cref) -> ray.data.Dataset:
    """Inverted-list assignment: each vector to its nearest centroid
    (list_id), payload serialized for the exchange."""

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cref)
        vecs = _stack(df["embedding"])
        li = np.argmin(((vecs[:, None, :] - c[None, :, :]) ** 2).sum(axis=2), axis=1)
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].to_numpy(),
                "list_id": li.astype(np.int64),
                "vec": [v.tobytes() for v in vecs],
            }
        )

    return embeddings.map_batches(assign, batch_format="pandas")


def _ivf_query(
    listed: ray.data.Dataset,
    centroids: np.ndarray,
    qids: np.ndarray,
    qvecs: np.ndarray,
    k: int,
    nprobe: int,
) -> pd.DataFrame:
    """Probe phase shared by the in-session and loaded-index paths:
    each query scans only its ``nprobe`` nearest lists (one keyed
    exchange on list id)."""
    qd = ((qvecs[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    qlists = np.argsort(qd, axis=1)[:, :nprobe]          # (Q, nprobe)
    queries_ref = ray.put({"ids": qids, "vecs": qvecs, "lists": qlists})

    from ..core import hash_exchange

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "list_id" not in df.columns:
            return pd.DataFrame(
                {"query_id": pd.Series(dtype=np.int64),
                 "vec_id": pd.Series(dtype=np.int64),
                 "sim": pd.Series(dtype=np.float64)}
            )
        q = ray.get(queries_ref)
        outs = []
        for lid, g in df.groupby("list_id", sort=False):
            qsel = np.flatnonzero((q["lists"] == lid).any(axis=1))
            if len(qsel) == 0:
                continue
            vecs = np.stack([np.frombuffer(v, dtype=np.float64) for v in g["vec"]])
            norms = np.linalg.norm(vecs, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            vn = vecs / norms
            ids = g["vec_id"].to_numpy()
            for qi in qsel:
                qv = q["vecs"][qi]
                sims = vn @ (qv / np.linalg.norm(qv))
                gg = pd.DataFrame({"vec_id": ids, "sim": sims})
                gg = gg[gg["vec_id"] != q["ids"][qi]]
                top = gg.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
                outs.append(top.assign(query_id=q["ids"][qi]))
        if not outs:
            return pd.DataFrame(
                {"query_id": pd.Series(dtype=np.int64),
                 "vec_id": pd.Series(dtype=np.int64),
                 "sim": pd.Series(dtype=np.float64)}
            )
        return pd.concat(outs, ignore_index=True)[["query_id", "vec_id", "sim"]]

    cands = hash_exchange(listed, "list_id", scan, num_buckets=8).to_pandas()
    out = []
    if len(cands) and "query_id" in cands.columns:
        for qid, g in cands.groupby("query_id", sort=True):
            top = g.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
            out.append(
                pd.DataFrame(
                    {
                        "query_id": np.full(len(top), qid, dtype=np.int64),
                        "vec_id": top["vec_id"].to_numpy().astype(np.int64),
                        "rank": np.arange(1, len(top) + 1, dtype=np.int64),
                    }
                )
            )
    return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
        columns=["query_id", "vec_id", "rank"]
    )


def save_ivf_index(
    embeddings: ray.data.Dataset,
    path: str,
    nlist: int = 16,
    iters: int = 5,
) -> np.ndarray:
    """Persist a trained IVF index: centroids (tiny, one driver-side
    parquet) + inverted lists (distributed ``write_parquet``, one
    directory partitioned by Ray blocks — the resumable-output shape).
    A later run queries WITHOUT retraining or re-embedding: the index
    is the artifact, not the session.  Returns the centroids."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    embeddings = embeddings.materialize()
    centroids = kmeans_centroids(embeddings, k=nlist, iters=iters)
    listed = _assign_lists(embeddings, ray.put(centroids))
    listed.write_parquet(f"{path}/lists")
    pq.write_table(
        pa.table(
            {
                "list_id": pa.array(range(len(centroids)), pa.int64()),
                "centroid": pa.array(
                    [c.tobytes() for c in centroids], pa.binary()
                ),
            }
        ),
        f"{path}/centroids.parquet",
    )
    return centroids


def load_ivf_index(path: str) -> tuple[np.ndarray, ray.data.Dataset]:
    """Load a persisted IVF index: (centroids ndarray, inverted-list
    Dataset).  The lists stay distributed (lazy parquet read)."""
    import pyarrow.parquet as pq

    ct = pq.read_table(f"{path}/centroids.parquet").sort_by("list_id")
    centroids = np.stack(
        [np.frombuffer(b, dtype=np.float64) for b in ct["centroid"].to_pylist()]
    )
    return centroids, ray.data.read_parquet(f"{path}/lists")


def ivf_topk_from_index(
    path: str,
    query_ids: list[int],
    k: int = 5,
    nprobe: int = 4,
) -> pd.DataFrame:
    """IVF cosine top-k against a PERSISTED index (see
    :func:`save_ivf_index`): query vectors are pulled from the index's
    own inverted lists (vec payloads are stored), so no access to the
    original embedding table is needed.  Bit-identical to
    :func:`ivf_topk` at equal (nlist, iters, nprobe) — pytest-pinned."""
    centroids, listed = load_ivf_index(path)
    qset = set(query_ids)
    qdf = listed.map_batches(
        lambda df: df[df["vec_id"].isin(qset)][["vec_id", "vec"]],
        batch_format="pandas",
    ).to_pandas()
    if qdf.empty or "vec_id" not in qdf.columns:
        return pd.DataFrame(
            {c: pd.Series(dtype=np.int64)
             for c in ("query_id", "vec_id", "rank")}
        )
    qdf = qdf.sort_values("vec_id", ignore_index=True)
    qvecs = np.stack([np.frombuffer(v, dtype=np.float64) for v in qdf["vec"]])
    return _ivf_query(
        listed, centroids, qdf["vec_id"].to_numpy(), qvecs, k, nprobe
    )


def lsh_topk(
    embeddings: ray.data.Dataset,
    query_ids: list[int],
    k: int = 5,
    n_planes: int = 8,
    seed: int = 99,
    num_buckets: int = 8,
) -> pd.DataFrame:
    """Bucketed ANN scale path: corpus vectors are hyperplane-bucketed
    with ONE keyed exchange; each bucket task scores only its queries
    against only its members (queries broadcast — the small side).  The
    driver merges the tiny per-bucket top-k lists.  Approximate — recall
    measured against brute_force_topk in tests."""
    qset = set(query_ids)
    qdf = embeddings.map_batches(
        lambda df: df[df["vec_id"].isin(qset)], batch_format="pandas"
    ).to_pandas()
    qvecs = _stack(qdf["embedding"])
    # hyperplanes derived from (seed, dim) — deterministic in every task,
    # no broadcast, no take(1) probe execution of the upstream plan
    planes = np.random.RandomState(seed).normal(size=(n_planes, qvecs.shape[1]))
    qbits = (qvecs @ planes.T) > 0
    qbuckets = (qbits.astype(np.uint64) << np.arange(n_planes, dtype=np.uint64)).sum(axis=1)
    queries_ref = ray.put(
        {"ids": qdf["vec_id"].to_numpy(), "vecs": qvecs, "buckets": qbuckets.astype(np.int64)}
    )

    def sign(df: pd.DataFrame) -> pd.DataFrame:
        vecs = _stack(df["embedding"])
        task_planes = np.random.RandomState(seed).normal(size=(n_planes, vecs.shape[1]))
        bits = (vecs @ task_planes.T) > 0
        sig = (bits.astype(np.uint64) << np.arange(bits.shape[1], dtype=np.uint64)).sum(axis=1)
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].to_numpy(),
                "bucket": sig.astype(np.int64),
                "embedding": [v.tolist() for v in vecs],
            }
        )

    signed = embeddings.map_batches(sign, batch_format="pandas")

    from ..core import hash_exchange

    def score_bucket(df: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(queries_ref)
        outs = []
        for bucket, g in df.groupby("bucket", sort=False):
            qsel = np.flatnonzero(q["buckets"] == bucket)
            if len(qsel) == 0 or len(g) == 0:
                continue
            vecs = np.stack([np.asarray(v, dtype=np.float64) for v in g["embedding"]])
            vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
            for qi in qsel:
                qv = q["vecs"][qi]
                sims = vn @ (qv / np.linalg.norm(qv))
                gg = pd.DataFrame(
                    {"vec_id": g["vec_id"].to_numpy(), "sim": sims}
                )
                gg = gg[gg["vec_id"] != q["ids"][qi]]
                top = gg.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
                top = top.assign(query_id=q["ids"][qi])
                outs.append(top)
        if not outs:
            return pd.DataFrame(
                {"query_id": pd.Series(dtype=np.int64),
                 "vec_id": pd.Series(dtype=np.int64),
                 "sim": pd.Series(dtype=np.float64)}
            )
        return pd.concat(outs, ignore_index=True)[["query_id", "vec_id", "sim"]]

    cands = hash_exchange(signed, "bucket", score_bucket, num_buckets).to_pandas()
    out = []
    if len(cands) and "query_id" in cands.columns:
        for qid, g in cands.groupby("query_id", sort=True):
            top = g.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
            out.append(
                pd.DataFrame(
                    {
                        "query_id": np.full(len(top), qid, dtype=np.int64),
                        "vec_id": top["vec_id"].to_numpy().astype(np.int64),
                        "rank": np.arange(1, len(top) + 1, dtype=np.int64),
                    }
                )
            )
    return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
        columns=["query_id", "vec_id", "rank"]
    )


def label_centroids(
    emb: ray.data.Dataset, scale: int = 1_000_000, num_buckets: int = 4
) -> ray.data.Dataset:
    """Per-label embedding centroid sums in FIXED POINT — the vector
    aggregate behind cluster-balanced sampling / per-source embedding
    statistics.  Each component is floored to ``scale`` BEFORE summing
    (floor(e*scale) as int64), so the sum is order- and
    partition-independent and the unnest SQL twin hashes exactly;
    callers divide sum/n themselves when they need the float centroid.

    Shape: per-batch partials are one (label, dim) long-format frame
    built by vectorized scatter-add (labels x dims rows per batch —
    independent of row count), merged by integer addition in a tiny
    keyed exchange.  -> (label, dim, sum_x1e6, n)."""
    from ..core import hash_exchange

    _EMPTY = {"label": object, "dim": np.int64, "sum_x1e6": np.int64, "n": np.int64}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "embedding" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EMPTY.items()})
        # promote float32 storage to float64 BEFORE scaling — float32
        # multiply rounds differently from SQL's double promotion and
        # shifts floor() by one on ~1-per-1e3 components
        vecs = np.floor(
            np.stack(df["embedding"].to_numpy()).astype(np.float64) * scale
        ).astype(np.int64)
        d = vecs.shape[1]
        labels, inv = np.unique(df["label"].to_numpy(), return_inverse=True)
        sums = np.zeros((len(labels), d), dtype=np.int64)
        np.add.at(sums, inv, vecs)
        counts = np.bincount(inv, minlength=len(labels)).astype(np.int64)
        return pd.DataFrame(
            {
                "label": np.repeat(labels, d),
                "dim": np.tile(np.arange(d, dtype=np.int64), len(labels)),
                "sum_x1e6": sums.ravel(),
                "n": np.repeat(counts, d),
            }
        )

    partials = emb.map_batches(partial, batch_format="pandas")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "label" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EMPTY.items()})
        g = df.groupby(["label", "dim"], as_index=False).agg(
            sum_x1e6=("sum_x1e6", "sum"), n=("n", "sum")
        )
        return g.astype({"dim": np.int64, "sum_x1e6": np.int64, "n": np.int64})

    return hash_exchange(partials, "label", merge, num_buckets)


def embedding_gram(
    emb: ray.data.Dataset, scale: int = 1000, num_buckets: int = 4
) -> ray.data.Dataset:
    """Distributed Gram-matrix reduction over the embedding column in
    FIXED POINT — the one-pass X^T X + column-sum + count sufficient
    statistics that feed PCA / whitening / covariance on the driver
    (d x d leaves the cluster; the data never does).

    Components quantize half-up (floor(x*scale + 0.5) after an explicit
    float64 promotion — identical IEEE double math in the SQL twin), so
    every partial is int64-exact and the merged sums are order- and
    partition-independent.  Each batch contributes ONE d*(d+1)/2
    upper-triangle partial (an int64 matmul, independent of row count)
    plus column sums and a count row; partials merge by integer
    addition on one keyed exchange.  Output is a tall table
    (i, j, val): (i, j) gram entries for i <= j, (i, -1) column sums,
    (-1, -1) the vector count.  Callers derive covariance as
    n*gram - s_i*s_j (BIGINT-exact while n * (scale*|x|max)^2 < 2^63 —
    ~1e12 rows at |x| <= 1, scale 1e3; the partial guards the
    quantized magnitude so overflow raises instead of wrapping)."""
    from ..core import hash_exchange

    _EMPTY = {"i": np.int64, "j": np.int64, "val": np.int64}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "embedding" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EMPTY.items()})
        X = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        Q = np.floor(X * scale + 0.5).astype(np.int64)
        if np.abs(Q).max(initial=0) > 1 << 20:
            raise ValueError(
                "embedding_gram: quantized magnitude exceeds the int64 "
                "overflow budget — lower `scale` or normalize the vectors"
            )
        d = Q.shape[1]
        # BLAS float64 matmul is EXACT while every dot product stays
        # under 2^53 (|q|max^2 * rows); int64 matmul (no BLAS, ~10-100x
        # slower at wide d) is the overflow-proof fallback
        qmax = int(np.abs(Q).max(initial=0))
        if qmax * qmax * len(Q) < (1 << 53):
            F = Q.astype(np.float64)
            G = (F.T @ F).astype(np.int64)
        else:
            G = Q.T @ Q
        iu, ju = np.triu_indices(d)
        return pd.DataFrame(
            {
                "i": np.concatenate([iu, np.arange(d), [-1]]).astype(np.int64),
                "j": np.concatenate(
                    [ju, np.full(d, -1), [-1]]
                ).astype(np.int64),
                "val": np.concatenate(
                    [G[iu, ju], Q.sum(axis=0), [len(df)]]
                ).astype(np.int64),
            }
        )

    partials = emb.map_batches(partial, batch_format="pandas")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "i" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EMPTY.items()})
        g = df.groupby(["i", "j"], as_index=False)["val"].sum()
        return g.astype({"i": np.int64, "j": np.int64, "val": np.int64})

    return hash_exchange(partials, "i", merge, num_buckets)


def label_gram(
    emb: ray.data.Dataset, scale: int = 1000, num_buckets: int = 4
) -> ray.data.Dataset:
    """Per-label Gram sufficient statistics — the class-conditioned
    X^T X + sums + counts that feed LDA / Fisher discriminants and
    per-class whitening, in the same fixed-point arithmetic as
    :func:`embedding_gram` (half-up quantization, exact int64 merges,
    BLAS float64 matmul under the 2^53 dot-product bound).  Each batch
    contributes one tall partial per label present in it; ONE
    label-keyed exchange merges by integer addition.
    -> (label, i, j, val): (i, j) gram for i <= j, (i, -1) sums,
    (-1, -1) count — per label."""
    from ..core import hash_exchange

    _EMPTY = {"label": np.int64, "i": np.int64, "j": np.int64,
              "val": np.int64}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "embedding" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EMPTY.items()})
        X = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        Q = np.floor(X * scale + 0.5).astype(np.int64)
        if np.abs(Q).max(initial=0) > 1 << 20:
            raise ValueError(
                "label_gram: quantized magnitude exceeds the int64 "
                "overflow budget — lower `scale` or normalize"
            )
        d = Q.shape[1]
        iu, ju = np.triu_indices(d)
        labels = df["label"].to_numpy(np.int64)
        out = []
        qmax = int(np.abs(Q).max(initial=0))
        for lab in np.unique(labels):
            Ql = Q[labels == lab]
            if qmax * qmax * len(Ql) < (1 << 53):
                F = Ql.astype(np.float64)
                G = (F.T @ F).astype(np.int64)
            else:
                G = Ql.T @ Ql
            out.append(pd.DataFrame(
                {"label": np.int64(lab),
                 "i": np.concatenate([iu, np.arange(d), [-1]]).astype(np.int64),
                 "j": np.concatenate([ju, np.full(d, -1), [-1]]).astype(np.int64),
                 "val": np.concatenate(
                     [G[iu, ju], Ql.sum(axis=0), [len(Ql)]]
                 ).astype(np.int64)}
            ))
        return pd.concat(out, ignore_index=True)

    partials = emb.map_batches(partial, batch_format="pandas")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "label" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EMPTY.items()})
        g = df.groupby(["label", "i", "j"], as_index=False)["val"].sum()
        return g.astype(_EMPTY)

    return hash_exchange(partials, "label", merge, num_buckets)


def power_iteration(
    ds: "ray.data.Dataset",
    iters: int = 3,
    scale: int = 1_000_000,
    chunk: int = 4096,
) -> pd.DataFrame:
    """Top eigenvector of the embedding Gram matrix XᵀX by ``iters``
    fixed-point power-iteration steps — the 1-component PCA a curation
    pipeline uses to find the dominant direction of an embedding
    collection (and the iterative-linear-algebra sibling of
    :func:`dygiepp_ray.analytics.pagerank_over_edges`'s fixed point).

    Bit-exact across engines: elements encode to ints
    (``floor(x*1000 + 0.5)``, the embedding_gram convention), the
    iterate stays a BIGINT vector normalized by ``v' = w*scale //
    max|w|`` (floored division on both sides), and XᵀX is never
    formed — each step is one streaming pass computing
    ``w = Xᵀ(Xv)`` per batch.  ``u = Xv`` is row-local; the per-batch
    ``Xᵀu`` partial is folded in ``chunk``-row int64 matmuls into
    python-int accumulators and emitted as DECIMAL-STRING partials
    (the exact-moments discipline), so no int64 overflow exists at any
    corpus size; the driver holds one d-vector of python ints.
    Gram eigenvalues are >= 0, so the iterate's sign is stable and the
    result deterministic.  -> (dim BIGINT, v BIGINT)."""
    emb = ds.select_columns(["embedding"]).materialize()

    if emb.count() == 0:
        return pd.DataFrame({"dim": pd.Series(dtype=np.int64),
                             "v": pd.Series(dtype=np.int64)})
    first = emb.take_batch(1, batch_format="pandas")
    d = len(first["embedding"].iloc[0])
    v = [int(scale)] * d

    for _ in range(iters):
        v_arr = np.asarray(v, dtype=np.int64)

        def partial(df: pd.DataFrame, _v=v_arr) -> pd.DataFrame:
            if len(df) == 0 or "embedding" not in df.columns:
                return pd.DataFrame({"dim": pd.Series(dtype=np.int64),
                                     "w": pd.Series(dtype=object)})
            x = np.floor(_stack(df["embedding"].to_numpy()) * 1000.0 + 0.5
                         ).astype(np.int64)
            acc = [0] * x.shape[1]
            for s in range(0, len(x), chunk):
                xc = x[s:s + chunk]
                u = xc @ _v                      # row-local, fits int64
                wc = xc.T @ u                    # bounded by chunk size
                for j, wj in enumerate(wc):
                    acc[j] += int(wj)
            return pd.DataFrame({"dim": np.arange(len(acc), dtype=np.int64),
                                 "w": [str(a) for a in acc]})

        parts = emb.map_batches(partial, batch_format="pandas").to_pandas()
        w = [0] * d
        for j, ws in zip(parts["dim"].to_numpy(np.int64), parts["w"]):
            w[int(j)] += int(ws)
        m = max(abs(x) for x in w)
        v = [0] * d if m == 0 else [x * int(scale) // m for x in w]

    return pd.DataFrame({"dim": np.arange(d, dtype=np.int64),
                         "v": np.asarray(v, dtype=np.int64)})


# ---------------------------------------------------------------------------
# Integer-exact k-means + SemDeDup-style semantic dedup
# ---------------------------------------------------------------------------

KM_SCALE = 1000


def _quantize(df: pd.DataFrame) -> np.ndarray:
    """floor(float64(x) * KM_SCALE) int64 — the bit-exact twin of
    DuckDB's floor(CAST(x AS DOUBLE) * 1000)."""
    return np.floor(
        _stack(df["embedding"]).astype(np.float64) * KM_SCALE
    ).astype(np.int64)


def kmeans_int_centroids(
    embeddings: ray.data.Dataset, k: int = 8, iters: int = 3
) -> np.ndarray:
    """Integer-exact distributed k-means: quantized vectors, integer
    squared-L2 assignment (ties -> lowest cluster), centroids updated
    by FLOORED integer division — so a DuckDB chained-CTE twin
    reproduces every centroid bit-for-bit (the pagerank3 fixed-point
    discipline applied to clustering).  Empty clusters keep their
    previous centroid.

    Each iteration is ONE streaming pass emitting per-batch
    (cluster, dim-sum, n) partials; the driver holds k x d ints only
    and folds PYTHON ints (decimal-string partials), exact at any
    corpus size."""
    embeddings = embeddings.materialize()  # iterative consumer
    small = embeddings.map_batches(
        lambda df: df.nsmallest(k, "vec_id"), batch_format="pandas"
    ).to_pandas()
    if small.empty or "vec_id" not in small.columns:
        return np.zeros((0, 0), dtype=np.int64)
    small = small.nsmallest(k, "vec_id")
    centroids = _quantize(small)

    for _ in range(iters):
        cref = ray.put(centroids)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame({"cluster": pd.Series(dtype=np.int64),
                                  "vsum": pd.Series(dtype=object),
                                  "n": pd.Series(dtype=np.int64)})
            if len(df) == 0 or "embedding" not in df.columns:
                return empty
            c = ray.get(cref)
            q = _quantize(df)
            d = ((q[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d, axis=1)  # ties -> lowest cluster
            rows = {"cluster": [], "vsum": [], "n": []}
            for ci in np.unique(assign):
                sel = q[assign == ci]
                rows["cluster"].append(int(ci))
                # decimal-string sums: overflow-proof driver fold
                rows["vsum"].append(",".join(
                    str(int(v)) for v in sel.sum(axis=0)))
                rows["n"].append(len(sel))
            return pd.DataFrame(rows).astype(
                {"cluster": np.int64, "n": np.int64})

        parts = embeddings.map_batches(
            partial, batch_format="pandas").to_pandas()
        if parts.empty or "cluster" not in parts.columns:
            return centroids
        new = centroids.copy()
        for ci, g in parts.groupby("cluster"):
            sums = [0] * centroids.shape[1]
            n = 0
            for vs, cnt in zip(g["vsum"], g["n"]):
                for j, v in enumerate(vs.split(",")):
                    sums[j] += int(v)
                n += int(cnt)
            if n:
                new[int(ci)] = [s // n for s in sums]  # python FLOOR div
        centroids = new
    return centroids


def kmeans_int_assign(
    embeddings: ray.data.Dataset, centroids: np.ndarray
) -> ray.data.Dataset:
    """Final-assignment pass: (vec_id, cluster, dist) per vector with
    the exact integer distances under the given centroids."""
    cref = ray.put(centroids)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                              "cluster": pd.Series(dtype=np.int64),
                              "dist": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "embedding" not in df.columns:
            return empty
        c = ray.get(cref)
        q = _quantize(df)
        d = ((q[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        a = np.argmin(d, axis=1)
        return pd.DataFrame(
            {"vec_id": df["vec_id"].to_numpy(np.int64),
             "cluster": a.astype(np.int64),
             "dist": d[np.arange(len(a)), a].astype(np.int64)})

    return embeddings.map_batches(assign, batch_format="pandas")


def kmeans_clusters(
    embeddings: ray.data.Dataset, k: int = 8, iters: int = 3
) -> pd.DataFrame:
    """Per-cluster summary after integer-exact k-means: size, centroid
    checksum (sum of centroid components) and exact integer inertia.
    -> (cluster, n_vecs, centroid_sum, inertia)."""
    out_cols = {"cluster": np.int64, "n_vecs": np.int64,
                "centroid_sum": np.int64, "inertia": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    embeddings = embeddings.materialize()
    centroids = kmeans_int_centroids(embeddings, k=k, iters=iters)
    if centroids.size == 0:
        return empty_out

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "cluster" not in df.columns:
            return pd.DataFrame({"cluster": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64),
                                 "d": pd.Series(dtype=object)})
        g = df.groupby("cluster", as_index=False).agg(
            n=("vec_id", "size"), dsum=("dist", "sum"))
        g["d"] = g["dsum"].map(lambda v: str(int(v)))
        return g[["cluster", "n", "d"]].astype(
            {"cluster": np.int64, "n": np.int64})

    parts = kmeans_int_assign(embeddings, centroids).map_batches(
        partial, batch_format="pandas").to_pandas()
    if parts.empty or "cluster" not in parts.columns:
        return empty_out
    agg: dict[int, list[int]] = {}
    for ci, n, d in zip(parts["cluster"], parts["n"], parts["d"]):
        a = agg.setdefault(int(ci), [0, 0])
        a[0] += int(n)
        a[1] += int(d)
    rows = [(ci, agg[ci][0], int(centroids[ci].sum()), agg[ci][1])
            for ci in sorted(agg)]
    return pd.DataFrame(rows, columns=list(out_cols)).astype(out_cols)


SEMDEDUP_TAU_X1E6 = 350_000


def semantic_dedup(
    embeddings: ray.data.Dataset,
    k: int = 8,
    iters: int = 3,
    tau_x1e6: int = SEMDEDUP_TAU_X1E6,
    num_buckets: int | None = None,
) -> pd.DataFrame:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): cluster the
    embedding space with k-means, then mark within-cluster cosine
    near-duplicates — the semantic complement to MinHash/SimHash
    text dedup.  A vector is a DUP of the smallest earlier same-
    cluster vec_id whose cosine (fixed point 1e6, pinned
    double-divide-sqrt sequence) reaches ``tau_x1e6``; first-wins,
    like incremental_dedup.  Zero vectors never pair (undefined
    cosine).

    Shape: the k-means passes stream (driver holds k x d ints); the
    pair scan is ONE cluster-keyed exchange — candidate pairs exist
    only INSIDE a cluster, which is the entire SemDeDup trick, so no
    all-pairs path exists at any scale.  Quantized vectors ride the
    exchange as byte blobs; per-bucket scoring is one int64 matmul.
    -> (vec_id, cluster, dup_of, cos_x1e6)."""
    from ..core import hash_exchange

    out_cols = {"vec_id": np.int64, "cluster": np.int64,
                "dup_of": np.int64, "cos_x1e6": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    embeddings = embeddings.materialize()
    centroids = kmeans_int_centroids(embeddings, k=k, iters=iters)
    if centroids.size == 0:
        return empty_out
    cref = ray.put(centroids)

    def assign_q(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                              "cluster": pd.Series(dtype=np.int64),
                              "qv": pd.Series(dtype=object)})
        if len(df) == 0 or "embedding" not in df.columns:
            return empty
        c = ray.get(cref)
        q = _quantize(df)
        d = ((q[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        a = np.argmin(d, axis=1)
        return pd.DataFrame(
            {"vec_id": df["vec_id"].to_numpy(np.int64),
             "cluster": a.astype(np.int64),
             "qv": [row.tobytes() for row in q]})

    rows = embeddings.map_batches(assign_q, batch_format="pandas")

    def pair_scan(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "qv" not in df.columns:
            return empty_out
        recs = []
        for ci, g in df.groupby("cluster"):
            g = g.sort_values("vec_id")
            ids = g["vec_id"].to_numpy(np.int64)
            Q = np.stack([np.frombuffer(b, dtype=np.int64)
                          for b in g["qv"]])
            n2 = (Q * Q).sum(axis=1)
            live = n2 > 0  # zero vectors never pair
            dot = Q @ Q.T
            denom = np.sqrt(n2.astype(np.float64)[:, None]
                            * n2.astype(np.float64)[None, :])
            with np.errstate(divide="ignore", invalid="ignore"):
                sim = np.floor(
                    1_000_000.0 * (dot.astype(np.float64) / denom))
            for j in range(1, len(ids)):
                if not live[j]:
                    continue
                ok = np.nonzero(
                    live[:j] & (sim[:j, j] >= tau_x1e6))[0]
                if len(ok):
                    i = ok[0]  # ids sorted -> smallest qualifying
                    recs.append((int(ids[j]), int(ci), int(ids[i]),
                                 int(sim[i, j])))
        if not recs:
            return empty_out
        return pd.DataFrame(recs, columns=list(out_cols)).astype(out_cols)

    out = hash_exchange(rows, "cluster", pair_scan, num_buckets)
    pdf = out.to_pandas()
    if pdf.empty or "vec_id" not in pdf.columns:
        return empty_out
    return pdf.sort_values("vec_id", ignore_index=True).astype(out_cols)


def quantile_normalize(
    embeddings: ray.data.Dataset, num_buckets: int | None = None
) -> pd.DataFrame:
    """Quantile normalization across embedding dimensions (the
    microarray-style feature-prep op: force every dimension to share
    one distribution): each value maps to the FLOORED mean of the
    values holding its within-dim rank (rank ties broken by vec_id),
    all in quantized int64 space — bit-exact vs the window-function
    SQL twin.

    Shape: two keyed exchanges, each perfectly partitioned — by dim
    (per-dim sort/rank over ~n values) then by rank (per-rank mean
    over n_dims values); the driver folds O(vectors) partials.
    -> (vec_id, qn_sum) — the per-vector sum of normalized values."""
    from ..core import hash_exchange

    out_cols = {"vec_id": np.int64, "qn_sum": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})

    _V = {"vec_id": np.int64, "dim": np.int64, "q": np.int64}

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "embedding" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in _V.items()})
        q = _quantize(df)
        n, d = q.shape
        return pd.DataFrame(
            {"vec_id": np.repeat(df["vec_id"].to_numpy(np.int64), d),
             "dim": np.tile(np.arange(1, d + 1, dtype=np.int64), n),
             "q": q.ravel()})

    rows = embeddings.map_batches(explode, batch_format="pandas")

    _R = {"vec_id": np.int64, "rk": np.int64, "q": np.int64}

    def rank_within_dim(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "dim" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in _R.items()})
        df = df.sort_values(["dim", "q", "vec_id"])
        rk = df.groupby("dim").cumcount().to_numpy(np.int64) + 1
        return pd.DataFrame({"vec_id": df["vec_id"].to_numpy(np.int64),
                             "rk": rk,
                             "q": df["q"].to_numpy(np.int64)})

    ranked = hash_exchange(rows, "dim", rank_within_dim, num_buckets)

    _P = {"vec_id": np.int64, "t": object}

    def rank_mean(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "rk" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in _P.items()})
        g = df.groupby("rk")
        tv = {int(r): int(s) // int(c) for r, s, c in zip(
            g.size().index, g["q"].sum(), g.size())}
        out = df.groupby("vec_id", as_index=False).agg(
            tsum=("rk", lambda s: sum(tv[int(r)] for r in s)))
        out["t"] = out["tsum"].map(lambda v: str(int(v)))
        return out[["vec_id", "t"]].astype({"vec_id": np.int64})

    parts = hash_exchange(ranked, "rk", rank_mean, num_buckets).to_pandas()
    if parts.empty or "vec_id" not in parts.columns:
        return empty_out
    agg: dict[int, int] = {}
    for vid, t in zip(parts["vec_id"], parts["t"]):
        agg[int(vid)] = agg.get(int(vid), 0) + int(t)
    return pd.DataFrame(sorted(agg.items()),
                        columns=list(out_cols)).astype(out_cols)


NPY_SHARD = 256


def write_npy(mat: np.ndarray) -> bytes:
    """Hand-written .npy v1.0: magic, version, uint16 header length,
    64-byte-aligned ASCII header dict, little-endian f4 payload."""
    head = ("{'descr': '<f4', 'fortran_order': False, "
            f"'shape': {mat.shape!r}, }}")
    # pad so that magic+ver+len+header is a multiple of 64
    pad = 64 - ((10 + len(head) + 1) % 64)
    head = head + " " * (pad % 64) + "\n"
    out = bytearray(b"\x93NUMPY\x01\x00")
    out += len(head).to_bytes(2, "little")
    out += head.encode("latin1")
    out += np.ascontiguousarray(mat, dtype="<f4").tobytes()
    return bytes(out)


def read_npy(blob: bytes) -> np.ndarray:
    """Parse + validate a .npy v1.0 blob (magic/version, 64-byte
    header alignment, dtype/order, payload size)."""
    import ast

    if blob[:8] != b"\x93NUMPY\x01\x00":
        raise ValueError("bad .npy magic/version")
    hlen = int.from_bytes(blob[8:10], "little")
    if (10 + hlen) % 64:
        raise ValueError(".npy header not 64-byte aligned")
    hdr = ast.literal_eval(blob[10:10 + hlen].decode("latin1"))
    if hdr["descr"] != "<f4" or hdr["fortran_order"]:
        raise ValueError("unexpected .npy dtype/order")
    n, d = hdr["shape"]
    data = np.frombuffer(blob[10 + hlen:], dtype="<f4")
    if data.size != n * d:
        raise ValueError(".npy payload size mismatch")
    return data.reshape(n, d)


def npy_shard_roundtrip(
    embeddings: ray.data.Dataset, num_buckets: int | None = None
) -> pd.DataFrame:
    """NumPy ``.npy`` v1.0 shard export/ingest round trip: vectors pack
    into one REAL .npy per shard (shard = vec_id // 256) — magic
    ``\\x93NUMPY``, version 1.0, 64-byte-aligned ASCII header dict,
    little-endian float32 payload — written by hand (not np.save) and
    re-read with full header validation; the re-read data must equal
    the input bit-for-bit.  Emits per-shard stats the SQL twin
    reproduces from the quantized values.

    Shape: one shard-keyed exchange; shard bytes never cross the
    driver.  -> (shard_id, n_vecs, q_sum)."""
    import ast

    from ..core import hash_exchange

    out_cols = {"shard_id": np.int64, "n_vecs": np.int64,
                "q_sum": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})

    def key(df: pd.DataFrame) -> pd.DataFrame:
        # list columns do not survive a pandas map_batches round trip:
        # ship the float32 payload as bytes (the _assign_lists rule)
        if len(df) == 0 or "vec_id" not in df.columns:
            return pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                                 "payload": pd.Series(dtype=object),
                                 "__k": pd.Series(dtype=np.int64)})
        mat = _stack(df["embedding"]).astype("<f4")
        return pd.DataFrame(
            {"vec_id": df["vec_id"].to_numpy(np.int64),
             "payload": [row.tobytes() for row in mat],
             "__k": df["vec_id"].to_numpy(np.int64) // NPY_SHARD})

    def roundtrip(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "vec_id" not in df.columns:
            return empty_out
        rows = {c: [] for c in out_cols}
        for sid, g in df.groupby("__k"):
            g = g.sort_values("vec_id")
            mat = np.stack([np.frombuffer(b, dtype="<f4")
                            for b in g["payload"]])
            back = read_npy(write_npy(mat))
            if back.shape != mat.shape or not (back == mat).all():
                raise ValueError(f".npy round trip diverged: shard {sid}")
            q = np.floor(back.astype(np.float64) * KM_SCALE)
            rows["shard_id"].append(int(sid))
            rows["n_vecs"].append(len(g))
            rows["q_sum"].append(int(q.sum()))
        return pd.DataFrame(rows).astype(out_cols)

    out = hash_exchange(
        embeddings.map_batches(key, batch_format="pandas"), "__k",
        roundtrip, num_buckets or 8)
    pdf = out.to_pandas()
    if pdf.empty or "shard_id" not in pdf.columns:
        return empty_out
    return pdf.sort_values("shard_id", ignore_index=True).astype(out_cols)


KNN_K = 3


def label_knn_eval(
    embeddings: ray.data.Dataset, k: int = KNN_K
) -> pd.DataFrame:
    """Leave-one-out k-NN label accuracy — the standard
    is-this-embedding-space-any-good readout (CIFAR-style LOO eval)
    run per label: each vector is classified by majority vote of its
    k nearest OTHER vectors (exact integer squared-L2 over quantized
    values; distance ties break by vec_id, vote ties by smallest
    label) and scored against its own label.

    Shape: the quantized matrix is the BROADCAST small side (ray.put
    once — an eval op runs over an eval-set-sized sample, the
    decontaminate asymmetry; at corpus scale swap in the IVF/LSH
    candidate generators); each batch scores itself against it in one
    int64 matmul.  -> (label, n, n_correct, acc_ppm)."""
    out_cols = {"label": np.int64, "n": np.int64,
                "n_correct": np.int64, "acc_ppm": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    embeddings = embeddings.materialize()
    full = embeddings.map_batches(
        lambda df: pd.DataFrame(
            {"vec_id": df["vec_id"].to_numpy(np.int64),
             "label": df["label"].to_numpy(np.int64),
             "qv": [r.tobytes() for r in _quantize(df)]})
        if len(df) and "vec_id" in df.columns else
        pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                      "label": pd.Series(dtype=np.int64),
                      "qv": pd.Series(dtype=object)}),
        batch_format="pandas").to_pandas()
    if full.empty or "vec_id" not in full.columns or len(full) < 2:
        return empty_out
    full = full.sort_values("vec_id", ignore_index=True)
    ids = full["vec_id"].to_numpy(np.int64)
    labs = full["label"].to_numpy(np.int64)
    Q = np.stack([np.frombuffer(b, dtype=np.int64) for b in full["qv"]])
    ref = ray.put((ids, labs, Q))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"label": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64),
                              "c": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "vec_id" not in df.columns:
            return empty
        aids, alabs, A = ray.get(ref)
        q = _quantize(df)
        bids = df["vec_id"].to_numpy(np.int64)
        blabs = df["label"].to_numpy(np.int64)
        n2a = (A * A).sum(axis=1)
        n2b = (q * q).sum(axis=1)
        d = n2b[:, None] + n2a[None, :] - 2 * (q @ A.T)
        rows = {"label": [], "n": [], "c": []}
        agg: dict[int, list[int]] = {}
        for i in range(len(bids)):
            order = np.lexsort((aids, d[i]))
            votes: dict[int, int] = {}
            taken = 0
            for j in order:
                if aids[j] == bids[i]:
                    continue  # leave-one-out
                votes[int(alabs[j])] = votes.get(int(alabs[j]), 0) + 1
                taken += 1
                if taken == k:
                    break
            best = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))[0]
            a = agg.setdefault(int(blabs[i]), [0, 0])
            a[0] += 1
            a[1] += int(best == blabs[i])
        for lab, (n, c) in agg.items():
            rows["label"].append(lab)
            rows["n"].append(n)
            rows["c"].append(c)
        return pd.DataFrame(rows).astype(
            {"label": np.int64, "n": np.int64, "c": np.int64})

    parts = embeddings.map_batches(score, batch_format="pandas").to_pandas()
    if parts.empty or "label" not in parts.columns:
        return empty_out
    g = parts.groupby("label", as_index=False).sum()
    return pd.DataFrame(
        {"label": g["label"].to_numpy(np.int64),
         "n": g["n"].to_numpy(np.int64),
         "n_correct": g["c"].to_numpy(np.int64),
         "acc_ppm": (1_000_000 * g["c"].to_numpy(np.int64))
         // g["n"].to_numpy(np.int64)}
    ).sort_values("label", ignore_index=True).astype(out_cols)


# fixed-point DCG discounts: floor(1e6 / log2(i+1)) for ranks 1..5 —
# pinned literals so both engines stay in integer arithmetic
NDCG_DISCOUNTS = (1_000_000, 630_929, 500_000, 430_676, 386_852)


def ndcg_label_retrieval(
    embeddings: ray.data.Dataset, k: int = 5
) -> pd.DataFrame:
    """NDCG@5 of nearest-neighbor retrieval where relevance = same
    label — the ranking-quality complement to label_knn_eval's
    classification view.  Distances are exact integer squared-L2 over
    quantized vectors (ties by vec_id); DCG uses the pinned
    fixed-point discount table, so every number is integer-exact.
    Query vectors with no same-label partner are excluded (IDCG
    undefined).

    Shape: broadcast eval-set matrix (the decontaminate asymmetry);
    one matmul per batch.  -> (label, n_queries, mean_ndcg_x1e6)."""
    out_cols = {"label": np.int64, "n_queries": np.int64,
                "mean_ndcg_x1e6": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    embeddings = embeddings.materialize()
    full = embeddings.map_batches(
        lambda df: pd.DataFrame(
            {"vec_id": df["vec_id"].to_numpy(np.int64),
             "label": df["label"].to_numpy(np.int64),
             "qv": [r.tobytes() for r in _quantize(df)]})
        if len(df) and "vec_id" in df.columns else
        pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                      "label": pd.Series(dtype=np.int64),
                      "qv": pd.Series(dtype=object)}),
        batch_format="pandas").to_pandas()
    if full.empty or "vec_id" not in full.columns or len(full) < 2:
        return empty_out
    full = full.sort_values("vec_id", ignore_index=True)
    ids = full["vec_id"].to_numpy(np.int64)
    labs = full["label"].to_numpy(np.int64)
    Q = np.stack([np.frombuffer(b, dtype=np.int64) for b in full["qv"]])
    lab_counts = pd.Series(labs).value_counts().to_dict()
    ref = ray.put((ids, labs, Q))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"label": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64),
                              "s": pd.Series(dtype=object)})
        if len(df) == 0 or "vec_id" not in df.columns:
            return empty
        aids, alabs, A = ray.get(ref)
        q = _quantize(df)
        bids = df["vec_id"].to_numpy(np.int64)
        blabs = df["label"].to_numpy(np.int64)
        d = ((q * q).sum(axis=1)[:, None]
             + (A * A).sum(axis=1)[None, :] - 2 * (q @ A.T))
        agg: dict[int, list[int]] = {}
        for i in range(len(bids)):
            n_rel = lab_counts.get(int(blabs[i]), 0) - 1
            if n_rel <= 0:
                continue  # IDCG undefined
            order = np.lexsort((aids, d[i]))
            dcg = taken = 0
            for j in order:
                if aids[j] == bids[i]:
                    continue
                if alabs[j] == blabs[i]:
                    dcg += NDCG_DISCOUNTS[taken]
                taken += 1
                if taken == k:
                    break
            idcg = sum(NDCG_DISCOUNTS[:min(k, n_rel)])
            nd = (1_000_000 * dcg) // idcg
            a = agg.setdefault(int(blabs[i]), [0, 0])
            a[0] += 1
            a[1] += nd
        if not agg:
            return empty
        return pd.DataFrame(
            {"label": list(agg), "n": [v[0] for v in agg.values()],
             "s": [str(v[1]) for v in agg.values()]}).astype(
            {"label": np.int64, "n": np.int64})

    parts = embeddings.map_batches(score, batch_format="pandas").to_pandas()
    if parts.empty or "label" not in parts.columns:
        return empty_out
    agg: dict[int, list[int]] = {}
    for lab, n, s in zip(parts["label"], parts["n"], parts["s"]):
        a = agg.setdefault(int(lab), [0, 0])
        a[0] += int(n)
        a[1] += int(s)
    rows = [(lab, a[0], a[1] // a[0]) for lab, a in sorted(agg.items())]
    return pd.DataFrame(rows, columns=list(out_cols)).astype(out_cols)


CORESET_K = 8


def kcenter_coreset(
    embeddings: ray.data.Dataset, k: int = CORESET_K
) -> pd.DataFrame:
    """Greedy k-center coreset selection (farthest-point sampling —
    the classic 2-approximation; the coreset-curation primitive for
    'pick k maximally-diverse exemplars'): start from the smallest
    vec_id, then repeatedly select the vector FARTHEST from the
    selected set (exact integer squared-L2; distance ties -> smallest
    vec_id).  Emits each selection with its distance-to-set at
    selection time (0 for the seed).

    Shape: k-1 streaming passes; each batch reduces itself against
    the tiny broadcast selected set (k x d ints) and emits ONE
    candidate row; the driver folds O(blocks) rows per pass.
    -> (sel_ix, vec_id, min_dist)."""
    out_cols = {"sel_ix": np.int64, "vec_id": np.int64,
                "min_dist": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    embeddings = embeddings.materialize()
    seed = embeddings.map_batches(
        lambda df: df[["vec_id"]].nsmallest(1, "vec_id")
        if len(df) and "vec_id" in df.columns else
        pd.DataFrame({"vec_id": pd.Series(dtype=np.int64)}),
        batch_format="pandas").to_pandas()
    if seed.empty or "vec_id" not in seed.columns:
        return empty_out
    first = int(seed["vec_id"].min())
    sel_rows = [(1, first, 0)]
    sel_vecs: np.ndarray | None = None

    def get_vec(vid: int) -> np.ndarray:
        def pick(df: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame({"qv": pd.Series(dtype=object)})
            if len(df) == 0 or "vec_id" not in df.columns:
                return empty
            hit = df[df["vec_id"] == vid]
            if len(hit) == 0:
                return empty
            return pd.DataFrame(
                {"qv": [r.tobytes() for r in _quantize(hit)]})

        got = embeddings.map_batches(
            pick, batch_format="pandas").to_pandas()
        return np.frombuffer(got["qv"].iloc[0], dtype=np.int64)

    sel_vecs = get_vec(first)[None, :]
    for ix in range(2, k + 1):
        sref = ray.put(sel_vecs)

        def cand(df: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                                  "md": pd.Series(dtype=np.int64)})
            if len(df) == 0 or "vec_id" not in df.columns:
                return empty
            S = ray.get(sref)
            q = _quantize(df)
            d = ((q * q).sum(axis=1)[:, None]
                 + (S * S).sum(axis=1)[None, :] - 2 * (q @ S.T))
            md = d.min(axis=1)
            bids = df["vec_id"].to_numpy(np.int64)
            # batch-local winner: max md, tie -> smallest vec_id
            order = np.lexsort((bids, -md))
            return pd.DataFrame({"vec_id": [int(bids[order[0]])],
                                 "md": [int(md[order[0]])]})

        parts = embeddings.map_batches(
            cand, batch_format="pandas").to_pandas()
        if parts.empty or "vec_id" not in parts.columns:
            break
        parts = parts.sort_values(
            ["md", "vec_id"], ascending=[False, True], ignore_index=True)
        vid, md = int(parts["vec_id"].iloc[0]), int(parts["md"].iloc[0])
        sel_rows.append((ix, vid, md))
        sel_vecs = np.vstack([sel_vecs, get_vec(vid)[None, :]])
    return pd.DataFrame(sel_rows, columns=list(out_cols)).astype(out_cols)


def cluster_hard_negatives(
    embeddings: ray.data.Dataset,
    k: int = 8,
    iters: int = 3,
    num_buckets: int | None = None,
) -> pd.DataFrame:
    """Hard-negative mining for contrastive training: for each vector,
    the NEAREST same-k-means-cluster vector with a DIFFERENT label —
    the close-but-wrong examples a contrastive loss learns most from
    (the in-cluster restriction is what makes them hard; the SemDeDup
    clustering is reused as the candidate generator).  Exact integer
    distances, ties by the smaller candidate vec_id.  Vectors whose
    cluster holds no other label yield no row.

    Shape: the k-means passes stream; the mining is ONE cluster-keyed
    exchange with quantized vectors as byte payloads, one int64
    matmul per bucket.  -> (vec_id, label, neg_id, neg_label, dist)."""
    from ..core import hash_exchange

    out_cols = {"vec_id": np.int64, "label": np.int64,
                "neg_id": np.int64, "neg_label": np.int64,
                "dist": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})
    embeddings = embeddings.materialize()
    centroids = kmeans_int_centroids(embeddings, k=k, iters=iters)
    if centroids.size == 0:
        return empty_out
    cref = ray.put(centroids)

    def assign_q(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                              "label": pd.Series(dtype=np.int64),
                              "cluster": pd.Series(dtype=np.int64),
                              "qv": pd.Series(dtype=object)})
        if len(df) == 0 or "embedding" not in df.columns:
            return empty
        c = ray.get(cref)
        q = _quantize(df)
        d = ((q[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        return pd.DataFrame(
            {"vec_id": df["vec_id"].to_numpy(np.int64),
             "label": df["label"].to_numpy(np.int64),
             "cluster": np.argmin(d, axis=1).astype(np.int64),
             "qv": [row.tobytes() for row in q]})

    rows = embeddings.map_batches(assign_q, batch_format="pandas")

    def mine(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "qv" not in df.columns:
            return empty_out
        recs = []
        for ci, g in df.groupby("cluster"):
            g = g.sort_values("vec_id")
            ids = g["vec_id"].to_numpy(np.int64)
            labs = g["label"].to_numpy(np.int64)
            Q = np.stack([np.frombuffer(b, dtype=np.int64)
                          for b in g["qv"]])
            n2 = (Q * Q).sum(axis=1)
            d = n2[:, None] + n2[None, :] - 2 * (Q @ Q.T)
            for i in range(len(ids)):
                diff = labs != labs[i]
                if not diff.any():
                    continue
                cand = np.nonzero(diff)[0]
                # ids sorted: lexsort picks min dist, tie smaller id
                order = cand[np.lexsort((ids[cand], d[i, cand]))]
                j = order[0]
                recs.append((int(ids[i]), int(labs[i]), int(ids[j]),
                             int(labs[j]), int(d[i, j])))
        if not recs:
            return empty_out
        return pd.DataFrame(recs, columns=list(out_cols)).astype(out_cols)

    out = hash_exchange(rows, "cluster", mine, num_buckets)
    pdf = out.to_pandas()
    if pdf.empty or "vec_id" not in pdf.columns:
        return empty_out
    return pdf.sort_values("vec_id", ignore_index=True).astype(out_cols)
