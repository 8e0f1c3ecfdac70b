"""Deduplication operators for large-scale training-data pipelines.

* exact: content-hash (md5) -> hash-partitioned per-group first (D5
  pattern: ``groupby(key).first``), with a batch-local combiner so the
  shuffle carries one row per (hash, batch).
* MinHash + LSH near-dup: word-shingle -> 128 minhashes -> banded
  buckets -> ``groupby(band, bucket)`` candidate pairs -> exact Jaccard
  verify -> connected components by iterative min-label propagation
  (all via ``hash_exchange`` — no driver-side union-find).
* SimHash: 64-bit fingerprints + banded candidate generation.
* n-gram Jaccard: exact verify used by both near-dup paths.

All hashing is deterministic (md5 where a SQL oracle reproduces the
values, pandas' fixed-key siphash where the hash is an internal
fingerprint or bucketing key), so results are stable across processes
and runs.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pandas as pd

import ray.data

from ..core import grouped_pair_indices, hash_exchange

_LOG = logging.getLogger(__name__)

# Max members of one LSH bucket entering all-pairs candidate generation.
# Real web corpora have boilerplate mega-buckets (1e5+ members -> 1e10
# pairs from np.triu_indices); the exact verify downstream filters wrong
# pairs but cannot filter an exploding pair STREAM.  Above the cap we
# emit all pairs among the ``cap`` smallest ids PLUS a star edge from
# every overflow member to the bucket minimum: output is O(cap^2 + n)
# per bucket, every member stays reachable for the connected-components
# pass (so near-identical mega-buckets still collapse to one component
# after verification), and the truncation is logged — no silent caps.
LSH_BUCKET_CAP = 512


def _capped_pair_indices(n: int, cap: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (a < b positionally) for one bucket of ``n`` sorted
    members: all pairs up to ``cap`` members, capped + star beyond."""
    k = min(n, cap)
    a, b = np.triu_indices(k, k=1)
    if n > k:
        _LOG.warning(
            "%s: LSH bucket of %d members exceeds cap=%d; emitting "
            "all-pairs among the %d smallest ids + %d star edges to the "
            "bucket minimum (%d of %d possible pairs dropped)",
            what, n, cap, k, n - k,
            n * (n - 1) // 2 - (k * (k - 1) // 2 + (n - k)), n * (n - 1) // 2,
        )
        a = np.concatenate([a, np.zeros(n - k, dtype=np.int64)])
        b = np.concatenate([b, np.arange(k, n, dtype=np.int64)])
    return a, b

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def _add_pair_key(df: pd.DataFrame) -> pd.DataFrame:
    """Numeric pair-bucketing key (vectorized; see callers — dedup always
    compares the real id columns, never the hash)."""
    df = df.copy()
    if "id_a" not in df.columns or len(df) == 0:
        df["pkey"] = pd.Series(dtype=np.int64)
        return df
    ha = pd.util.hash_array(df["id_a"].to_numpy(), categorize=False)
    hb = pd.util.hash_array(df["id_b"].to_numpy(), categorize=False)
    df["pkey"] = ((ha * np.uint64(0x9E3779B97F4A7C15) ^ hb) >> np.uint64(1)).astype(np.int64)
    return df


def _md5_series(texts: pd.Series) -> pd.Series:
    return texts.map(lambda t: hashlib.md5(t.encode("utf-8")).hexdigest())


def exact_dedup(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """-> (text_hash, rep_id, n_dups): representative = min id per hash."""

    def local(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"text_hash": _md5_series(df[text_col]), "rep_id": df[id_col]}
        )
        g = out.groupby("text_hash", sort=False)["rep_id"].agg(["min", "size"])
        return g.rename(columns={"min": "rep_id", "size": "n_dups"}).reset_index()

    partials = ds.map_batches(local, batch_format="pandas")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("text_hash", sort=False).agg(
            rep_id=("rep_id", "min"), n_dups=("n_dups", "sum")
        )
        return g.reset_index()

    return hash_exchange(partials, "text_hash", merge, num_buckets)


# ---------------------------------------------------------------------------
# shingles + minhash
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _perm_params(n_perm: int, seed: int = 12345) -> tuple[np.ndarray, np.ndarray]:
    # a < 2^31 and 32-bit shingle hashes keep a*h + b < 2^63 + 2^61, so
    # the (a*h + b) mod p arithmetic is EXACT in uint64 — no 2^64 wrap
    # before the Mersenne mod distorting the universal hash family
    rs = np.random.RandomState(seed)
    a = rs.randint(1, 1 << 31, size=n_perm, dtype=np.int64).astype(np.uint64)
    b = rs.randint(0, _MERSENNE, size=n_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def _shingle_hashes(tokens: list[str], k: int) -> np.ndarray:
    """Deterministic 64-bit hashes of the DISTINCT word k-shingles.

    Hashing here only needs to be an injective-w.h.p. fingerprint of
    each shingle (Jaccard is computed on hash SETS, so any collision-
    free hash yields identical set cardinalities — the all-pairs SQL
    oracle computes the same Jaccard on the shingle strings).  pandas'
    fixed-key siphash is stable across processes/runs and vectorized —
    ~30x faster than per-shingle hashlib."""
    if len(tokens) < k:
        shingles = [" ".join(tokens)] if tokens else []
    else:
        shingles = [" ".join(tokens[i : i + k]) for i in range(len(tokens) - k + 1)]
    if not shingles:
        return np.empty(0, dtype=np.uint64)
    h = pd.util.hash_array(np.asarray(shingles, dtype=object), categorize=False)
    return np.unique(h)


class MinHasher:
    """Actor-pool stage: permutation table built once per actor."""

    def __init__(self, n_perm: int = 128, shingle_k: int = 3,
                 text_col: str = "text", id_col: str = "doc_id"):
        self.a, self.b = _perm_params(n_perm)
        self.n_perm = n_perm
        self.k = shingle_k
        self.text_col, self.id_col = text_col, id_col

    def signature(self, tokens: list[str]) -> np.ndarray:
        h = _shingle_hashes(tokens, self.k)
        if len(h) == 0:
            return np.full(self.n_perm, np.uint64(_MERSENNE), dtype=np.uint64)
        # (a*h32 + b) mod p, min over shingles — vectorized over
        # (perm, shingle); h truncated to 32 bits so the product stays
        # below 2^63 and the mod-p arithmetic is exact (see _perm_params)
        h32 = h & np.uint64(0xFFFFFFFF)
        vals = (self.a[:, None] * h32[None, :] + self.b[:, None]) % np.uint64(_MERSENNE)
        return vals.min(axis=1)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        toks = df[self.text_col].str.strip().str.split(r"\s+", regex=True)
        sigs = np.stack([self.signature(t if t != [""] else []) for t in toks])
        return pd.DataFrame(
            {"doc_id": df[self.id_col].to_numpy(), "signature": list(sigs)}
        )


def minhash_signatures(
    ds: ray.data.Dataset, n_perm: int = 128, shingle_k: int = 3,
    text_col: str = "text", id_col: str = "doc_id", concurrency: int | None = None,
) -> ray.data.Dataset:
    kw = dict(batch_format="pandas", batch_size=1024)
    if concurrency:
        return ds.map_batches(
            MinHasher, fn_constructor_kwargs=dict(
                n_perm=n_perm, shingle_k=shingle_k, text_col=text_col, id_col=id_col
            ), concurrency=concurrency, **kw,
        )
    return ds.map_batches(MinHasher(n_perm, shingle_k, text_col, id_col), **kw)


def lsh_candidate_pairs(
    signatures: ray.data.Dataset, bands: int = 32, num_buckets: int = 32,
    bucket_cap: int = LSH_BUCKET_CAP,
) -> ray.data.Dataset:
    """Banded LSH: explode signatures to (band, band_hash, doc_id) rows,
    group by (band, band_hash), emit candidate pairs (a < b); per-bucket
    pair generation bounded by ``bucket_cap`` (see LSH_BUCKET_CAP)."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        sigs = np.stack(df["signature"].to_numpy())
        n_perm = sigs.shape[1]
        rows_per = n_perm // bands
        # band key = FNV-style fold of the band's minhash values + the
        # band index — pure bucketing (equal bands always collide; a
        # spurious 64-bit collision only adds a candidate pair that the
        # exact-Jaccard verify filters), fully vectorized
        chunks = sigs[:, : bands * rows_per].reshape(len(df), bands, rows_per)
        h = np.zeros((len(df), bands), dtype=np.uint64)
        for j in range(rows_per):
            h = h * np.uint64(0x100000001B3) + chunks[:, :, j]
        h = h * np.uint64(0x100000001B3) + np.arange(bands, dtype=np.uint64)[None, :]
        return pd.DataFrame(
            {
                "doc_id": np.repeat(df["doc_id"].to_numpy(), bands),
                "bkey": (h.ravel() >> np.uint64(1)).astype(np.int64),
            }
        )

    exploded = signatures.map_batches(explode, batch_format="pandas")

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                              "id_b": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "bkey" not in df.columns:
            return empty
        # vectorized prefilter: drop singleton buckets BEFORE the
        # per-group loop (almost every bucket is a singleton)
        d = df.drop_duplicates(["bkey", "doc_id"])
        sizes = d.groupby("bkey", sort=False)["doc_id"].transform("size")
        d = d[sizes >= 2]
        outs = []
        for _, g in d.groupby("bkey", sort=False):
            ids = np.sort(g["doc_id"].to_numpy())
            a, b = _capped_pair_indices(len(ids), bucket_cap, "lsh_candidate_pairs")
            outs.append(pd.DataFrame({"id_a": ids[a], "id_b": ids[b]}))
        if not outs:
            return empty
        out = pd.concat(outs, ignore_index=True)
        return out.drop_duplicates(ignore_index=True)

    cand = hash_exchange(exploded, "bkey", pairs, num_buckets)

    # global pair dedup (same pair can surface from multiple bands/buckets);
    # pkey is a numeric hash for BUCKETING only — the dedup inside the
    # bucket compares the real id columns, so hash collisions are safe
    return hash_exchange(
        cand.map_batches(_add_pair_key, batch_format="pandas"),
        "pkey",
        lambda df: df.drop_duplicates(["id_a", "id_b"], ignore_index=True).drop(columns="pkey"),
        num_buckets,
    )


def ngram_jaccard_verify_broadcast(
    pairs: ray.data.Dataset, docs: ray.data.Dataset,
    shingle_k: int = 3, threshold: float = 0.8,
    text_col: str = "text", id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Exact word-shingle Jaccard over candidate pairs — EXPLICIT
    small-corpus opt-in: the docs side is materialized to the driver
    and broadcast as shingle-hash sets via ``ray.put``.  The default
    :func:`ngram_jaccard_verify` is the bucketed exchange join, which
    is the scale path; this variant exists for corpora small enough
    that a broadcast dict beats two exchanges, and as the equivalence
    oracle for the bucketed implementation (tests assert identical
    output).
    """
    import ray as _ray

    def to_sets(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].str.strip().str.split(r"\s+", regex=True)
        return pd.DataFrame(
            {
                "doc_id": df[id_col].to_numpy(),
                "shingles": [
                    _shingle_hashes(t if t != [""] else [], shingle_k) for t in toks
                ],
            }
        )

    sets_df = docs.map_batches(to_sets, batch_format="pandas").to_pandas()
    lookup = dict(zip(sets_df["doc_id"], sets_df["shingles"]))
    ref = _ray.put(lookup)

    class Verify:
        def __init__(self):
            self.lookup = _ray.get(ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            jac = np.empty(len(df))
            for i, (a, b) in enumerate(zip(df["id_a"].to_numpy(), df["id_b"].to_numpy())):
                sa, sb = set(self.lookup[a]), set(self.lookup[b])
                jac[i] = len(sa & sb) / max(1, len(sa | sb))
            out = df.copy()
            out["jaccard"] = jac
            return out[out["jaccard"] >= threshold].reset_index(drop=True)

    return pairs.map_batches(Verify, batch_format="pandas", concurrency=2)


def attach_pair_values(
    pairs: ray.data.Dataset,
    values: ray.data.Dataset,
    value_col: str,
    out_a: str,
    out_b: str,
    num_buckets: int = 16,
    value_dtype=None,
) -> ray.data.Dataset:
    """Join a per-id SCALAR value column (binary/string/int — scalar so
    Arrow concat across blocks is clean) onto candidate pairs
    ``(id_a, id_b, ...)`` with two co-partitioned exchanges
    (``core.hash_coexchange`` on id_a, then on id_b).  This is the
    full-scale pair-verification join: nothing is broadcast, nothing
    touches the driver, shuffle bytes are O(|pairs| + |values|) per
    exchange, and each side keeps its own schema (no tagged-union
    promotion).

    ``values`` must have columns (doc_id, value_col); ids must be
    integers.  Extra pair columns pass through untouched.  The values
    side is split ONCE and its object-store copies shared by both
    exchanges (the exchange is eager — passing the Dataset twice would
    re-execute its lineage)."""
    from ..core import hash_coexchange, split_refs

    # empty buckets must emit TYPED empty value columns: an empty object
    # Series converts to Arrow null and trips Ray's schema-mismatch
    # warning against the binary/string blocks of non-empty buckets —
    # both the one being attached now and the one attached by the
    # PREVIOUS exchange (whose dtype degrades to object on the
    # pandas round-trip of an empty block)
    empty_dtype = pd.ArrowDtype(value_dtype) if value_dtype is not None else object

    def attach(side_id: str, out_col: str):
        def fn(p: pd.DataFrame, vals: pd.DataFrame) -> pd.DataFrame:
            empty_p = len(p) == 0 or side_id not in p.columns
            empty_v = len(vals) == 0 or "doc_id" not in vals.columns
            if empty_p or empty_v:
                p = p.head(0).copy()
                for c in (out_a, out_b):
                    if c in p.columns and p[c].dtype == object:
                        p[c] = p[c].astype(empty_dtype)
                p[out_col] = pd.Series(dtype=empty_dtype)
                return p
            vals = vals[["doc_id", value_col]].rename(
                columns={"doc_id": side_id, value_col: out_col}
            )
            return p.merge(vals, on=side_id, how="inner")

        return fn

    vsplits = split_refs(values, "doc_id", num_buckets)
    out = pairs
    for side_id, out_col in (("id_a", out_a), ("id_b", out_b)):
        out = hash_coexchange(
            out, values, side_id, "doc_id", attach(side_id, out_col),
            num_buckets, splits_b=vsplits,
        )
    return out


def shingle_sets(
    docs: ray.data.Dataset, shingle_k: int, text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """(doc_id, shingles): serialized uint64 shingle-hash set per doc.
    A scalar binary column survives schema promotion across tagged
    unions (nullable list columns break arrow->pandas there)."""

    def to_sets(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].str.strip().str.split(r"\s+", regex=True)
        return pd.DataFrame(
            {
                "doc_id": df[id_col].to_numpy(),
                "shingles": [
                    _shingle_hashes(t if t != [""] else [], shingle_k).tobytes()
                    for t in toks
                ],
            }
        )

    return docs.map_batches(to_sets, batch_format="pandas")


def ngram_jaccard_verify(
    pairs: ray.data.Dataset,
    docs: ray.data.Dataset,
    shingle_k: int = 3,
    threshold: float = 0.8,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Exact word-shingle Jaccard over candidate pairs — the DEFAULT,
    full-scale path: shingle sets are joined to the pairs via
    :func:`attach_pair_values` (two co-partitioned exchanges) instead
    of broadcasting the whole corpus's shingles to the driver
    (:func:`ngram_jaccard_verify_broadcast`'s small-side shortcut).
    Output identical to the broadcast path (equivalence-tested)."""
    sets_ds = shingle_sets(docs, shingle_k, text_col, id_col)
    import pyarrow as pa

    withboth = attach_pair_values(
        pairs, sets_ds, "shingles", "sh_a", "sh_b", num_buckets,
        value_dtype=pa.binary(),
    )

    def jaccard(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "sh_a" not in df.columns:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64),
                 "jaccard": pd.Series(dtype=np.float64)}
            )
        jac = np.empty(len(df))
        for i, (sa, sb) in enumerate(zip(df["sh_a"], df["sh_b"])):
            A = set(np.frombuffer(sa, dtype=np.uint64).tolist())
            B = set(np.frombuffer(sb, dtype=np.uint64).tolist())
            jac[i] = len(A & B) / max(1, len(A | B))
        out = df[["id_a", "id_b"]].copy()
        out["jaccard"] = jac
        return out[out["jaccard"] >= threshold].reset_index(drop=True)

    return withboth.map_batches(jaccard, batch_format="pandas")


def connected_components(
    edges: ray.data.Dataset, max_iters: int = 20, num_buckets: int = 32
) -> ray.data.Dataset:
    """Fully distributed min-label propagation over undirected edges
    (id_a, id_b) -> (node, component) — the distributed union-find for
    near-dup clusters and fuzzy entity merging (J8).

    Each round is TWO keyed exchanges, nothing ever sits on the driver:

      1. edges x labels co-partitioned on the message SOURCE node:
         every edge endpoint emits its current label to its neighbor;
      2. messages x labels co-partitioned on the TARGET node:
         new label = min(own, incoming); emits a per-bucket changed
         count.

    The driver only reads the scalar changed-count per round (control
    flow), so the algorithm holds for edge sets far beyond driver
    memory.  Converges in O(diameter) rounds (min-label propagation).
    """

    def sym(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": np.concatenate([df["id_a"].to_numpy(), df["id_b"].to_numpy()]),
                "dst": np.concatenate([df["id_b"].to_numpy(), df["id_a"].to_numpy()]),
            }
        )

    from ..core import hash_coexchange

    sym_edges = edges.map_batches(sym, batch_format="pandas").materialize()

    def init_labels(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("src", sort=False)["dst"].min().reset_index()
        g["label"] = np.minimum(g["src"], g["dst"])
        return g.rename(columns={"src": "node"})[["node", "label"]]

    labels = hash_exchange(sym_edges, "src", init_labels, num_buckets)

    _EMPTY_NL = {"node": pd.Series(dtype=np.int64), "label": pd.Series(dtype=np.int64)}

    def send(lab: pd.DataFrame, edg: pd.DataFrame) -> pd.DataFrame:
        # edges co-partitioned with labels on the SOURCE node; each edge
        # carries its source's current label to the destination.  Edges
        # are the B side so their split (split_refs) is paid ONCE and
        # shared across every round — the exchange is eager, so passing
        # the Dataset each round would re-split it per iteration.
        if (len(edg) == 0 or "src" not in edg.columns
                or len(lab) == 0 or "node" not in lab.columns):
            return pd.DataFrame(_EMPTY_NL)
        j = edg[["src", "dst"]].merge(
            lab.rename(columns={"node": "src"})[["src", "label"]],
            on="src", how="inner",
        )
        return j.rename(columns={"dst": "node"})[["node", "label"]]

    def update(m: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        parts = [
            s[["node", "label"]]
            for s in (m, lab)
            if len(s) and "node" in s.columns
        ]
        if not parts:
            out = pd.DataFrame(_EMPTY_NL)
            out["changed"] = pd.Series(dtype=np.int64)
            return out
        df = pd.concat(parts, ignore_index=True)
        g = df.groupby("node", sort=False)["label"].min().reset_index()
        old = (
            lab.set_index("node")["label"]
            if len(lab) and "node" in lab.columns
            else pd.Series(dtype=np.int64)
        )
        changed = (g.set_index("node")["label"] != old.reindex(g["node"]).to_numpy()).to_numpy()
        g["changed"] = changed.astype(np.int64)
        return g.astype({"node": np.int64, "label": np.int64})

    from ..core import split_refs

    esplits = split_refs(sym_edges, "src", num_buckets)
    for _ in range(max_iters):
        msgs = hash_coexchange(
            labels, sym_edges, "node", "src", send, num_buckets,
            splits_b=esplits,
        )
        labels = hash_coexchange(
            msgs, labels, "node", "node", update, num_buckets
        ).materialize()
        if int(labels.sum("changed") or 0) == 0:
            break
    else:
        # Min-label propagation advances one hop per round; returning
        # here would emit SPLIT components with no signal (the SQL
        # closure oracle and curation semantics assume full
        # convergence).  No silent caps: fail loudly instead.
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds "
            "(a component's diameter exceeds max_iters); raise max_iters"
        )

    return labels.map_batches(
        lambda df: df.rename(columns={"label": "component"})[["node", "component"]],
        batch_format="pandas",
    )


def fuzzy_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key_col: str,
    id_col: str = "doc_id",
    threshold: float = 0.5,
    shingle_k: int = 2,
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Similarity join on a short-string key (SURVEY.md J4 — the
    reference aligns GENIA articles by fuzzy title match,
    ``scripts/data/genia/align_articles.py:1-60``).

    Ray-Data-first shape, fully distributed (nothing sits on the
    driver): both sides are shingled + minhashed, banded LSH buckets
    generate candidate (id, id) pairs, the BUCKETED exact-Jaccard
    verify filters at ``threshold``, sides are re-attached via
    :func:`attach_pair_values` (a keyed exchange, not a driver dict),
    and best-right-match-per-left is a keyed exchange on left_id.
    Caller contract: ids globally unique across the two sides.
    Output: (left_id, right_id, jaccard), best right match per left id.
    """

    def tag(side):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "doc_id": df[id_col].to_numpy(),
                    "text": df[key_col],
                    "__side": side,
                }
            )

        return fn

    l = left.map_batches(tag("L"), batch_format="pandas")
    r = right.map_batches(tag("R"), batch_format="pandas")
    both = l.union(r)
    sigs = minhash_signatures(both, n_perm=64, shingle_k=shingle_k)
    pairs = lsh_candidate_pairs(sigs, bands=16, num_buckets=num_buckets)
    verified = ngram_jaccard_verify(
        pairs, both, shingle_k=shingle_k, threshold=threshold,
        num_buckets=num_buckets,
    )
    sides_ds = both.map_batches(
        lambda df: df[["doc_id", "__side"]], batch_format="pandas"
    )
    import pyarrow as pa

    with_sides = attach_pair_values(
        verified, sides_ds, "__side", "side_a", "side_b", num_buckets,
        value_dtype=pa.string(),
    )

    _EMPTY = {
        "left_id": pd.Series(dtype=np.int64),
        "right_id": pd.Series(dtype=np.int64),
        "jaccard": pd.Series(dtype=np.float64),
    }

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "id_a" not in df.columns:
            return pd.DataFrame(_EMPTY)
        lr = (df["side_a"] == "L") & (df["side_b"] == "R")
        rl = (df["side_a"] == "R") & (df["side_b"] == "L")
        out = pd.DataFrame(
            {
                "left_id": np.where(lr, df["id_a"], df["id_b"]),
                "right_id": np.where(lr, df["id_b"], df["id_a"]),
                "jaccard": df["jaccard"].to_numpy(),
            }
        )
        return out[lr | rl].reset_index(drop=True)

    oriented = with_sides.map_batches(orient, batch_format="pandas")

    def best_per_left(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "left_id" not in df.columns:
            return pd.DataFrame(_EMPTY)
        return (
            df.sort_values(["left_id", "jaccard", "right_id"],
                           ascending=[True, False, True])
            .groupby("left_id", sort=True)
            .head(1)
            .reset_index(drop=True)[["left_id", "right_id", "jaccard"]]
        )

    return hash_exchange(oriented, "left_id", best_per_left, num_buckets)


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------


class SimHasher:
    """64-bit SimHash over token hashes; deterministic."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col, self.id_col = text_col, id_col

    @staticmethod
    def simhash(tokens: list[str]) -> int:
        if not tokens:
            return 0
        hs = np.fromiter(
            (int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "little") for t in tokens),
            dtype=np.uint64, count=len(tokens),
        )
        bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1))
        score = (2 * bits.astype(np.int64) - 1).sum(axis=0)
        return int(((score > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        toks = df[self.text_col].str.strip().str.split(r"\s+", regex=True)
        return pd.DataFrame(
            {
                "doc_id": df[self.id_col].to_numpy(),
                "simhash": np.fromiter(
                    (self.simhash(t if t != [""] else []) for t in toks),
                    dtype=np.uint64, count=len(df),
                ),
            }
        )


def simhash_signatures(ds: ray.data.Dataset, text_col="text", id_col="doc_id") -> ray.data.Dataset:
    return ds.map_batches(SimHasher(text_col, id_col), batch_format="pandas")


def simhash_near_dups(
    signatures: ray.data.Dataset, max_hamming: int = 3, num_buckets: int = 16,
    bucket_cap: int = LSH_BUCKET_CAP,
) -> ray.data.Dataset:
    """Candidate pairs via 4x16-bit band buckets, verified by hamming
    distance (pigeonhole: distance <= 3 => some 16-bit band equal).
    Per-bucket pair generation bounded by ``bucket_cap`` (capped
    all-pairs + star edges; pigeonhole exactness holds below the cap,
    truncation above it is logged — see LSH_BUCKET_CAP)."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        sh = df["simhash"].to_numpy().astype(np.uint64)
        parts = []
        for band in range(4):
            chunk = (sh >> np.uint64(band * 16)) & np.uint64(0xFFFF)
            parts.append(
                pd.DataFrame(
                    {
                        "doc_id": df["doc_id"].to_numpy(),
                        "simhash": sh,
                        "bkey": [f"{band}:{c}" for c in chunk],
                    }
                )
            )
        return pd.concat(parts, ignore_index=True)

    exploded = signatures.map_batches(explode, batch_format="pandas")

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "bkey" not in df.columns:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64),
                 "hamming": pd.Series(dtype=np.int64)}
            )
        d = df.drop_duplicates(["bkey", "doc_id"])
        sizes = d.groupby("bkey", sort=False)["doc_id"].transform("size")
        d = d[sizes >= 2]
        outs = []
        for _, g in d.groupby("bkey", sort=False):
            u = g.sort_values("doc_id")
            ids = u["doc_id"].to_numpy()
            hs = u["simhash"].to_numpy().astype(np.uint64)
            a, b = _capped_pair_indices(len(ids), bucket_cap, "simhash_near_dups")
            ham = np.array(
                [bin(int(hs[i]) ^ int(hs[j])).count("1") for i, j in zip(a, b)]
            )
            keep = ham <= max_hamming
            if keep.any():
                outs.append(
                    pd.DataFrame(
                        {"id_a": np.minimum(ids[a[keep]], ids[b[keep]]),
                         "id_b": np.maximum(ids[a[keep]], ids[b[keep]]),
                         "hamming": ham[keep]}
                    )
                )
        if not outs:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64),
                 "hamming": pd.Series(dtype=np.int64)}
            )
        return pd.concat(outs, ignore_index=True).drop_duplicates(
            ["id_a", "id_b"], ignore_index=True
        )

    cand = hash_exchange(exploded, "bkey", pairs, num_buckets)

    return hash_exchange(
        cand.map_batches(_add_pair_key, batch_format="pandas"),
        "pkey",
        lambda df: df.drop_duplicates(["id_a", "id_b"], ignore_index=True).drop(columns="pkey"),
        num_buckets,
    )


# Back-compat alias: the bucketed exchange verify IS the default now.
ngram_jaccard_verify_bucketed = ngram_jaccard_verify


def incremental_exact_dedup(
    new_ds: ray.data.Dataset,
    old_ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Ingestion-shape dedup: which NEW documents should be ingested,
    given an already-ingested corpus?  The continuous-crawl pattern —
    each incoming shard is deduped against everything seen before
    WITHOUT reshuffling the old corpus per run:

      1. content hashes on both sides (old side reduced to per-batch
         distinct hash partials — the only thing that leaves the old
         corpus);
      2. a distributed Bloom filter over the old hashes (tree-OR'd,
         ``ray.put``-broadcast, `functions/bloom.py`);
      3. Bloom-NEGATIVE new rows provably have no old duplicate and
         bypass the exchange entirely (at real dup rates that is
         almost all of the shard);
      4. Bloom-positive rows ride one keyed coexchange against the old
         hashes for the exact anti-join (false positives recovered);
      5. survivors dedup among THEMSELVES (min-id per hash — the
         shard can carry internal dups too).

    -> (doc_id) of new docs to ingest.
    """
    from ..core import hash_coexchange
    from ..functions.bloom import build_bloom, split_by_bloom

    def hash_side(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or text_col not in df.columns:
            return pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                                 "h": pd.Series(dtype=object)})
        return pd.DataFrame(
            {id_col: df[id_col].to_numpy(np.int64),
             "h": _md5_series(df[text_col])}
        )

    def hash_old(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or text_col not in df.columns:
            return pd.DataFrame({"h": pd.Series(dtype=object)})
        return pd.DataFrame({"h": _md5_series(df[text_col]).drop_duplicates()})

    newh = new_ds.map_batches(hash_side, batch_format="pandas")
    oldh = old_ds.map_batches(hash_old, batch_format="pandas").materialize()

    bloom = build_bloom(oldh, "h")
    pos, neg = split_by_bloom(newh, "h", bloom)

    def anti(p: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                              "h": pd.Series(dtype=object)})
        if len(p) == 0 or "h" not in p.columns:
            return empty
        if len(o) == 0 or "h" not in o.columns:
            return p[[id_col, "h"]].reset_index(drop=True)
        keep = ~p["h"].isin(frozenset(o["h"]))
        return p.loc[keep, [id_col, "h"]].reset_index(drop=True)

    survivors = hash_coexchange(pos, oldh, "h", "h", anti, num_buckets).union(neg)

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "h" not in df.columns:
            return pd.DataFrame({id_col: pd.Series(dtype=np.int64)})
        g = df.groupby("h", sort=False)[id_col].min().reset_index()
        return pd.DataFrame({id_col: g[id_col].to_numpy(np.int64)})

    return hash_exchange(survivors, "h", pick, num_buckets)


# ---------------------------------------------------------------------------
# prefix-filter (AllPairs / PPJoin family) exact-recall similarity join
# ---------------------------------------------------------------------------


def _empty_pairs() -> pd.DataFrame:
    return pd.DataFrame(
        {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64)}
    )


def _explode_shingles(df: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, shingles-blob) rows -> exploded (shingle, doc_id, size).
    >>1 keeps the id inside int64 for the exchange key; the shingle
    hash is only an identifier + order tie-break, so the dropped bit is
    harmless (same convention as bkey)."""
    empty = pd.DataFrame(
        {"shingle": pd.Series(dtype=np.int64),
         "doc_id": pd.Series(dtype=np.int64),
         "size": pd.Series(dtype=np.int64)}
    )
    if len(df) == 0 or "shingles" not in df.columns:
        return empty
    hs, ids, sizes = [], [], []
    for d, b in zip(df["doc_id"].to_numpy(np.int64), df["shingles"]):
        h = np.frombuffer(b, dtype=np.uint64)
        if len(h) == 0:
            continue
        hs.append((h >> np.uint64(1)).astype(np.int64))
        ids.append(np.full(len(h), d, dtype=np.int64))
        sizes.append(np.full(len(h), len(h), dtype=np.int64))
    if not hs:
        return empty
    return pd.DataFrame(
        {"shingle": np.concatenate(hs), "doc_id": np.concatenate(ids),
         "size": np.concatenate(sizes)}
    )


def _attach_shingle_df(df: pd.DataFrame) -> pd.DataFrame:
    """Within a shingle-keyed bucket: global df computed AND attached
    in the same task (every occurrence of a shingle is co-located)."""
    if len(df) == 0 or "shingle" not in df.columns:
        return pd.DataFrame(
            {c: pd.Series(dtype=np.int64)
             for c in ("shingle", "doc_id", "size", "df")}
        )
    out = df.copy()
    out["df"] = df.groupby("shingle", sort=False)["doc_id"].transform(
        "size"
    ).astype(np.int64)
    return out


def prefix_filter_pairs(
    docs: ray.data.Dataset | None,
    threshold_num: int = 4,
    threshold_den: int = 5,
    shingle_k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 32,
    sets_ds: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """FULL-RECALL candidate pairs for Jaccard >= ``threshold`` via
    prefix filtering (the AllPairs / PPJoin family, Bayardo et al.
    WWW'07; Chaudhuri et al. ICDE'06) — the exact complement to the
    probabilistic LSH paths: every qualifying pair is guaranteed to be
    emitted, so downstream verification yields the exact join.

    Under any single GLOBAL total order of shingles, if J(a, b) >= t
    then the first ``|x| - ceil(t*|x|) + 1`` shingles of each side (its
    *prefix*) must intersect — so grouping prefix entries by shingle
    recalls every true pair.  The global order used is (document
    frequency ASC, shingle hash): rare shingles land in prefixes, which
    keeps per-shingle candidate groups small on real corpora.

    Distributed shape — four keyed exchanges, all linear in the
    exploded (doc, shingle) table, nothing on the driver:

      1. explode per-doc shingle sets -> (shingle, doc_id, size);
         exchange on ``shingle``: every occurrence of a shingle lands
         in one bucket, so its global df is computed AND attached in
         the same task (no separate df join);
      2. exchange on ``doc_id``: re-gather each doc's (shingle, df)
         rows, sort by the global order, cut the prefix;
      3. exchange on ``shingle`` over prefix rows only: all-pairs
         within a shingle group, pruned by the size filter
         (J >= t forces min(|a|,|b|) >= t * max(|a|,|b|));
      4. global pair dedup (same pkey exchange the LSH paths use).

    Unlike the LSH paths this stage must NOT cap group membership —
    a cap would break the exactness guarantee — so mega-groups (a
    rare-by-construction event: a prefix shingle shared by many docs
    is by definition high-df and sorts out of prefixes) are logged
    but fully expanded.  Use the LSH paths when approximate recall
    is acceptable and the corpus is adversarially skewed.

    The threshold is a RATIONAL ``threshold_num/threshold_den``: the
    prefix length uses the exact integer ceiling
    ``n - ceil(num*n/den) + 1`` — a float ``np.ceil(t*n)`` overshoots
    the true ceiling for many rational t (double rounding), silently
    shortening the prefix by one and breaking full recall.  Pass
    ``sets_ds`` (a materialized :func:`shingle_sets` output) to share
    the tokenize+hash pass with a downstream verify.
    """
    sets = (shingle_sets(docs, shingle_k, text_col, id_col)
            if sets_ds is None else sets_ds)
    t_float = threshold_num / threshold_den  # pruning only (slack below)

    exploded = sets.map_batches(_explode_shingles, batch_format="pandas")
    with_df = hash_exchange(
        exploded, "shingle", _attach_shingle_df, num_buckets
    )

    def prefixes(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "doc_id" not in df.columns:
            return pd.DataFrame(
                {c: pd.Series(dtype=np.int64)
                 for c in ("shingle", "doc_id", "size")}
            )
        d = df.sort_values(["doc_id", "df", "shingle"], kind="mergesort")
        n = d["size"].to_numpy(np.int64)
        # exact integer ceil(num*n/den) — float np.ceil(t*n) overshoots
        # for many rational thresholds and would break full recall
        plen = n - (threshold_num * n + threshold_den - 1) // threshold_den + 1
        rank = d.groupby("doc_id", sort=False).cumcount().to_numpy()
        return d.loc[rank < plen, ["shingle", "doc_id", "size"]].reset_index(
            drop=True
        )

    pref = hash_exchange(with_df, "doc_id", prefixes, num_buckets)

    def candidates(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "shingle" not in df.columns:
            return _empty_pairs()
        sh = df["shingle"].to_numpy(np.int64)
        ids = df["doc_id"].to_numpy(np.int64)
        sz = df["size"].to_numpy(np.int64)
        order = np.lexsort((ids, sh))
        sh, ids, sz = sh[order], ids[order], sz[order]
        # mega-group logging (no cap — exactness): run lengths once
        new = np.concatenate([[True], sh[1:] != sh[:-1]]) if len(sh) else np.array([], bool)
        if len(sh):
            starts = np.flatnonzero(new)
            run_len = np.diff(np.concatenate([starts, [len(sh)]]))
            big = run_len[run_len > 4096]
            if len(big):
                _LOG.warning(
                    "prefix_filter_pairs: %d prefix-shingle groups exceed "
                    "4096 members (max %d) — expanding all pairs "
                    "(exactness forbids a cap)", len(big), int(big.max()),
                )
        li, rj = grouped_pair_indices(sh)
        if len(li) == 0:
            return _empty_pairs()
        a_ids, b_ids = ids[li], ids[rj]
        sa, sb = sz[li], sz[rj]
        # size filter: a true pair needs min >= t*max (strictly a
        # *pruning* step — kept slightly permissive so float rounding
        # can only ADD candidates, never drop a true pair)
        ok = np.minimum(sa, sb) >= t_float * np.maximum(sa, sb) - 1e-9
        if not ok.any():
            return _empty_pairs()
        return pd.DataFrame(
            {"id_a": a_ids[ok], "id_b": b_ids[ok]}
        ).drop_duplicates(ignore_index=True)

    cand = hash_exchange(pref, "shingle", candidates, num_buckets)

    return hash_exchange(
        cand.map_batches(_add_pair_key, batch_format="pandas"),
        "pkey",
        lambda df: df.drop_duplicates(["id_a", "id_b"], ignore_index=True).drop(columns="pkey"),
        num_buckets,
    )


def prefix_near_dups(
    docs: ray.data.Dataset,
    threshold_num: int = 4,
    threshold_den: int = 5,
    shingle_k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """EXACT similarity self-join: all pairs with shingle-Jaccard >=
    ``threshold_num/threshold_den``, full recall (prefix-filter
    candidates + exact verify with an INTEGER threshold predicate
    ``den*|inter| >= num*|union|`` so engine and SQL twin agree
    bit-for-bit at the boundary).

    Output (id_a, id_b, jac_pct) with id_a < id_b and
    ``jac_pct = (100*|inter|) // |union|`` (floored integer percent —
    cross-engine stable where a float ratio is not).
    """
    # ONE tokenize+hash pass shared by candidate generation and verify
    # (two independent shingle_sets lineages would scan the corpus twice)
    sets_ds = shingle_sets(docs, shingle_k, text_col, id_col).materialize()
    pairs = prefix_filter_pairs(
        None, threshold_num, threshold_den, shingle_k, text_col, id_col,
        num_buckets, sets_ds=sets_ds,
    )
    import pyarrow as pa

    withboth = attach_pair_values(
        pairs, sets_ds, "shingles", "sh_a", "sh_b", num_buckets,
        value_dtype=pa.binary(),
    )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64),
             "jac_pct": pd.Series(dtype=np.int64)}
        )
        if len(df) == 0 or "sh_a" not in df.columns:
            return empty
        inter = np.empty(len(df), dtype=np.int64)
        union = np.empty(len(df), dtype=np.int64)
        for i, (sa, sb) in enumerate(zip(df["sh_a"], df["sh_b"])):
            A = np.frombuffer(sa, dtype=np.uint64)
            B = np.frombuffer(sb, dtype=np.uint64)
            ni = len(np.intersect1d(A, B, assume_unique=True))
            inter[i] = ni
            union[i] = len(A) + len(B) - ni
        keep = (threshold_den * inter >= threshold_num * union) & (union > 0)
        out = df.loc[keep, ["id_a", "id_b"]].astype(np.int64).reset_index(drop=True)
        out["jac_pct"] = (100 * inter[keep]) // union[keep]
        return out

    return withboth.map_batches(verify, batch_format="pandas")


def containment_dups(
    docs: ray.data.Dataset,
    threshold_num: int = 4,
    threshold_den: int = 5,
    shingle_k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """EXACT asymmetric containment self-join: ORDERED pairs (a, b)
    with shingle containment C(a in b) = |A∩B| / |A| >= num/den — the
    quote / sub-document duplication that Jaccard misses (a short doc
    fully quoted inside a long one has low Jaccard but containment 1).

    Prefix filter adapted to containment (the one-sided variant of the
    AllPairs family): under the global (df ASC, hash) shingle order, if
    C(a in b) >= t then among the first |A| - ceil(t*|A|) + 1 shingles
    of A at least one is shared with B — so candidates join A-PREFIX
    rows against B's FULL posting list (the container side cannot be
    prefix-cut: containment is one-sided).  Size pruning is the exact
    integer predicate den*|B| >= num*|A| (|B| >= |A∩B| >= ceil(t|A|)),
    which only drops impossible pairs.  Posting lists are UNCAPPED
    (exactness), mega-groups logged like prefix_filter_pairs.

    Same distributed shape: explode -> df attach -> per-doc prefix cut
    (prefix rows tagged role=1, full posting rows role=0) -> one
    shingle exchange expanding the bipartite prefix x posting product
    -> pkey dedup -> attach both sets -> integer verify.
    -> (id_a, id_b, cont_pct) with cont_pct = (100*|A∩B|) // |A|,
    id_a = the contained doc (both directions may appear)."""
    import pyarrow as pa

    sets_ds = shingle_sets(docs, shingle_k, text_col, id_col).materialize()
    exploded = sets_ds.map_batches(_explode_shingles, batch_format="pandas")
    with_df = hash_exchange(
        exploded, "shingle", _attach_shingle_df, num_buckets
    )

    _ROLE = {"shingle": np.int64, "doc_id": np.int64,
             "size": np.int64, "role": np.int64}

    def prefix_and_postings(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "doc_id" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in _ROLE.items()})
        d = df.sort_values(["doc_id", "df", "shingle"], kind="mergesort")
        n = d["size"].to_numpy(np.int64)
        # exact integer ceil(num*n/den) — float ceil would overshoot
        plen = n - (threshold_num * n + threshold_den - 1) // threshold_den + 1
        rank = d.groupby("doc_id", sort=False).cumcount().to_numpy()
        pref = d.loc[rank < plen, ["shingle", "doc_id", "size"]].assign(role=1)
        post = d[["shingle", "doc_id", "size"]].assign(role=0)
        return pd.concat([pref, post], ignore_index=True).astype(_ROLE)

    tagged = hash_exchange(
        with_df, "doc_id", prefix_and_postings, num_buckets
    )

    def candidates(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "shingle" not in df.columns:
            return _empty_pairs()
        # sort by (shingle, role DESC) so each run is [prefix | posting]
        d = df.sort_values(["shingle", "role"],
                           ascending=[True, False], kind="mergesort")
        sh = d["shingle"].to_numpy(np.int64)
        ids = d["doc_id"].to_numpy(np.int64)
        sz = d["size"].to_numpy(np.int64)
        role = d["role"].to_numpy(np.int64)
        new = np.concatenate([[True], sh[1:] != sh[:-1]])
        starts = np.flatnonzero(new)
        run_len = np.diff(np.concatenate([starts, [len(sh)]]))
        run_id = np.cumsum(new) - 1
        n_pref = np.bincount(run_id, weights=role).astype(np.int64)
        n_post = run_len - n_pref
        big = run_len[run_len > 4096]
        if len(big):
            _LOG.warning(
                "containment_dups: %d shingle groups exceed 4096 members "
                "(max %d) — expanding all pairs (exactness forbids a cap)",
                len(big), int(big.max()),
            )
        tot = n_pref * n_post
        total = int(tot.sum())
        if total == 0:
            return _empty_pairs()
        k = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(tot)[:-1]]), tot
        )
        nq = np.repeat(n_post, tot)
        p_start = np.repeat(starts, tot)
        q_start = np.repeat(starts + n_pref, tot)
        ai = p_start + k // nq
        bi = q_start + k % nq
        a_ids, b_ids = ids[ai], ids[bi]
        sa, sb = sz[ai], sz[bi]
        ok = (a_ids != b_ids) & (threshold_den * sb >= threshold_num * sa)
        if not ok.any():
            return _empty_pairs()
        return pd.DataFrame(
            {"id_a": a_ids[ok], "id_b": b_ids[ok]}
        ).drop_duplicates(ignore_index=True)

    cand = hash_exchange(tagged, "shingle", candidates, num_buckets)
    pairs = hash_exchange(
        cand.map_batches(_add_pair_key, batch_format="pandas"),
        "pkey",
        lambda df: df.drop_duplicates(
            ["id_a", "id_b"], ignore_index=True
        ).drop(columns="pkey"),
        num_buckets,
    )

    withboth = attach_pair_values(
        pairs, sets_ds, "shingles", "sh_a", "sh_b", num_buckets,
        value_dtype=pa.binary(),
    )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"id_a": pd.Series(dtype=np.int64),
             "id_b": pd.Series(dtype=np.int64),
             "cont_pct": pd.Series(dtype=np.int64)}
        )
        if len(df) == 0 or "sh_a" not in df.columns:
            return empty
        inter = np.empty(len(df), dtype=np.int64)
        na = np.empty(len(df), dtype=np.int64)
        for i, (sa_, sb_) in enumerate(zip(df["sh_a"], df["sh_b"])):
            A = np.frombuffer(sa_, dtype=np.uint64)
            B = np.frombuffer(sb_, dtype=np.uint64)
            inter[i] = len(np.intersect1d(A, B, assume_unique=True))
            na[i] = len(A)
        keep = (na > 0) & (threshold_den * inter >= threshold_num * na)
        out = df.loc[keep, ["id_a", "id_b"]].astype(np.int64).reset_index(
            drop=True
        )
        out["cont_pct"] = (100 * inter[keep]) // na[keep]
        return out

    return withboth.map_batches(verify, batch_format="pandas")


def keep_best_per_component(
    scores: ray.data.Dataset,
    comps: ray.data.Dataset,
    id_col: str = "doc_id",
    score_col: str = "n_distinct",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Cluster-dedup representative selection: every document gets its
    near-dup component label (docs in no component are their own
    singleton) and the best-scoring doc per component is kept (ties ->
    lowest id) — the "keep one per duplicate cluster" step the big
    corpus-curation pipelines run after MinHash clustering.

    Two linear keyed exchanges, no broadcast and no driver
    materialization: ``scores`` x ``comps`` co-partitioned on the doc
    id (the component table is usually far smaller than the corpus —
    only docs with at least one near-dup edge appear), then one
    exchange on the component id for the per-group argmax.  All
    arithmetic stays on int64 arrays (no float routing of ids,
    ADVICE r3).

    -> (doc_id, component, kept) one row per input doc, kept in {0,1}.
    """
    from ..core import hash_coexchange, hash_exchange

    def attach(sc: pd.DataFrame, cp: pd.DataFrame) -> pd.DataFrame:
        if len(sc) == 0 or id_col not in sc.columns:
            return pd.DataFrame(
                {c: pd.Series(dtype=np.int64)
                 for c in (id_col, "component", score_col)}
            )
        ids = sc[id_col].to_numpy(np.int64)
        if len(cp) and "node" in cp.columns:
            # int-exact lookup (a merge + fillna would route the label
            # through float64 NaNs): indexer into the unique node list,
            # -1 (absent) falls back to the doc's own id
            lut = pd.Index(cp["node"].to_numpy(np.int64))
            labels = cp["component"].to_numpy(np.int64)
            pos = lut.get_indexer(ids)
            comp = np.where(pos >= 0, labels[np.maximum(pos, 0)], ids)
        else:
            comp = ids
        return pd.DataFrame(
            {id_col: ids, "component": comp,
             score_col: sc[score_col].to_numpy(np.int64)}
        )

    withcomp = hash_coexchange(scores, comps, id_col, "node", attach,
                               num_buckets)

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "component" not in df.columns:
            return pd.DataFrame(
                {c: pd.Series(dtype=np.int64)
                 for c in (id_col, "component", "kept")}
            )
        df = df.sort_values(
            ["component", score_col, id_col],
            ascending=[True, False, True], kind="mergesort",
            ignore_index=True,
        )
        kept = (~df.duplicated("component")).to_numpy().astype(np.int64)
        return pd.DataFrame(
            {id_col: df[id_col].to_numpy(np.int64),
             "component": df["component"].to_numpy(np.int64),
             "kept": kept}
        )

    return hash_exchange(withcomp, "component", pick, num_buckets)


def edit1_neighbors(
    ds: ray.data.Dataset, col: str, num_buckets: int = 16
) -> ray.data.Dataset:
    """Exact edit-distance-1 similarity self-join by FastSS
    deletion-neighborhood blocking — the bounded-Levenshtein member of
    the near-dup join family (fuzzy_join's shingle Jaccard cannot see
    single-character typos in short keys; this is the estimator that
    does).

    Candidate generation is LINEAR: every distinct string emits itself
    plus its ``len`` single-deletion variants (a vectorized loop over
    CHARACTER POSITIONS, not rows); any two strings at edit distance
    <= 1 share at least one variant (substitution -> same-position
    deletions agree; indel -> the shorter string IS a deletion of the
    longer), so blocking has full recall and no O(n²) path exists.
    Sharing a variant does NOT imply distance 1 ("ab"/"ba" share "b"),
    so pairs are verified exactly: equal-length pairs by a vectorized
    byte-matrix mismatch count, length-diff-1 pairs by a single
    alignment scan.  Shape: variant-keyed exchange (pairs bucket-local
    via ``grouped_pair_indices``) then a pair-keyed exchange for the
    global dedup + verify.  -> (name_a, name_b), name_a < name_b."""
    from ..core import grouped_pair_indices, hash_exchange

    _PAIR = {"name_a": object, "name_b": object}

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or col not in df.columns:
            return pd.DataFrame({"key": pd.Series(dtype=object),
                                 "name": pd.Series(dtype=object)})
        names = df[col].dropna().drop_duplicates()
        lens = names.str.len()
        out = [pd.DataFrame({"key": names, "name": names})]
        for i in range(int(lens.max()) if len(lens) else 0):
            m = lens > i
            s = names[m]
            out.append(pd.DataFrame(
                {"key": s.str.slice(0, i) + s.str.slice(i + 1),
                 "name": s}))
        return pd.concat(out, ignore_index=True)

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "key" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in _PAIR.items()})
        d = (df.drop_duplicates()
             .sort_values(["key", "name"], kind="mergesort"))
        gid = d["key"].factorize()[0]
        li, rj = grouped_pair_indices(gid)
        if len(li) == 0:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in _PAIR.items()})
        s = d["name"].to_numpy(object)
        g = pd.DataFrame({"name_a": s[li], "name_b": s[rj]})
        g = g[g["name_a"] != g["name_b"]].drop_duplicates()
        return g.reset_index(drop=True)

    cand = hash_exchange(
        ds.map_batches(variants, batch_format="pandas"), "key",
        bucket_pairs, num_buckets)

    def key_pair(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "name_a" not in df.columns:
            return pd.DataFrame({"name_a": pd.Series(dtype=object),
                                 "name_b": pd.Series(dtype=object),
                                 "__k": pd.Series(dtype=object)})
        return df.assign(__k=df["name_a"].str.cat(df["name_b"], sep="\x1f"))

    def _is_del(short: str, long: str) -> bool:
        # one scan: skip the single mismatching char of the longer
        i = 0
        while i < len(short) and short[i] == long[i]:
            i += 1
        return short[i:] == long[i + 1:]

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "name_a" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in _PAIR.items()})
        d = df[["name_a", "name_b"]].drop_duplicates().reset_index(drop=True)
        la = d["name_a"].str.len().to_numpy(np.int64)
        lb = d["name_b"].str.len().to_numpy(np.int64)
        ok = np.zeros(len(d), dtype=bool)
        # equal length: exactly one substitution, vectorized per length
        eq = la == lb
        for L, g in d[eq].groupby(la[eq]):
            a = np.frombuffer(
                "".join(g["name_a"]).encode("utf-32-le"), dtype=np.uint32
            ).reshape(len(g), int(L))
            b = np.frombuffer(
                "".join(g["name_b"]).encode("utf-32-le"), dtype=np.uint32
            ).reshape(len(g), int(L))
            pos = g.index.to_numpy()  # labels == positions (reset above)
            ok[pos[(a != b).sum(axis=1) == 1]] = True
        # length diff 1: the shorter must be a deletion of the longer
        for ix in np.flatnonzero(np.abs(la - lb) == 1):
            a, b = d["name_a"].iat[ix], d["name_b"].iat[ix]
            if len(a) > len(b):
                a, b = b, a
            ok[ix] = _is_del(a, b)
        return d[ok].reset_index(drop=True)

    return hash_exchange(
        cand.map_batches(key_pair, batch_format="pandas"), "__k",
        verify, num_buckets)
