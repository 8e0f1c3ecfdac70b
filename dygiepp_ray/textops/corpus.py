"""Corpus-level curation operators a training-data pipeline needs on top
of dedup/quality: benchmark decontamination (n-gram overlap against a
broadcast eval set), Gopher-style intra-document repetition signals, and
a deterministic global shuffle (hash-rank) for reproducible training
order.

Reference parity: these extend the reference's preprocessing family
(dwadden/dygiepp ``scripts/data/shared`` normalizes + filters documents
before modeling) with the curation steps a 100 TB pretraining corpus
additionally requires; none exist in the reference, so semantics are
pinned by the DuckDB twins in ``textops/queries.py``.

Scale shapes:

* ``decontaminate`` — the eval side of a decontamination job is a FIXED,
  small benchmark suite (thousands of documents) regardless of corpus
  size, so its distinct n-grams are collected once on the driver and
  broadcast via ``ray.put``; every corpus batch then does a vectorized
  membership check (no shuffle at all — the corpus side streams).
* ``repetition_scores`` — per-document statistics, embarrassingly
  parallel ``map_batches`` (a document never spans rows).
* ``shuffle_rank`` — a global sort-rank without a global sort: hash
  values are range-partitioned by their first ``prefix_bytes`` bytes
  (the hash IS uniform, so ranges are balanced by construction), a tiny
  per-bucket histogram (256 or 65,536 ints on the driver) yields each
  bucket's starting offset, and ranks are assigned bucket-locally in one
  keyed exchange.  No stage ever holds more than one bucket.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

import ray
import ray.data

from ..core import hash_exchange
from .chunks import _doc_tokens

DECONTAM_NGRAM = 4
EVAL_MOD = 23  # deterministic stand-in for "the benchmark suite": doc_id % EVAL_MOD == 0
DUP_NGRAM = 4  # duplicated-substring shingle width (non-trivial on testdata)


def _doc_ngrams(
    df: pd.DataFrame, n: int, text_col: str, id_col: str,
    toks: pd.Series | None = None,
) -> pd.DataFrame:
    """(doc_id, gram) for every space-joined ``n``-gram occurrence, built
    from flat shifted token arrays (one vectorized string concat per
    shift, no per-row loop).  Row boundaries (not doc_id equality) gate
    gram validity, so duplicate doc_ids across rows cannot fabricate
    cross-row grams.  Pass precomputed ``toks`` (from ``_doc_tokens``)
    to skip re-tokenizing when the caller already has them."""
    if toks is None:
        toks = _doc_tokens(df, text_col)
    lens = toks.map(len).to_numpy(np.int64)
    ids = np.repeat(df[id_col].to_numpy(), lens)
    rows = np.repeat(np.arange(len(df), dtype=np.int64), lens)
    if len(ids) == 0:
        return pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                             "gram": pd.Series(dtype=object)})
    flat = pd.Series(np.concatenate([np.asarray(t, dtype=object) for t in toks if t]))
    gram = flat
    for k in range(1, n):
        gram = gram + " " + flat.shift(-k)
    # a gram starting at i is valid iff token i+n-1 exists in the SAME
    # row (rows is non-decreasing, so endpoint equality covers the span)
    valid = np.zeros(len(ids), dtype=bool)
    if len(ids) >= n:
        valid[: len(ids) - (n - 1)] = rows[: len(ids) - (n - 1)] == rows[n - 1:]
    return pd.DataFrame({id_col: ids[valid], "gram": gram.to_numpy()[valid]})


def eval_ngram_set(
    ds: ray.data.Dataset,
    n: int = DECONTAM_NGRAM,
    eval_mod: int | None = EVAL_MOD,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> frozenset:
    """Distinct ``n``-grams of the eval subset (doc_id % eval_mod == 0;
    ``eval_mod=None`` takes ALL of ``ds`` — pass the benchmark table
    itself).

    Per-batch distinct first, tiny union on the driver — benchmark
    suites are fixed-size, so this is the broadcast-small-side shape."""

    def grams(df: pd.DataFrame) -> pd.DataFrame:
        sub = df if eval_mod is None else df[df[id_col] % eval_mod == 0]
        g = _doc_ngrams(sub, n, text_col, id_col)
        return pd.DataFrame({"gram": g["gram"].drop_duplicates().to_numpy()})

    got = ds.map_batches(grams, batch_format="pandas").to_pandas()
    if got.empty or "gram" not in got.columns:  # no eval docs / all short
        return frozenset()
    return frozenset(got["gram"])


def _eval_hit_counts(
    df: pd.DataFrame, grams: frozenset, n: int, text_col: str, id_col: str,
    toks: pd.Series | None = None,
) -> np.ndarray:
    """Distinct ``n``-grams of each row present in ``grams`` — the single
    home of the contamination-count semantics (used by decontaminate AND
    prepare_training_set; keep them in lockstep)."""
    g = _doc_ngrams(df, n, text_col, id_col, toks=toks).drop_duplicates()
    hit = g[g["gram"].isin(grams)]
    n_hits = hit.groupby(id_col, sort=False).size()
    return n_hits.reindex(df[id_col].to_numpy(), fill_value=0).to_numpy(np.int64)


def _md5_rank_cols(ids: pd.Series, prefix_bytes: int) -> tuple[np.ndarray, np.ndarray]:
    """(h, hrange) per id under the shuffle-rank hash convention: h =
    md5(str(id)) hex, hrange = integer of its first ``prefix_bytes``
    bytes.  Fixed-width lowercase hex is order-preserving, so ranking
    range-locally by (h, id) with per-range offsets equals the global
    ORDER BY md5 — the single home of that convention (shuffle_rank and
    prepare_training_set both ride it)."""
    h = ids.map(lambda i: hashlib.md5(str(i).encode()).hexdigest())
    hrange = h.str[: 2 * prefix_bytes].map(lambda s: int(s, 16)).to_numpy(np.int64)
    return h.to_numpy(), hrange


def _range_offsets(
    hist_df: pd.DataFrame, n_ranges: int, cols: tuple[str, ...]
) -> dict[str, dict[int, int]]:
    """Exclusive cumsums per hash range for each histogram column —
    e.g. rank offsets from a count column, char offsets from a char-sum
    column.  Tolerates the empty/column-less frame an all-empty Dataset
    collect produces."""
    if hist_df.empty or any(c not in hist_df.columns for c in cols):
        return {c: {r: 0 for r in range(n_ranges)} for c in cols}
    tot = hist_df.groupby("hrange")[list(cols)].sum().reindex(
        range(n_ranges), fill_value=0
    )
    return {
        c: tot[c].cumsum().shift(1, fill_value=0).astype(np.int64).to_dict()
        for c in cols
    }


class _ContaminationCheck:
    """Actor-pool stage: the broadcast eval-gram set is fetched ONCE per
    actor in ``__init__`` (zero-copy from the local object store), each
    batch is a vectorized distinct-gram membership count."""

    def __init__(self, grams_ref, n: int, eval_mod: int | None, text_col: str, id_col: str):
        # keep the REF until first use: resolving in __init__ on the
        # driver (task-pool path) would pickle the whole gram set into
        # every task spec instead of a zero-copy object-store fetch
        self._grams_src = grams_ref
        self.grams: frozenset | None = None
        self.n, self.eval_mod = n, eval_mod
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        if self.grams is None:
            src = self._grams_src
            self.grams = ray.get(src) if isinstance(src, ray.ObjectRef) else src
        id_col = self.id_col
        ids = df[id_col].to_numpy()
        hits = _eval_hit_counts(df, self.grams, self.n, self.text_col, id_col)
        if self.eval_mod is None:  # eval set is external: no corpus doc is eval
            is_eval = np.zeros(len(ids), dtype=np.int64)
        else:
            is_eval = (ids % self.eval_mod == 0).astype(np.int64)
        return pd.DataFrame(
            {
                id_col: ids,
                "is_eval": is_eval,
                "n_hits": hits,
                "contaminated": ((is_eval == 0) & (hits > 0)).astype(np.int64),
            }
        )


def decontaminate(
    ds: ray.data.Dataset,
    n: int = DECONTAM_NGRAM,
    eval_mod: int | None = EVAL_MOD,
    text_col: str = "text",
    id_col: str = "doc_id",
    concurrency: int | None = 2,
    eval_ds: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """-> (doc_id, is_eval, n_hits, contaminated).

    ``n_hits`` = distinct ``n``-grams of the document also present in the
    eval subset's gram set; ``contaminated`` = non-eval doc with >= 1
    hit (the drop set of an eval-decontamination pass, Brown et al. 2020
    style but exact-match).  The corpus side streams; the eval side is
    broadcast (see module docstring).

    Pass ``eval_ds`` (the benchmark table itself, same text/id columns)
    to skip the corpus scan for eval members — the real deployment
    shape, where the suite is a separate small input.  ``eval_mod`` is
    then ignored: NO corpus doc is treated as eval (``is_eval`` = 0
    everywhere), so every doc with a hit is flagged contaminated.
    """
    if eval_ds is not None:
        gram_set = eval_ngram_set(eval_ds, n, None, text_col, id_col)
        eval_mod = None  # corpus and eval sets are disjoint inputs
    else:
        gram_set = eval_ngram_set(ds, n, eval_mod, text_col, id_col)
    grams_ref = ray.put(gram_set)
    if concurrency:
        return ds.map_batches(
            _ContaminationCheck,
            fn_constructor_args=(grams_ref, n, eval_mod, text_col, id_col),
            batch_format="pandas",
            concurrency=concurrency,
        )
    return ds.map_batches(
        _ContaminationCheck(grams_ref, n, eval_mod, text_col, id_col),
        batch_format="pandas",
    )


def _shingle_rows(
    df: pd.DataFrame, shingle_k: int, text_col: str, id_col: str,
    id_out: str = "doc_id",
) -> pd.DataFrame:
    """Exploded (id, shingle, size) rows per document — the int64
    shingle-id convention shared with ``dedup.prefix_filter_pairs``
    (hash >> 1; the dropped bit is harmless, ids only need to match
    between the two sides of the SAME job)."""
    from .dedup import _shingle_hashes

    toks = df[text_col].str.strip().str.split(r"\s+", regex=True)
    hs, ids, sizes = [], [], []
    for d, t in zip(df[id_col].to_numpy(np.int64), toks):
        h = _shingle_hashes(t if t != [""] else [], shingle_k)
        if len(h) == 0:
            continue
        hs.append((h >> np.uint64(1)).astype(np.int64))
        ids.append(np.full(len(h), d, dtype=np.int64))
        sizes.append(np.full(len(h), len(h), dtype=np.int64))
    if not hs:
        return pd.DataFrame({id_out: pd.Series(dtype=np.int64),
                             "shingle": pd.Series(dtype=np.int64),
                             "size": pd.Series(dtype=np.int64)})
    return pd.DataFrame(
        {id_out: np.concatenate(ids), "shingle": np.concatenate(hs),
         "size": np.concatenate(sizes)}
    )


class _FuzzyContaminationCheck:
    """Actor-pool stage: broadcast eval shingle table fetched once per
    actor; each corpus batch is ONE vectorized hash-join (pandas merge
    on shingle) + groupby — no per-(doc, eval-doc) Python loop."""

    def __init__(self, eval_ref, num: int, den: int, shingle_k: int,
                 eval_mod: int | None, text_col: str, id_col: str):
        self._src = eval_ref
        self.eval_df: pd.DataFrame | None = None
        self.num, self.den, self.k = num, den, shingle_k
        self.eval_mod = eval_mod
        self.text_col, self.id_col = text_col, id_col

    _EMPTY = {"doc_id": np.int64, "eval_id": np.int64, "jac_pct": np.int64}

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        if self.eval_df is None:
            src = self._src
            self.eval_df = ray.get(src) if isinstance(src, ray.ObjectRef) else src
        empty = pd.DataFrame({c: pd.Series(dtype=t) for c, t in self._EMPTY.items()})
        if self.eval_mod is not None:
            df = df[df[self.id_col] % self.eval_mod != 0]
        if len(df) == 0 or len(self.eval_df) == 0:
            return empty
        corpus = _shingle_rows(df, self.k, self.text_col, self.id_col)
        j = corpus.merge(self.eval_df, on="shingle", how="inner")
        if len(j) == 0:
            return empty
        g = j.groupby(["doc_id", "eval_id"], sort=False).agg(
            inter=("shingle", "size"), size=("size", "first"),
            esize=("esize", "first"),
        ).reset_index()
        union = g["size"].to_numpy(np.int64) + g["esize"].to_numpy(np.int64) \
            - g["inter"].to_numpy(np.int64)
        keep = (self.den * g["inter"].to_numpy(np.int64) >= self.num * union) \
            & (union > 0)
        out = g.loc[keep, ["doc_id", "eval_id"]].astype(np.int64).reset_index(drop=True)
        out["jac_pct"] = (100 * g["inter"].to_numpy(np.int64)[keep]) // union[keep]
        return out


def fuzzy_decontaminate(
    ds: ray.data.Dataset,
    threshold_num: int = 1,
    threshold_den: int = 2,
    shingle_k: int = 3,
    eval_mod: int | None = EVAL_MOD,
    text_col: str = "text",
    id_col: str = "doc_id",
    concurrency: int | None = 2,
    eval_ds: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """NEAR-DUP decontamination: every (corpus doc, eval doc) pair with
    word-shingle Jaccard >= ``threshold_num/threshold_den`` — catches
    paraphrased / lightly-edited benchmark leakage that the exact
    n-gram membership check (:func:`decontaminate`) misses.

    -> (doc_id, eval_id, jac_pct); ``jac_pct = (100*|inter|)//|union|``
    and the integer predicate ``den*|inter| >= num*|union|`` keep the
    SQL twin bit-exact at the boundary.

    Scale shape: same as :func:`decontaminate` — the eval suite is
    fixed-size, so its exploded shingle table is built once and
    broadcast (``ray.put``); the corpus streams through an actor pool
    whose per-batch work is one pandas hash-join on shingle id (the
    inverted-index form of all-pairs Jaccard against a small side).
    Corpus docs that ARE eval members (``eval_mod`` convention) are
    excluded from the corpus side; with an external ``eval_ds`` the
    inputs are disjoint and every corpus doc is checked.
    """
    src = eval_ds if eval_ds is not None else ds
    sub_mod = None if eval_ds is not None else eval_mod

    def eval_rows(df: pd.DataFrame) -> pd.DataFrame:
        sub = df if sub_mod is None else df[df[id_col] % sub_mod == 0]
        out = _shingle_rows(sub, shingle_k, text_col, id_col, id_out="eval_id")
        return out.rename(columns={"size": "esize"})

    eval_df = src.map_batches(eval_rows, batch_format="pandas").to_pandas()
    if eval_df.empty or "eval_id" not in eval_df.columns:
        eval_df = pd.DataFrame({"eval_id": pd.Series(dtype=np.int64),
                                "shingle": pd.Series(dtype=np.int64),
                                "esize": pd.Series(dtype=np.int64)})
    eval_ref = ray.put(eval_df)
    args = (eval_ref, threshold_num, threshold_den, shingle_k,
            eval_mod if eval_ds is None else None, text_col, id_col)
    if concurrency:
        return ds.map_batches(
            _FuzzyContaminationCheck, fn_constructor_args=args,
            batch_format="pandas", concurrency=concurrency,
        )
    return ds.map_batches(
        _FuzzyContaminationCheck(*args), batch_format="pandas"
    )


def cap_docs_per_source(
    ds: ray.data.Dataset,
    k: int = 50,
    source_col: str = "source",
    id_col: str = "doc_id",
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Per-source document cap (the per-domain cap of web-corpus
    curation: no single domain may contribute more than ``k`` docs):
    keep the ``k`` docs with the smallest md5(id) per source — the
    deterministic stand-in for 'a uniform random k' that is stable
    across partitioning and reruns (same md5-of-id convention as
    shuffle_rank).  One keyed exchange on source; a source's docs never
    span buckets, so the rank is exact.  -> (doc_id, source, rk) for
    kept docs, rk = 1-based rank within the source."""

    def cap(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or source_col not in df.columns:
            return pd.DataFrame(
                {id_col: pd.Series(dtype=np.int64),
                 source_col: pd.Series(dtype=object),
                 "rk": pd.Series(dtype=np.int64)}
            )
        d = df[[id_col, source_col]].copy()
        # the single home of the md5(str(id)) ranking convention
        d["__h"], _ = _md5_rank_cols(d[id_col], 1)
        d = d.sort_values([source_col, "__h", id_col], kind="mergesort")
        d["rk"] = d.groupby(source_col, sort=False).cumcount().astype(np.int64) + 1
        d = d[d["rk"] <= k]
        return d[[id_col, source_col, "rk"]].reset_index(drop=True)

    return hash_exchange(ds, source_col, cap, num_buckets)


def mixture_sample(
    ds: ray.data.Dataset,
    parts: dict[str, int],
    total: int,
    source_col: str = "source",
    id_col: str = "doc_id",
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Sample a corpus to a TARGET MIXTURE (the data-mixing step of
    pretraining-set assembly: "webtext 5 parts, books 3, code 2"):
    source ``s`` contributes ``quota_s = min(available_s,
    total * parts_s // sum(parts))`` documents, chosen as the
    smallest-md5(id) docs — the deterministic stand-in for a uniform
    random draw that is stable across partitioning and reruns (same
    convention as :func:`cap_docs_per_source`; integer quota math keeps
    the SQL twin bit-exact).  Sources absent from ``parts`` contribute
    nothing.  -> (doc_id, source, rk), rk = 1-based within-source rank.

    Shape: per-source availability is a per-batch value_counts combiner
    collected to the driver (one row per source — the mixture spec is
    human-sized by definition); the corpus prunes to in-mixture sources
    BEFORE the one keyed exchange on source."""
    keep = frozenset(parts)

    def cnt(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or source_col not in df.columns:
            return pd.DataFrame({source_col: pd.Series(dtype=object),
                                 "c": pd.Series(dtype=np.int64)})
        vc = df.loc[df[source_col].isin(keep), source_col].value_counts()
        return pd.DataFrame({source_col: vc.index.to_numpy(object),
                             "c": vc.to_numpy(np.int64)})

    counts = ds.map_batches(cnt, batch_format="pandas").to_pandas()
    avail = ({} if counts.empty or "c" not in counts.columns
             else counts.groupby(source_col)["c"].sum().to_dict())
    sum_parts = sum(parts.values())
    quota = {s: min(int(avail.get(s, 0)), total * p // sum_parts)
             for s, p in parts.items()} if sum_parts else {}

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                              source_col: pd.Series(dtype=object)})
        if len(df) == 0 or source_col not in df.columns:
            return empty
        sub = df.loc[df[source_col].isin(keep), [id_col, source_col]]
        return sub.reset_index(drop=True)

    pruned = ds.map_batches(prune, batch_format="pandas")

    def cap(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {id_col: pd.Series(dtype=np.int64),
             source_col: pd.Series(dtype=object),
             "rk": pd.Series(dtype=np.int64)}
        )
        if len(df) == 0 or source_col not in df.columns:
            return empty
        d = df[[id_col, source_col]].copy()
        d["__h"], _ = _md5_rank_cols(d[id_col], 1)
        d = d.sort_values([source_col, "__h", id_col], kind="mergesort")
        d["rk"] = d.groupby(source_col, sort=False).cumcount().astype(np.int64) + 1
        d = d[d["rk"] <= d[source_col].map(quota).fillna(0).to_numpy(np.int64)]
        return d[[id_col, source_col, "rk"]].reset_index(drop=True)

    out = hash_exchange(pruned, source_col, cap, num_buckets)
    # a fully-empty exchange loses the schema (0-row Dataset.to_pandas()
    # has no columns): hand back the typed empty frame itself
    if out.count() == 0:
        return pd.DataFrame(
            {id_col: pd.Series(dtype=np.int64),
             source_col: pd.Series(dtype=object),
             "rk": pd.Series(dtype=np.int64)}
        )
    return out


def repetition_scores(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """-> (doc_id, top2_count, top2_gram, dup3_occurrences, n_3grams).

    Gopher-style intra-document repetition signals (Rae et al. 2021 §A1.1
    "repetitious text" filters), integer-valued for hash-stable oracles:

    * ``top2_count`` / ``top2_gram`` — occurrence count and identity of
      the most frequent 2-gram (ties -> lexicographically smallest gram;
      0 / '' when the doc has < 2 tokens);
    * ``dup3_occurrences`` — total occurrences of 3-grams that appear
      >= 2 times in the doc (the numerator of the duplicate-n-gram
      fraction);
    * ``n_3grams`` — total 3-gram occurrences (its denominator).
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy()
        toks = _doc_tokens(df, text_col)  # tokenize once for both gram sizes
        g2 = _doc_ngrams(df, 2, text_col, id_col, toks=toks)
        c2 = g2.groupby([id_col, "gram"], sort=False).size().reset_index(name="c")
        top2 = (
            c2.sort_values([id_col, "c", "gram"], ascending=[True, False, True],
                           kind="mergesort")
            .drop_duplicates(id_col)
            .set_index(id_col)
        )
        g3 = _doc_ngrams(df, 3, text_col, id_col, toks=toks)
        c3 = g3.groupby([id_col, "gram"], sort=False).size().reset_index(name="c")
        c3["dup"] = np.where(c3["c"] >= 2, c3["c"], 0)
        d3 = c3.groupby(id_col, sort=False).agg(dup3=("dup", "sum"), n3=("c", "sum"))
        return pd.DataFrame(
            {
                id_col: ids,
                "top2_count": top2["c"].reindex(ids, fill_value=0).to_numpy(np.int64),
                "top2_gram": top2["gram"].reindex(ids, fill_value="").to_numpy(),
                "dup3_occurrences": d3["dup3"].reindex(ids, fill_value=0).to_numpy(np.int64),
                "n_3grams": d3["n3"].reindex(ids, fill_value=0).to_numpy(np.int64),
            }
        )

    return ds.map_batches(fn, batch_format="pandas")


PACK_BUDGET = 4096


class _PrepFeats:
    """Actor-pool stage for prepare_training_set: one pass computing the
    quality gate, contamination hits, content hash and shuffle-hash per
    document (eval gram set fetched once per actor)."""

    def __init__(self, grams_ref, n, eval_mod, min_tokens, diversity,
                 prefix_bytes, text_col, id_col):
        self._grams_src = grams_ref  # lazy: see _ContaminationCheck
        self.grams: frozenset | None = None
        self.n, self.eval_mod = n, eval_mod
        self.min_tokens, self.diversity = min_tokens, diversity
        self.prefix_bytes = prefix_bytes
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        if self.grams is None:
            src = self._grams_src
            self.grams = ray.get(src) if isinstance(src, ray.ObjectRef) else src
        id_col, text_col = self.id_col, self.text_col

        toks = _doc_tokens(df, text_col)
        n_tok = toks.map(len).to_numpy(np.int64)
        n_dist = toks.map(lambda t: len(set(t))).to_numpy(np.int64)
        quality_ok = (n_tok >= self.min_tokens) & (self.diversity * n_dist >= n_tok)
        ids = df[id_col].to_numpy()
        hits = _eval_hit_counts(df, self.grams, self.n, text_col, id_col, toks=toks)
        h, hrange = _md5_rank_cols(df[id_col], self.prefix_bytes)
        if "n_chars" in df.columns:
            n_chars = df["n_chars"].to_numpy().astype(np.int64)
        else:  # raw-corpus shape without a precomputed length column
            n_chars = df[text_col].fillna("").str.len().to_numpy(np.int64)
        keep_cand = quality_ok & (ids % self.eval_mod != 0) & (hits == 0)
        return pd.DataFrame(
            {
                id_col: ids,
                "n_chars": n_chars,
                "text_hash": df[text_col].fillna("").map(
                    lambda t: hashlib.md5(t.encode()).hexdigest()
                ).to_numpy(),
                "h": h,
                "hrange": hrange,
                "keep_cand": keep_cand.astype(np.int64),
            }
        )


def duplicated_ngram_fraction(
    ds: ray.data.Dataset,
    n: int = DUP_NGRAM,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 16,
    fingerprint: bool = False,
) -> ray.data.Dataset:
    """Cross-document duplicated-substring measure: per document, the
    fraction of its DISTINCT ``n``-gram shingles that also occur in
    >= 2 distinct documents — the exact-substring-dedup signal of Lee
    et al. 2022 ("Deduplicating Training Data Makes Language Models
    Better"), the cross-doc complement to the intra-doc
    ``repetition_scores``.

    Shape: per-batch distinct ``(doc, gram)`` rows (a document never
    spans rows, so batch-local distinct is global) -> ONE keyed
    exchange on gram, whose bucket sees every holder of its grams:
    duplicated grams are marked IN PLACE (``transform('nunique') >= 2``)
    and immediately pre-aggregated to per-doc partial counts -> one
    small doc-keyed exchange sums the partials.  Shuffle bytes are
    O(distinct (doc, gram) pairs) on the first exchange and
    O(docs x buckets) on the second; nothing is broadcast or
    driver-materialized.  Fraction is emitted as floored fixed-point
    ``x1e6`` BIGINT so the DuckDB twin hashes exactly.

    Output: ``(doc_id, n_grams, n_dup, dup_fraction_x1e6)``; documents
    shorter than ``n`` tokens have no shingles and emit no row (the SQL
    twin's join does the same).

    ``fingerprint=True`` is the 100-TB lever: the exchange key becomes
    a vectorized 64-bit siphash of the gram (``pd.util.hash_array``,
    ~8 B/row vs the full gram string), cutting shuffle bytes ~5x; a
    64-bit collision falsely marks a gram duplicated with probability
    ~m/2^64 per gram (negligible as a curation SIGNAL, and
    equivalence-tested against the exact form at test scale).  The
    default stays exact-string so the DuckDB twin hashes bit-for-bit."""

    def gram_rows(df: pd.DataFrame) -> pd.DataFrame:
        g = _doc_ngrams(df, n, text_col, id_col).drop_duplicates()
        if fingerprint and len(g):
            g["gram"] = pd.util.hash_array(
                g["gram"].to_numpy(object), categorize=False
            ).astype(np.uint64)
        return g

    rows = ds.map_batches(gram_rows, batch_format="pandas")

    _P = {id_col: np.int64, "n_grams": np.int64, "n_dup": np.int64}

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "gram" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _P.items()})
        nd = df.groupby("gram", sort=False)[id_col].transform("nunique")
        part = pd.DataFrame(
            {id_col: df[id_col].to_numpy(np.int64),
             "dup": (nd >= 2).to_numpy().astype(np.int64)}
        )
        agg = part.groupby(id_col, as_index=False).agg(
            n_grams=("dup", "size"), n_dup=("dup", "sum")
        )
        return agg.astype(_P)

    partials = hash_exchange(rows, "gram", mark, num_buckets)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "n_grams" not in df.columns:
            out = pd.DataFrame({c: pd.Series(dtype=t) for c, t in _P.items()})
            out["dup_fraction_x1e6"] = pd.Series(dtype=np.int64)
            return out
        g = df.groupby(id_col, as_index=False).agg(
            n_grams=("n_grams", "sum"), n_dup=("n_dup", "sum")
        )
        g["dup_fraction_x1e6"] = (
            1_000_000 * g["n_dup"].to_numpy(np.int64)
        ) // g["n_grams"].to_numpy(np.int64)
        return g.astype({**_P, "dup_fraction_x1e6": np.int64})

    return hash_exchange(partials, id_col, finalize, num_buckets)


def prepare_training_set(
    ds: ray.data.Dataset,
    pack_budget: int = PACK_BUDGET,
    n: int = DECONTAM_NGRAM,
    eval_mod: int = EVAL_MOD,
    prefix_bytes: int = 1,
    num_buckets: int | None = None,
    text_col: str = "text",
    id_col: str = "doc_id",
    concurrency: int | None = 2,
) -> ray.data.Dataset:
    """-> (doc_id, shuffle_pos, pack_id) for every KEPT document — the
    whole pretraining prep DAG in one pipeline:

        quality gate x exact dedup x eval decontamination
        -> deterministic global shuffle -> sequence packing

    ``kept`` = quality_ok AND exact-dup representative (dedup over the
    FULL corpus, dedup-before-filter like curation.curate) AND not an
    eval doc AND zero eval-gram hits.  Kept docs get ``shuffle_pos`` =
    rank of md5(doc_id) among kept docs and ``pack_id`` = floor(prefix
    chars in shuffle order / pack_budget) — the training-order manifest.

    Scale shape: ONE feature pass (eval grams broadcast), ONE exchange
    on text_hash (exact-rep + filter), a tiny per-range histogram whose
    cumsums give each hash range BOTH its global rank offset and char
    offset, and ONE exchange on hrange assigning positions and pack ids
    range-locally.  The driver holds two 256/65,536-int cumsums; no
    global sort, no driver-side packing loop."""
    from .curation import DIVERSITY_NUM, MIN_TOKENS

    grams_ref = ray.put(eval_ngram_set(ds, n, eval_mod, text_col, id_col))
    args = (grams_ref, n, eval_mod, MIN_TOKENS, DIVERSITY_NUM,
            prefix_bytes, text_col, id_col)
    if concurrency:
        feats = ds.map_batches(
            _PrepFeats, fn_constructor_args=args, batch_format="pandas",
            concurrency=concurrency,
        )
    else:
        feats = ds.map_batches(_PrepFeats(*args), batch_format="pandas")

    def exact_and_filter(df: pd.DataFrame) -> pd.DataFrame:
        cols = [id_col, "n_chars", "h", "hrange"]
        if len(df) == 0 or "text_hash" not in df.columns:
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype=np.int64),
                    "n_chars": pd.Series(dtype=np.int64),
                    "h": pd.Series(dtype=object),
                    "hrange": pd.Series(dtype=np.int64),
                }
            )
        rep = df.groupby("text_hash")[id_col].transform("min")
        kept = df[(df[id_col] == rep) & (df["keep_cand"] == 1)]
        return kept[cols].reset_index(drop=True)

    kept = hash_exchange(feats, "text_hash", exact_and_filter,
                         num_buckets=num_buckets).materialize()

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("hrange").agg(cnt=(id_col, "size"), chars=("n_chars", "sum"))
        return g.reset_index()

    hist_df = kept.map_batches(hist, batch_format="pandas").to_pandas()
    offs = _range_offsets(hist_df, 256 ** prefix_bytes, ("cnt", "chars"))
    return _assign_range_ranks(
        kept, offs["cnt"], id_col, num_buckets,
        char_off=offs["chars"], pack_budget=pack_budget,
    )


FREQ_NGRAM = 3
FREQ_TOPK = 100


def frequent_ngrams(
    ds: ray.data.Dataset,
    n: int = FREQ_NGRAM,
    k: int = FREQ_TOPK,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int | None = None,
) -> pd.DataFrame:
    """-> (gram, n_occurrences): the ``k`` most frequent ``n``-grams
    across the whole corpus (ties -> lexicographically smallest gram) —
    the heavy-hitters pass of boilerplate detection.

    Global top-k without a global sort: per-batch partial counts
    (combiner — shuffle bytes are O(distinct grams per batch), not
    O(occurrences)), one keyed exchange totals each gram in exactly one
    bucket, each bucket emits only ITS top ``k`` (safe: a gram lives
    wholly in one bucket), and the driver merges the <= buckets x k
    survivors.  No stage holds the full gram vocabulary."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = _doc_ngrams(df, n, text_col, id_col)
        c = g.groupby("gram", sort=False).size().reset_index(name="c")
        return pd.DataFrame({"gram": c["gram"].to_numpy(), "c": c["c"].to_numpy(np.int64)})

    partials = ds.map_batches(partial, batch_format="pandas")

    def bucket_topk(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "gram" not in df.columns:
            return pd.DataFrame({"gram": pd.Series(dtype=object),
                                 "n_occurrences": pd.Series(dtype=np.int64)})
        tot = df.groupby("gram", sort=False)["c"].sum().reset_index(name="n_occurrences")
        tot = tot.sort_values(["n_occurrences", "gram"], ascending=[False, True],
                              kind="mergesort")
        return tot.head(k).reset_index(drop=True)

    cands = hash_exchange(partials, "gram", bucket_topk, num_buckets=num_buckets)
    out = cands.to_pandas()
    if out.empty or "n_occurrences" not in out.columns:
        return pd.DataFrame({"gram": pd.Series(dtype=object),
                             "n_occurrences": pd.Series(dtype=np.int64)})
    out = out.sort_values(
        ["n_occurrences", "gram"], ascending=[False, True], kind="mergesort"
    )
    out = out.head(k).reset_index(drop=True)
    out["n_occurrences"] = out["n_occurrences"].astype(np.int64)
    return out


RARE_TOPK = 200


def rare_bigram_scores(
    ds: ray.data.Dataset,
    k: int = RARE_TOPK,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """-> (doc_id, n_bigrams, n_rare): the LM-quality-filter shape using
    the engine's own statistics — pass 1 computes the corpus-global
    top-``k`` bigrams (:func:`frequent_ngrams`), pass 2 broadcasts that
    set and counts each document's bigram occurrences outside it.  A
    high rare fraction marks gibberish / OOV-heavy text (the integer
    stand-in for perplexity scoring; swap the frequency set for a real
    LM in the same two-stage DAG)."""
    # two-pass consumer: pin the pruned input once (same materialize
    # rationale as the iterative ANN consumers in textops/ann.py)
    ds = ds.materialize()
    top = frequent_ngrams(ds, n=2, k=k, text_col=text_col, id_col=id_col,
                          num_buckets=num_buckets)
    top_set = frozenset(top["gram"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        g = _doc_ngrams(df, 2, text_col, id_col)
        ids = df[id_col].to_numpy()
        n_bi = g.groupby(id_col, sort=False).size().reindex(ids, fill_value=0)
        rare = (
            g[~g["gram"].isin(top_set)]
            .groupby(id_col, sort=False)
            .size()
            .reindex(ids, fill_value=0)
        )
        return pd.DataFrame(
            {
                id_col: ids,
                "n_bigrams": n_bi.to_numpy(np.int64),
                "n_rare": rare.to_numpy(np.int64),
            }
        )

    return ds.map_batches(score, batch_format="pandas")


SURPRISAL_CAP = 1_000_000  # per-token clip: bounds sums for BIGINT math


def unigram_surprisal_scores(
    ds: ray.data.Dataset,
    cap: int = SURPRISAL_CAP,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """-> (doc_id, n_tokens, surprisal_sum, surprisal_avg_x1e6): the
    CCNet-style LM perplexity filter with the corpus's own unigram model
    and linear (log-free) surprisal so the score is integer-exact:
    surprisal(t) = min(N // count(t), cap) where N is the corpus token
    total — rare tokens score high, boilerplate scores low.  A high
    per-token average marks OOV-heavy / gibberish documents; swap the
    count table for a real LM's scores in the same two-stage DAG.

    Shape: pass 1 is a per-batch count combiner (shuffle bytes are
    O(distinct tokens per batch)) into one keyed exchange; the totaled
    vocabulary is collected ONCE — the "model" is vocab-sized, the same
    broadcast asymmetry a KenLM filter has, independent of corpus size —
    and broadcast via ``ray.put``.  Pass 2 streams: one vectorized
    map + groupby-sum per batch, no further shuffle."""
    # two-pass consumer: pin the pruned input once (same rationale as
    # rare_bigram_scores above)
    ds = ds.materialize()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = _doc_ngrams(df, 1, text_col, id_col)
        c = g.groupby("gram", sort=False).size().reset_index(name="c")
        return pd.DataFrame(
            {"gram": c["gram"].to_numpy(), "c": c["c"].to_numpy(np.int64)}
        )

    partials = ds.map_batches(partial, batch_format="pandas")

    def totals(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "gram" not in df.columns:
            return pd.DataFrame({"gram": pd.Series(dtype=object),
                                 "cnt": pd.Series(dtype=np.int64)})
        t = df.groupby("gram", sort=False)["c"].sum().reset_index(name="cnt")
        t["cnt"] = t["cnt"].astype(np.int64)
        return t

    vocab = hash_exchange(partials, "gram", totals,
                          num_buckets=num_buckets).to_pandas()
    if vocab.empty or "cnt" not in vocab.columns:
        surprisal_ref = ray.put({})
    else:
        n_total = int(vocab["cnt"].sum())
        s = np.minimum(n_total // vocab["cnt"].to_numpy(np.int64),
                       np.int64(cap))
        surprisal_ref = ray.put(dict(zip(vocab["gram"], s.tolist())))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        out_cols = ("n_tokens", "surprisal_sum", "surprisal_avg_x1e6")
        if len(df) == 0 or text_col not in df.columns:
            return pd.DataFrame(
                {id_col: pd.Series(dtype=np.int64),
                 **{c: pd.Series(dtype=np.int64) for c in out_cols}}
            )
        table = ray.get(surprisal_ref)
        ids = df[id_col].to_numpy()
        g = _doc_ngrams(df, 1, text_col, id_col)
        g["s"] = g["gram"].map(table).astype(np.int64)
        agg = g.groupby(id_col, sort=False)["s"].agg(["count", "sum"])
        n_tok = agg["count"].reindex(ids, fill_value=0).to_numpy(np.int64)
        ssum = agg["sum"].reindex(ids, fill_value=0).to_numpy(np.int64)
        # the x1e6 average must not wrap int64 (the SQL twin's BIGINT
        # would raise; a silent numpy wrap would diverge — ADVICE r3)
        if len(ssum) and int(ssum.max()) > (2**63 - 1) // 1_000_000:
            raise OverflowError(
                "surprisal_avg_x1e6 would overflow int64: "
                f"max surprisal_sum={int(ssum.max())}; lower `cap`"
            )
        avg = np.where(n_tok > 0, (1_000_000 * ssum) // np.maximum(n_tok, 1), 0)
        return pd.DataFrame(
            {id_col: ids, "n_tokens": n_tok, "surprisal_sum": ssum,
             "surprisal_avg_x1e6": avg.astype(np.int64)}
        )

    return ds.map_batches(score, batch_format="pandas")


def shuffle_rank(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    prefix_bytes: int = 1,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """-> (doc_id, shuffle_pos): deterministic, seed-free global shuffle.

    ``shuffle_pos`` is the rank of ``md5(str(id))`` (hex, ties broken by
    id) — a reproducible random permutation for training-order shuffling
    that any engine can recompute.  Distributed as range-partitioned
    ranking: md5 is uniform, so the first ``prefix_bytes`` bytes of the
    hash ARE balanced range boundaries; a per-range histogram (one tiny
    columnar collect of 256**prefix_bytes partial counts) gives each
    range's global starting offset, then one keyed exchange sorts each
    range locally and adds its offset.  No global sort, no stage holds
    more than one range.  Use ``prefix_bytes=2`` (65,536 ranges) at the
    100 TB scale.
    """

    def add_hash(df: pd.DataFrame) -> pd.DataFrame:
        h, hrange = _md5_rank_cols(df[id_col], prefix_bytes)
        return pd.DataFrame(
            {id_col: df[id_col].to_numpy(), "h": h, "hrange": hrange}
        )

    hashed = ds.map_batches(add_hash, batch_format="pandas").materialize()

    def range_counts(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["hrange"].value_counts()
        return pd.DataFrame(
            {"hrange": vc.index.to_numpy(np.int64), "cnt": vc.to_numpy(np.int64)}
        )

    counts = hashed.map_batches(range_counts, batch_format="pandas").to_pandas()
    offs = _range_offsets(counts, 256 ** prefix_bytes, ("cnt",))
    return _assign_range_ranks(hashed, offs["cnt"], id_col, num_buckets)


TRAIN_HEX, VAL_HEX = "cc", "e6"  # first md5 byte: <0xcc train, <0xe6 val, else test


def train_split(
    ds: ray.data.Dataset, id_col: str = "doc_id", source_col: str = "source",
    chars_col: str = "n_chars",
) -> ray.data.Dataset:
    """-> (source, split, n_docs, sum_chars): deterministic ~80/10/10
    train/val/test assignment, the reproducible-split primitive of a
    training-data pipeline (the reference ships fixed train/dev/test
    JSONL folds — ``dwadden/dygiepp doc/data.md``; at corpus scale the
    fold must be a pure function of the document key so it is stable
    across engines, reruns and parallelism).  Membership = first byte of
    ``md5(str(id))`` against fixed hex fences (the orders_sample trade:
    per-key md5 is the documented price of an engine-reproducible
    split).  Embarrassingly parallel: per-batch (source, split) partials
    integer-merge in a tiny keyed exchange — no shuffle of the corpus
    itself."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        b = df[id_col].map(
            lambda k: hashlib.md5(str(k).encode()).hexdigest()[:2]
        )
        split = np.where(
            b.to_numpy() < TRAIN_HEX, "train",
            np.where(b.to_numpy() < VAL_HEX, "val", "test"),
        )
        g = pd.DataFrame(
            {
                "source": df[source_col].to_numpy(),
                "split": split,
                "chars": df[chars_col].to_numpy(np.int64),
            }
        ).groupby(["source", "split"], sort=False)
        out = g.agg(n_docs=("chars", "size"), sum_chars=("chars", "sum")).reset_index()
        return out.astype({"n_docs": np.int64, "sum_chars": np.int64})

    partials = ds.map_batches(partial, batch_format="pandas")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["source", "split"], sort=False).agg(
            n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum")
        ).reset_index()
        return g.astype({"n_docs": np.int64, "sum_chars": np.int64})

    return hash_exchange(partials, "source", merge, num_buckets=4)


def _assign_range_ranks(
    ds: ray.data.Dataset,
    rank_off: dict[int, int],
    id_col: str,
    num_buckets: int | None,
    char_off: dict[int, int] | None = None,
    pack_budget: int | None = None,
) -> ray.data.Dataset:
    """ONE keyed exchange on ``hrange``: each range is sorted by (h, id)
    and its global offset added — the shared tail of shuffle_rank and
    prepare_training_set.  With ``char_off``/``pack_budget``, also
    assigns pack ids from the exclusive char prefix.  The offset tables
    ship once via ``ray.put`` (at prefix_bytes=2 they are 65,536-entry
    dicts — too big to pickle into every merge-task spec)."""
    offs_ref = ray.put({"rank": rank_off, "chars": char_off})

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        cols: dict = {
            id_col: pd.Series(dtype=np.int64),
            "shuffle_pos": pd.Series(dtype=np.int64),
        }
        if pack_budget:
            cols["pack_id"] = pd.Series(dtype=np.int64)
        if len(df) == 0 or "h" not in df.columns:
            return pd.DataFrame(cols)
        offs = ray.get(offs_ref)
        out = []
        # a bucket task may own several hash ranges; rank each independently
        for r, sub in df.groupby("hrange", sort=False):
            sub = sub.sort_values(["h", id_col], kind="mergesort")
            row = {
                id_col: sub[id_col].to_numpy(),
                "shuffle_pos": offs["rank"][int(r)]
                + np.arange(len(sub), dtype=np.int64),
            }
            if pack_budget:
                nch = sub["n_chars"].to_numpy(np.int64)
                prefix = offs["chars"][int(r)] + np.cumsum(nch) - nch
                row["pack_id"] = prefix // pack_budget
            out.append(pd.DataFrame(row))
        return pd.concat(out, ignore_index=True)

    return hash_exchange(ds, "hrange", assign, num_buckets=num_buckets)


def bpe_learn(
    ds: ray.data.Dataset, n_merges: int = 6, text_col: str = "text"
) -> pd.DataFrame:
    """Learn byte-pair-encoding merges from a corpus — tokenizer
    training as a data pipeline (Sennrich et al. 2016; the
    subword-nmt / HuggingFace-tokenizers topology: word counting is
    the distributed pass, merge learning runs on the word-count table,
    which is bounded by the VOCABULARY, not the corpus size).

    Pass 1 (distributed): per-batch word counts (combiner — shuffle
    bytes are O(batch vocabulary)), merged into one (word -> n) table.
    Pass 2 (driver, vocab-bounded): words become sentinel-spaced symbol
    strings (`` a b c ``); each round counts adjacent symbol pairs
    weighted by word count (overlapping occurrences all count, the
    textbook convention), picks the most frequent pair (ties ->
    lexicographically smallest), and applies it via non-overlapping
    left-to-right replace of `` l r `` with `` lr `` — a semantic
    shared bit-for-bit by the SQL twin's replace() (NOTE: on an
    odd-length run of identical symbols this merges floor(run/2) pairs
    with a consumed separator, a deliberate, documented divergence from
    lookbehind-based BPE, which RE2/DuckDB cannot express).

    -> (merge_rank, left_sym, right_sym, freq), one row per learned
    merge, freq = the pair's weighted count when it was chosen."""
    cols = ("merge_rank", "left_sym", "right_sym", "freq")
    empty = pd.DataFrame(
        {c: pd.Series(dtype=object if c.endswith("_sym") else np.int64)
         for c in cols}
    )
    g = _bpe_word_counts(ds, text_col)
    if g is None:
        return empty
    rows, _ = _bpe_merge_loop(g, n_merges)
    if not rows:
        return empty
    out = pd.DataFrame(rows, columns=list(cols))
    return out.astype({"merge_rank": np.int64, "freq": np.int64})


def _bpe_word_counts(ds: ray.data.Dataset, text_col: str,
                     num_buckets: int = 8):
    """Distributed pass 1: corpus -> (word -> count) Series, or None on
    an empty/column-less corpus.  Per-batch value_counts is the
    combiner (shuffle bytes O(batch vocabulary)); partials then merge
    to the GLOBAL vocabulary on a word-keyed exchange before the driver
    collect, so the driver holds O(vocab) rows — not
    O(batches x batch-vocab), which at corpus scale is much larger."""

    def wc(df: pd.DataFrame) -> pd.DataFrame:
        words = df[text_col].str.split().explode().dropna()
        vc = words.value_counts()
        return pd.DataFrame(
            {"w": vc.index.to_numpy(object), "n": vc.to_numpy(np.int64)}
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "w" not in df.columns:
            return pd.DataFrame({"w": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64)})
        g = df.groupby("w", sort=False, as_index=False)["n"].sum()
        return g.astype({"n": np.int64})

    parts = hash_exchange(
        ds.map_batches(wc, batch_format="pandas"), "w", merge, num_buckets
    ).to_pandas()
    if parts.empty or "w" not in parts.columns:
        return None
    return parts.set_index("w")["n"]


def _bpe_merge_loop(g: pd.Series, n_merges: int):
    """Vocab-bounded driver pass 2: the BPE merge recursion.  Takes the
    (word -> count) Series; returns (merge rows, final sentinel-spaced
    representation per word aligned with g.index)."""
    reps = np.array([" " + " ".join(w) + " " for w in g.index], dtype=object)
    counts = g.to_numpy(np.int64)

    rows = []
    for k in range(n_merges):
        # vectorized adjacent-pair count over the flattened symbol stream
        syms = [r.split() for r in reps]
        lens = np.array([len(s) for s in syms], dtype=np.int64)
        if not len(lens) or lens.max() < 2:
            break
        flat = np.concatenate([np.asarray(s, dtype=object) for s in syms])
        offs = np.concatenate([[0], np.cumsum(lens)])
        word_of = np.repeat(np.arange(len(lens)), lens)
        valid = word_of[1:] == word_of[:-1]  # pair stays inside one word
        pair_l = flat[:-1][valid]
        pair_r = flat[1:][valid]
        pair_n = counts[word_of[1:][valid]]
        pc = (
            pd.DataFrame({"l": pair_l, "r": pair_r, "n": pair_n})
            .groupby(["l", "r"], sort=True)["n"].sum()
        )
        if not len(pc):
            break
        best_f = int(pc.max())
        l, r = pc[pc == best_f].index[0]  # sort=True -> lexicographic min
        rows.append((k + 1, l, r, best_f))
        old, new = f" {l} {r} ", f" {l}{r} "
        reps = np.array([s.replace(old, new) for s in reps], dtype=object)

    return rows, reps


def bpe_segment(
    ds: ray.data.Dataset,
    n_merges: int = 6,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Tokenize the corpus with a BPE vocabulary learned from the
    corpus itself (train + apply in one pipeline — the
    subword-nmt `learn_bpe` -> `apply_bpe` sequence as Ray stages).

    Pass 1 + merge loop are shared with :func:`bpe_learn` (distributed
    word-count combiner, then a driver loop bounded by the VOCABULARY,
    not the corpus).  The learned per-word segmentation (word ->
    subtoken count, vocab-bounded) is broadcast once via ``ray.put``
    and pass 3 streams the corpus through a stateless map_batches that
    explodes words, maps counts, and re-sums per document — no
    shuffle at all on the corpus side.

    -> (doc_id, n_words, n_bpe_tokens) per document; whitespace-only
    documents get zeros."""
    g = _bpe_word_counts(ds, text_col)
    if g is None:  # empty corpus -> typed empty frame (0 documents)
        return pd.DataFrame(
            {
                id_col: pd.Series(dtype=np.int64),
                "n_words": pd.Series(dtype=np.int64),
                "n_bpe_tokens": pd.Series(dtype=np.int64),
            }
        )
    _, reps = _bpe_merge_loop(g, n_merges)
    n_sub = pd.Series(
        np.array([len(r.split()) for r in reps], dtype=np.int64),
        index=g.index,
    )
    sub_ref = ray.put(n_sub)

    def seg(df: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(sub_ref)
        words = df[text_col].str.split()
        nw = words.str.len().fillna(0).to_numpy(np.int64)
        ex = words.explode().dropna()
        per_row = (
            ex.map(lut).groupby(level=0).sum()
            .reindex(df.index, fill_value=0)
        )
        return pd.DataFrame(
            {
                id_col: df[id_col].to_numpy(np.int64),
                "n_words": nw,
                "n_bpe_tokens": per_row.to_numpy(np.int64),
            }
        )

    return ds.map_batches(seg, batch_format="pandas")


VOCAB_NGRAM = 3
VOCAB_BUCKET_DOCS = 100


def vocab_growth(
    ds: ray.data.Dataset,
    n: int = VOCAB_NGRAM,
    bucket_docs: int = VOCAB_BUCKET_DOCS,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int | None = None,
) -> pd.DataFrame:
    """Heaps-law vocabulary-growth curve: per block of ``bucket_docs``
    documents (in doc_id order), how many ``n``-gram types appear for
    the FIRST time, plus the running vocabulary size — the saturation
    diagnostic run before deciding whether a corpus slice still adds
    novelty to a training mix.

    Distributed first-occurrence: per-batch (gram, min doc_id) partials
    (combiner — shuffle bytes are O(types per batch), not occurrences),
    ONE gram-keyed exchange takes the global min per type in exactly one
    bucket, and each bucket emits only its (doc-block, count) histogram
    rows; the driver folds <= buckets x blocks tiny rows and cumsums.
    No stage holds the full vocabulary.
    -> (bucket, new_terms, cum_vocab)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = _doc_ngrams(df, n, text_col, id_col)
        if len(g) == 0:
            return pd.DataFrame({"gram": pd.Series(dtype=object),
                                 "d": pd.Series(dtype=np.int64)})
        m = g.groupby("gram", sort=False)[id_col].min()
        return pd.DataFrame({"gram": m.index.to_numpy(),
                             "d": m.to_numpy(np.int64)})

    partials = ds.map_batches(partial, batch_format="pandas")

    def bucket_hist(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "gram" not in df.columns:
            return pd.DataFrame({"bucket": pd.Series(dtype=np.int64),
                                 "new_terms": pd.Series(dtype=np.int64)})
        m = df.groupby("gram", sort=False)["d"].min()
        c = pd.Series(m.to_numpy(np.int64) // bucket_docs).value_counts()
        return pd.DataFrame({"bucket": c.index.to_numpy(np.int64),
                             "new_terms": c.to_numpy(np.int64)})

    parts = hash_exchange(
        partials, "gram", bucket_hist, num_buckets=num_buckets
    ).to_pandas()
    cols = {"bucket": np.int64, "new_terms": np.int64,
            "cum_vocab": np.int64}
    if parts.empty or "bucket" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby("bucket", as_index=False)["new_terms"].sum()
    g = g.sort_values("bucket", ignore_index=True)
    return pd.DataFrame(
        {"bucket": g["bucket"].to_numpy(np.int64),
         "new_terms": g["new_terms"].to_numpy(np.int64),
         "cum_vocab": g["new_terms"].to_numpy(np.int64).cumsum()}
    )


def surprisal_buckets(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """CCNet's head/middle/tail split: docs bucketed by corpus-relative
    TERCILES of their per-token surprisal (bucket 0 = least surprising
    = "head").  The cuts are EXACT order statistics — rank (n+2)//3 and
    (2n+2)//3, pure integer arithmetic on both sides, so no float-q
    quantile convention can drift between engines.

    Shape: per-doc scores from :func:`unigram_surprisal_scores` (its
    vocabulary broadcast asymmetry carries over), cuts via the
    distributed selection in ``analytics.exact_quantiles`` (the rank
    hook), then one counting pass; the driver holds two cut scalars
    and <= 3 partial rows per batch.  -> (bucket, n_docs, s_sum)."""
    from ..analytics import exact_quantiles

    scores = unigram_surprisal_scores(ds, text_col=text_col, id_col=id_col)
    cuts = exact_quantiles(
        scores, "surprisal_avg_x1e6", [1.0 / 3, 2.0 / 3],
        _ks_fn=lambda n: [(n + 2) // 3, (2 * n + 2) // 3],
    )
    cols = {"bucket": np.int64, "n_docs": np.int64, "s_sum": np.int64}
    if len(cuts) < 2:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    c1, c2 = (int(v) for v in cuts["value"].to_numpy(np.float64))

    def count_buckets(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "surprisal_avg_x1e6" not in df.columns:
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in cols.items()})
        sa = df["surprisal_avg_x1e6"].to_numpy(np.int64)
        b = np.where(sa <= c1, 0, np.where(sa <= c2, 1, 2))
        g = pd.DataFrame({"bucket": b, "s_sum": sa}).groupby(
            "bucket", as_index=False).agg(n_docs=("s_sum", "size"),
                                          s_sum=("s_sum", "sum"))
        return g[["bucket", "n_docs", "s_sum"]].astype(np.int64)

    parts = scores.map_batches(count_buckets, batch_format="pandas").to_pandas()
    if parts.empty or "bucket" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby("bucket", as_index=False)[["n_docs", "s_sum"]].sum()
    return g.astype(np.int64).sort_values("bucket", ignore_index=True)


def term_freq_spectrum(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int | None = None,
) -> pd.DataFrame:
    """Zipf frequency spectrum: how many term TYPES fall in each
    power-of-two frequency band, and how many occurrences they carry —
    the companion diagnostic to :func:`vocab_growth` (a healthy natural
    corpus is near-linear here; a flat or truncated spectrum flags
    boilerplate or synthetic text).

    Per-batch count combiner -> one term-keyed exchange totals each
    type in exactly one bucket -> per-bucket spectrum partials; the
    driver folds <= buckets x 64 rows.  Bucket = exact bit_length via
    ``np.frexp`` (log2 misbuckets exact powers of two).
    -> (bucket, n_terms, n_occurrences)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = _doc_tokens(df, text_col) if len(df) and text_col in df.columns \
            else pd.Series([], dtype=object)
        flat = [t for ts in toks for t in ts]
        if not flat:
            return pd.DataFrame({"tok": pd.Series(dtype=object),
                                 "f": pd.Series(dtype=np.int64)})
        c = pd.Series(flat).value_counts()
        return pd.DataFrame({"tok": c.index.to_numpy(),
                             "f": c.to_numpy(np.int64)})

    partials = ds.map_batches(partial, batch_format="pandas")
    cols = {"bucket": np.int64, "n_terms": np.int64,
            "n_occurrences": np.int64}

    def spectrum(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "tok" not in df.columns:
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in cols.items()})
        tot = df.groupby("tok", sort=False)["f"].sum()
        f = tot.to_numpy(np.int64)
        b = np.frexp(f.astype(np.float64))[1].astype(np.int64)
        g = pd.DataFrame({"bucket": b, "f": f}).groupby(
            "bucket", as_index=False).agg(n_terms=("f", "size"),
                                          n_occurrences=("f", "sum"))
        return g.astype(np.int64)

    parts = hash_exchange(
        partials, "tok", spectrum, num_buckets=num_buckets
    ).to_pandas()
    if parts.empty or "bucket" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby("bucket", as_index=False)[
        ["n_terms", "n_occurrences"]].sum()
    return g.astype(np.int64).sort_values("bucket", ignore_index=True)


def sentence_dedup(
    ds: ray.data.Dataset,
    sent_tokens: int = 16,
    min_docs: int = 2,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Cross-corpus duplicate-sentence removal (the CCNet/C4-style line
    dedup, over the corpus's 16-token sentence convention): a sentence
    whose exact text appears in >= ``min_docs`` DISTINCT documents is
    removed from EVERY document; each doc reports its sentence counts
    and the md5 of the cleaned text — the rewrite op that strips
    boilerplate from a crawl.

    Shape: docs explode to (doc_id, sent_ix, sent) rows; ONE
    sentence-keyed exchange computes distinct-doc counts exactly (a
    sentence's occurrences co-locate) and emits ONLY the flagged
    occurrences (tiny — boilerplate rows, not the corpus); one doc_id
    coexchange meets those flags with the documents and rebuilds each
    doc from its kept sentences.  Corpus bytes cross the wire once per
    exchange; no driver materialization.
    -> (doc_id, n_sents, n_dup_sents, clean_md5), blank docs skipped."""
    docs = ds

    _S = {"doc_id": np.int64, "sent_ix": np.int64, "sent": object}

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "text" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _S.items()})
        toks = _doc_tokens(df, "text")
        ids, ixs, sents = [], [], []
        for doc_id, tl in zip(df["doc_id"].to_numpy(np.int64), toks):
            for i in range(0, len(tl), sent_tokens):
                ids.append(doc_id)
                ixs.append(i // sent_tokens)
                sents.append(" ".join(tl[i:i + sent_tokens]))
        return pd.DataFrame(
            {"doc_id": np.asarray(ids, np.int64),
             "sent_ix": np.asarray(ixs, np.int64),
             "sent": np.asarray(sents, object)})

    rows = docs.map_batches(explode, batch_format="pandas")

    _F = {"doc_id": np.int64, "sent_ix": np.int64}

    def flag_dups(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "sent" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _F.items()})
        nd = df.groupby("sent")["doc_id"].nunique()
        hot = set(nd.index[nd >= min_docs])
        d = df[df["sent"].isin(hot)]
        return pd.DataFrame({"doc_id": d["doc_id"].to_numpy(np.int64),
                             "sent_ix": d["sent_ix"].to_numpy(np.int64)})

    flags = hash_exchange(rows, "sent", flag_dups, num_buckets)

    out_cols = {"doc_id": np.int64, "n_sents": np.int64,
                "n_dup_sents": np.int64, "clean_md5": object}

    def rebuild(f: pd.DataFrame, d: pd.DataFrame) -> pd.DataFrame:
        if len(d) == 0 or "text" not in d.columns:
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in out_cols.items()})
        dup: dict[int, set[int]] = {}
        if len(f) and "doc_id" in f.columns:
            for did, six in zip(f["doc_id"].to_numpy(np.int64),
                                f["sent_ix"].to_numpy(np.int64)):
                dup.setdefault(int(did), set()).add(int(six))
        toks = _doc_tokens(d, "text")
        recs = []
        for doc_id, tl in zip(d["doc_id"].to_numpy(np.int64), toks):
            n = (len(tl) + sent_tokens - 1) // sent_tokens
            if n == 0:
                continue  # blank docs are skipped on both sides
            bad = dup.get(int(doc_id), ())
            kept = [" ".join(tl[i * sent_tokens:(i + 1) * sent_tokens])
                    for i in range(n) if i not in bad]
            recs.append((int(doc_id), n, len(bad),
                         hashlib.md5(" ".join(kept).encode()).hexdigest()))
        return pd.DataFrame(recs, columns=list(out_cols)).astype(out_cols)

    from ..core import hash_coexchange

    return hash_coexchange(flags, docs, "doc_id", "doc_id", rebuild,
                           num_buckets=num_buckets or 8)


def skipgram_pairs(
    ds: ray.data.Dataset, window: int = 2
) -> pd.DataFrame:
    """Word2vec-style skip-gram training pairs: for every token, each
    context token within ``window`` positions in the same document
    yields one directed (center, context) observation — the
    co-occurrence table an embedding trainer consumes.

    Shape: map-only — per-batch pairs collapse immediately to the
    DENSE (center, context) matrix (O(vocab^2) rows per batch, never
    O(tokens)); the driver folds those bounded partials.  The pair
    generation is pure numpy over the flattened token stream (doc
    boundaries masked by id comparison, no per-doc loop).
    -> (center, context, n, n_d1) with n_d1 = adjacent-only count."""
    cols = {"center": object, "context": object,
            "n": np.int64, "n_d1": np.int64}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "text" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
        toks = _doc_tokens(df, "text")
        lens = toks.map(len).to_numpy(np.int64)
        if lens.sum() == 0:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
        flat = np.concatenate([np.asarray(t, object) for t in toks if t])
        doc = np.repeat(np.arange(len(lens)), lens)
        cs, xs, ds_ = [], [], []
        for o in range(1, window + 1):
            if o >= len(flat):
                break
            m = doc[o:] == doc[:-o]
            a, b = flat[:-o][m], flat[o:][m]
            cs.append(np.concatenate([a, b]))   # both directions
            xs.append(np.concatenate([b, a]))
            ds_.append(np.full(2 * int(m.sum()), o, np.int64))
        if not cs:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
        g = pd.DataFrame(
            {"center": np.concatenate(cs), "context": np.concatenate(xs),
             "d": np.concatenate(ds_)}
        ).groupby(["center", "context"], as_index=False)["d"].agg(
            n="size", n_d1=lambda s: int((s == 1).sum()))
        return g.astype(cols)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty or "center" not in parts.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    g = parts.groupby(["center", "context"], as_index=False)[
        ["n", "n_d1"]].sum()
    return g.astype(cols)


def cdc_chunk_dedup(
    ds: ray.data.Dataset, boundary_mod: int = 16,
    num_buckets: int | None = 8,
) -> ray.data.Dataset:
    """Content-defined-chunking dedup (the rsync/borg family, at token
    granularity): a token whose 64-bit hash is 0 mod ``boundary_mod``
    STARTS a new chunk, so chunk boundaries survive insertions —
    unlike fixed windows, an edited doc still shares most chunk hashes
    with its original.  Reports, per doc, how many of its chunks also
    appear in other documents — storage-dedup potential and template
    mass in one number.

    Chunk hashes are the fingerprint polynomial (quality._BASE/_MOD)
    over the chunk's token hashes; ONE chash exchange counts distinct
    holders exactly, one doc exchange folds per-doc counts.
    -> (doc_id, n_chunks, n_shared_chunks, shared_pct)."""
    from .quality import _BASE, _MOD

    _R = {"doc_id": np.int64, "chash": np.int64}

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "text" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _R.items()})
        toks = _doc_tokens(df, "text")
        ids, hs = [], []
        for did, tl in zip(df["doc_id"].to_numpy(np.int64), toks):
            if not tl:
                continue
            ths = [int.from_bytes(hashlib.md5(t.encode()).digest()[:8],
                                  "little") for t in tl]
            # a boundary token STARTS a new chunk that includes itself
            # (the SQL side's inclusive cumsum grouping); a boundary on
            # the very first token closes nothing
            h, chunks = 0, []
            for i, th in enumerate(ths):
                if th % boundary_mod == 0 and i > 0:
                    chunks.append(h)
                    h = 0
                h = (h * _BASE + th) % _MOD
            chunks.append(h)
            ids.extend([did] * len(chunks))
            hs.extend(chunks)
        return pd.DataFrame({"doc_id": np.asarray(ids, np.int64),
                             "chash": np.asarray(hs, np.int64)})

    rows = ds.map_batches(explode, batch_format="pandas")

    _P = {"doc_id": np.int64, "n_chunks": np.int64, "n_shared": np.int64}

    def per_chash(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "chash" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _P.items()})
        holders = df.drop_duplicates(["chash", "doc_id"]).groupby(
            "chash", sort=False)["doc_id"].size()
        shared = df["chash"].map(holders >= 2).to_numpy()
        g = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(np.int64),
                          "shared": shared}).groupby(
            "doc_id", as_index=False)["shared"].agg(
            n_chunks="size", n_shared="sum")
        return g.astype(_P)

    parts = hash_exchange(rows, "chash", per_chash, num_buckets)

    out_cols = {"doc_id": np.int64, "n_chunks": np.int64,
                "n_shared_chunks": np.int64, "shared_pct": np.int64}

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "doc_id" not in df.columns:
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in out_cols.items()})
        g = df.groupby("doc_id", as_index=False)[
            ["n_chunks", "n_shared"]].sum()
        return pd.DataFrame(
            {"doc_id": g["doc_id"].to_numpy(np.int64),
             "n_chunks": g["n_chunks"].to_numpy(np.int64),
             "n_shared_chunks": g["n_shared"].to_numpy(np.int64),
             "shared_pct": (100 * g["n_shared"].to_numpy(np.int64))
             // g["n_chunks"].to_numpy(np.int64)}).astype(out_cols)

    return hash_exchange(parts, "doc_id", fold, num_buckets)


WSD_WINDOW = 8


def window_shingle_dedup(
    ds: ray.data.Dataset,
    window: int = WSD_WINDOW,
    num_buckets: int | None = None,
) -> pd.DataFrame:
    """Exact-substring duplication audit (the Lee-et-al 'Deduplicating
    Training Data Makes Language Models Better' shape, at window
    granularity): every overlapping ``window``-token span is hashed;
    a span is DUPLICATED in a doc when the same span text also occurs
    in an earlier document (global min doc_id owns the span — the
    incremental-dedup first-wins convention).  Unlike sentence_dedup's
    disjoint 16-token sentences, the stride-1 windows catch copied
    substrings at ANY alignment.

    Shape: docs explode to per-(doc, span-hash) COUNTED rows (batch-
    local pre-aggregation); ONE span-keyed exchange computes each
    hash's min doc and emits only later-doc partials; the driver folds
    O(docs) rows.  Corpus bytes cross the wire once, as 32 B hashes +
    counts — not text.
    -> (doc_id, n_windows, dup_windows), docs with < window tokens
    drop out."""
    import hashlib

    from .chunks import _doc_tokens

    out_cols = {"doc_id": np.int64, "n_windows": np.int64,
                "dup_windows": np.int64}
    empty_out = pd.DataFrame({c: pd.Series(dtype=t)
                              for c, t in out_cols.items()})

    _R = {"doc_id": np.int64, "wh": object, "cnt": np.int64}

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "text" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in _R.items()})
        toks = _doc_tokens(df, "text")
        ids, whs = [], []
        for doc_id, tl in zip(df["doc_id"].to_numpy(np.int64), toks):
            for i in range(len(tl) - window + 1):
                ids.append(doc_id)
                whs.append(hashlib.md5(
                    " ".join(tl[i:i + window]).encode()).hexdigest())
        if not ids:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in _R.items()})
        g = pd.DataFrame({"doc_id": np.asarray(ids, np.int64),
                          "wh": np.asarray(whs, object)}).groupby(
            ["doc_id", "wh"], as_index=False).size().rename(
            columns={"size": "cnt"})
        return g.astype({"doc_id": np.int64, "cnt": np.int64})

    rows = ds.map_batches(explode, batch_format="pandas")

    _P = {"doc_id": np.int64, "n": np.int64, "dup": np.int64}

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "wh" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in _P.items()})
        md = df.groupby("wh")["doc_id"].transform("min")
        dup = np.where(df["doc_id"].to_numpy(np.int64)
                       > md.to_numpy(np.int64),
                       df["cnt"].to_numpy(np.int64), 0)
        g = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(np.int64),
                          "n": df["cnt"].to_numpy(np.int64),
                          "dup": dup}).groupby(
            "doc_id", as_index=False).sum()
        return g.astype({c: np.int64 for c in _P})

    parts = hash_exchange(rows, "wh", fold, num_buckets).map_batches(
        lambda df: (df.groupby("doc_id", as_index=False).sum()
                    if len(df) and "doc_id" in df.columns else df),
        batch_format="pandas").to_pandas()
    if parts.empty or "doc_id" not in parts.columns:
        return empty_out
    g = parts.groupby("doc_id", as_index=False).sum()
    return pd.DataFrame(
        {"doc_id": g["doc_id"].to_numpy(np.int64),
         "n_windows": g["n"].to_numpy(np.int64),
         "dup_windows": g["dup"].to_numpy(np.int64)}
    ).sort_values("doc_id", ignore_index=True)
