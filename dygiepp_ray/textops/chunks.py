"""Document chunking and TF-IDF — the retrieval-prep layer of a
training-data pipeline, with exact DuckDB twins.

* **chunk_documents** — overlapping token windows (the RAG/pretraining
  chunking convention, and the same windowing family as the reference's
  document splitter, ``dygie/data/dataset_readers/document.py:197-251``):
  chunk i starts at ``i*stride`` and the last chunk is the first one
  containing the final token, so short docs yield exactly one chunk.
  Fully vectorized (np.repeat expansion, no per-row loop).
* **tfidf_top_terms** — distributed TF-IDF over whitespace terms with a
  LINEAR idf (``score = tf * N/df``): two IEEE ops that both engines
  evaluate bit-identically, so ranking ties cannot drift between the
  Ray path and the SQL oracle the way ``log`` ulp differences could.
  Shuffle shape: (1) per-doc term counts are batch-local (one document
  per row), (2) df = keyed exchange on term with batch combiners,
  (3) df re-attached to term rows by a second term exchange,
  (4) per-doc top-k by one doc_id exchange with in-bucket sort.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from ..core import hash_coexchange, hash_exchange


def _doc_tokens(df: pd.DataFrame, text_col: str) -> pd.Series:
    """Whitespace token lists (empty list for blank text) — matches
    ``quality.token_counts`` / regexp_split_to_array semantics."""
    s = df[text_col].fillna("").str.strip()
    toks = s.str.split(r"\s+", regex=True)
    return toks.where(s != "", None).map(lambda t: t if isinstance(t, list) else [])


def chunk_documents(
    ds: ray.data.Dataset,
    window: int = 128,
    stride: int = 96,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """(doc_id, chunk_ix, chunk_start, chunk_len) — one row per
    overlapping token window; docs with no tokens yield no chunks."""
    if stride <= 0 or window <= 0 or stride > window:
        raise ValueError("need 0 < stride <= window")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        n = _doc_tokens(df, text_col).map(len).to_numpy(np.int64)
        ids = df[id_col].to_numpy(np.int64)
        keep = n > 0
        n, ids = n[keep], ids[keep]
        n_chunks = 1 + np.ceil(np.maximum(n - window, 0) / stride).astype(np.int64)
        doc_rep = np.repeat(ids, n_chunks)
        n_rep = np.repeat(n, n_chunks)
        # chunk_ix = 0..n_chunks-1 within each doc, vectorized
        total = int(n_chunks.sum())
        ix = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(n_chunks)[:-1]]), n_chunks
        )
        start = ix * stride
        return pd.DataFrame(
            {
                "doc_id": doc_rep,
                "chunk_ix": ix,
                "chunk_start": start,
                "chunk_len": np.minimum(window, n_rep - start).astype(np.int64),
            }
        )

    return ds.map_batches(fn, batch_format="pandas")


def q_chunk_documents(sf_dir: str) -> ray.data.Dataset:
    # window sized below the corpus median so the multi-chunk path (the
    # interesting one) is exercised by the driver check, not just tests
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return chunk_documents(ds, window=32, stride=24)


SQL_CHUNK_DOCUMENTS = """
WITH toks AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS n
  FROM documents
)
SELECT doc_id,
       CAST(i AS BIGINT) AS chunk_ix,
       CAST(i * 24 AS BIGINT) AS chunk_start,
       CAST(least(32, n - i * 24) AS BIGINT) AS chunk_len
FROM toks,
     unnest(generate_series(0,
        CAST(CASE WHEN n <= 32 THEN 0
                  ELSE ceil((n - 32) / 24.0) END AS BIGINT))) AS t(i)
WHERE n > 0
"""


def tfidf_top_terms(
    ds: ray.data.Dataset,
    k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """(doc_id, term, rk, score): top-k terms per doc by
    ``score = tf * (N / df)`` (ties broken by term asc)."""

    def term_counts(df: pd.DataFrame) -> pd.DataFrame:
        toks = _doc_tokens(df, text_col)
        long = pd.DataFrame(
            {"doc_id": df[id_col], "term": toks}
        ).explode("term").dropna(subset=["term"])
        g = long.groupby(["doc_id", "term"], as_index=False).size()
        return g.rename(columns={"size": "tf"}).astype(
            {"doc_id": np.int64, "tf": np.int64}
        )

    # one document per input row -> per-batch tf counts are complete;
    # materialized because three consumers (df exchange, N pass, score
    # exchange) would otherwise re-tokenize the corpus three times
    tf = ds.map_batches(term_counts, batch_format="pandas").materialize()

    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        # (doc, term) rows are unique -> batch row count = distinct docs
        g = df.groupby("term", as_index=False).size()
        return g.rename(columns={"size": "df"}).astype({"df": np.int64})

    def df_final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("term", as_index=False).agg(df=("df", "sum"))
        return g.astype({"df": np.int64})

    df_table = hash_exchange(
        tf.map_batches(df_partial, batch_format="pandas"), "term", df_final,
        num_buckets=8,
    )

    def n_docs_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [df["doc_id"].nunique()]})

    n_counts = tf.map_batches(n_docs_partial, batch_format="pandas").to_pandas()
    n_docs = int(n_counts["n"].sum()) if "n" in n_counts.columns else 0
    if n_docs == 0:  # empty corpus: no terms, no rankings
        return ray.data.from_pandas(
            pd.DataFrame(
                {"doc_id": pd.Series(dtype=np.int64),
                 "term": pd.Series(dtype=object),
                 "rk": pd.Series(dtype=np.int64),
                 "score": pd.Series(dtype=np.float64)}
            )
        )

    def attach(t: pd.DataFrame, d: pd.DataFrame) -> pd.DataFrame:
        if len(t) == 0 or "tf" not in t.columns:
            return pd.DataFrame(
                {"doc_id": pd.Series(dtype=np.int64), "term": pd.Series(dtype=object),
                 "score": pd.Series(dtype=np.float64)}
            )
        j = t.merge(d, on="term", how="inner")
        return pd.DataFrame(
            {
                "doc_id": j["doc_id"].to_numpy(np.int64),
                "term": j["term"],
                "score": j["tf"].to_numpy(np.float64)
                * (float(n_docs) / j["df"].to_numpy(np.float64)),
            }
        )

    scored = hash_coexchange(tf, df_table, "term", "term", attach, num_buckets=8)

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.sort_values(["doc_id", "score", "term"],
                           ascending=[True, False, True])
            .groupby("doc_id", sort=False)
            .head(k)
            .reset_index(drop=True)
        )
        out["rk"] = out.groupby("doc_id", sort=False).cumcount().astype(np.int64) + 1
        out["score"] = out["score"].round(6)
        return out[["doc_id", "term", "rk", "score"]]

    return hash_exchange(scored, "doc_id", topk, num_buckets=8)


def q_tfidf_top_terms(sf_dir: str) -> ray.data.Dataset:
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return tfidf_top_terms(ds)


SQL_TFIDF_TOP_TERMS = """
WITH words AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\\s+')) AS term
  FROM documents WHERE trim(text) <> ''
), tf AS (
  SELECT doc_id, term, count(*) AS tf FROM words GROUP BY 1, 2
), df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM words GROUP BY 1
), nn AS (
  SELECT count(DISTINCT doc_id) AS n FROM words
)
SELECT doc_id, term, CAST(rk AS BIGINT) AS rk, round(score, 6) AS score
FROM (
  SELECT tf.doc_id, tf.term,
         CAST(tf.tf AS DOUBLE) * (CAST(nn.n AS DOUBLE) / CAST(df.df AS DOUBLE))
           AS score,
         row_number() OVER (
           PARTITION BY tf.doc_id
           ORDER BY CAST(tf.tf AS DOUBLE)
                    * (CAST(nn.n AS DOUBLE) / CAST(df.df AS DOUBLE)) DESC,
                    tf.term
         ) AS rk
  FROM tf JOIN df USING (term), nn
)
WHERE rk <= 3
"""


# ---------------------------------------------------------------------------
# multi-term boolean search (retrieval beyond ANN: exact term matching)
# ---------------------------------------------------------------------------


def term_search(
    ds: "ray.data.Dataset",
    terms: tuple[str, ...],
    k: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Boolean-AND retrieval: documents containing EVERY query term,
    ranked by total query-term frequency (ties broken by doc_id) —
    top-``k``.

    Scale shape: scoring is embarrassingly parallel (a document carries
    all its tokens, so no shuffle — each batch filters its token stream
    to the tiny broadcast term set and aggregates per doc), each block
    emits at most ``k`` survivors, and the global top-k is a
    sort().limit(k) over blocks x k rows.  The selective-retrieval
    complement to the ANN family: same contract as a posting-list
    lookup, realized as a streaming scan because the engine's inputs
    are column stores, not a served index."""
    tset = frozenset(terms)
    n_terms = len(tset)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                              "tf": pd.Series(dtype=np.int64)})
        if len(df) == 0 or text_col not in df.columns:
            return empty
        toks = _doc_tokens(df, text_col)
        lens = toks.map(len).to_numpy(np.int64)
        if lens.sum() == 0:
            return empty
        ids = np.repeat(df[id_col].to_numpy(np.int64), lens)
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks if t])
        hit = pd.DataFrame({"id": ids, "tok": flat})
        hit = hit[hit["tok"].isin(tset)]
        if not len(hit):
            return empty
        g = hit.groupby("id").agg(tf=("tok", "size"), nt=("tok", "nunique"))
        g = g[g["nt"] == n_terms].reset_index()
        g = g.sort_values(["tf", "id"], ascending=[False, True]).head(k)
        return pd.DataFrame({id_col: g["id"].to_numpy(np.int64),
                             "tf": g["tf"].to_numpy(np.int64)})

    parts = ds.map_batches(score, batch_format="pandas")
    return parts.sort(["tf", id_col], descending=[True, False]).limit(k)


def save_text_index(
    ds: "ray.data.Dataset",
    path: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int | None = None,
) -> None:
    """Persist an inverted text index: one parquet directory of posting
    rows (tok, doc_id, tf), term-partitioned by the keyed exchange and
    SORTED by term inside every file so parquet row-group statistics
    make a term lookup a pushdown filter, not a scan.  The index is the
    artifact: later sessions answer term queries without re-tokenizing
    the corpus (the retrieval analogue of :func:`~.ann.save_ivf_index`).

    Scale shape: per-batch (tok, doc, tf) partials (a document never
    spans rows, so per-doc tf completes in-batch), one keyed exchange on
    the term, distributed ``write_parquet`` (one file per block — the
    resumable-output shape)."""

    def postings(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"tok": pd.Series(dtype=object),
                              id_col: pd.Series(dtype=np.int64),
                              "tf": pd.Series(dtype=np.int64)})
        if len(df) == 0 or text_col not in df.columns:
            return empty
        toks = _doc_tokens(df, text_col)
        lens = toks.map(len).to_numpy(np.int64)
        if lens.sum() == 0:
            return empty
        ids = np.repeat(df[id_col].to_numpy(np.int64), lens)
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks if t])
        g = (pd.DataFrame({"tok": flat, id_col: ids})
             .groupby(["tok", id_col], as_index=False).size()
             .rename(columns={"size": "tf"}))
        g["tf"] = g["tf"].astype(np.int64)
        return g

    parts = ds.map_batches(postings, batch_format="pandas")

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "tok" not in df.columns:
            return pd.DataFrame({"tok": pd.Series(dtype=object),
                                 id_col: pd.Series(dtype=np.int64),
                                 "tf": pd.Series(dtype=np.int64)})
        g = df.groupby(["tok", id_col], as_index=False)["tf"].sum()
        g["tf"] = g["tf"].astype(np.int64)
        return g.sort_values(["tok", id_col], ignore_index=True)

    hash_exchange(parts, "tok", bucket,
                  num_buckets=num_buckets).write_parquet(path)


def term_search_from_index(
    path: str,
    terms: tuple[str, ...],
    k: int = 10,
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Boolean-AND top-k retrieval against a PERSISTED inverted index
    (see :func:`save_text_index`): the parquet read carries a
    ``tok IN terms`` pushdown, so only the query terms' posting lists
    leave storage; one doc-keyed exchange re-collates each document's
    per-term rows (the index is term-partitioned) for the AND + ranking.
    Bit-identical to :func:`term_search` over the same corpus —
    pytest-pinned."""
    import pyarrow.compute as pc

    tset = frozenset(terms)
    n_terms = len(tset)
    ds = ray.data.read_parquet(path, filter=pc.field("tok").isin(list(tset)))

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                              "tf": pd.Series(dtype=np.int64)})
        if len(df) == 0 or "tok" not in df.columns:
            return empty
        g = df.groupby(id_col).agg(tf=("tf", "sum"), nt=("tok", "nunique"))
        g = g[g["nt"] == n_terms].reset_index()
        g = g.sort_values(["tf", id_col], ascending=[False, True]).head(k)
        return pd.DataFrame({id_col: g[id_col].to_numpy(np.int64),
                             "tf": g["tf"].to_numpy(np.int64)})

    parts = hash_exchange(ds, id_col, per_doc, num_buckets=8)
    return parts.sort(["tf", id_col], descending=[True, False]).limit(k)


SEARCH_TERMS = ("join", "hash", "scan")


def q_term_search(sf_dir: str):
    import ray.data as _rd

    docs = _rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return term_search(docs, SEARCH_TERMS, k=10)


SQL_TERM_SEARCH = r"""
WITH base AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS arr
  FROM documents
),
toks AS (SELECT doc_id, unnest(arr) AS tok FROM base),
m AS (SELECT doc_id, tok FROM toks WHERE tok IN ('join', 'hash', 'scan')),
s AS (SELECT doc_id, count(*) AS tf, count(DISTINCT tok) AS nt FROM m GROUP BY 1)
SELECT doc_id, CAST(tf AS BIGINT) AS tf
FROM s WHERE nt = 3
ORDER BY tf DESC, doc_id
LIMIT 10
"""


def phrase_search(
    ds: "ray.data.Dataset",
    phrase: tuple[str, ...],
    text_col: str = "text",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Positional phrase retrieval: documents containing the EXACT
    token sequence ``phrase`` (whitespace tokenization, same as
    :func:`term_search`), with the occurrence count — the adjacency
    query a positional posting list answers, which boolean-AND
    retrieval cannot (docs with both tokens NON-adjacent don't match).

    Map-only: a document carries all its tokens, so the adjacency test
    is a shifted equality AND over each batch's flattened token stream
    (doc boundaries masked by comparing the repeated id array to its
    own shift) — no shuffle, no per-doc loop.  -> (doc_id, n_hits),
    matching docs only."""
    import numpy as np

    words = [str(w) for w in phrase]
    L = len(words)
    if L < 2:
        raise ValueError("phrase_search needs a phrase of >= 2 tokens")

    def score(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                              "n_hits": pd.Series(dtype=np.int64)})
        if len(df) == 0 or text_col not in df.columns:
            return empty
        toks = _doc_tokens(df, text_col)
        lens = toks.map(len).to_numpy(np.int64)
        if lens.sum() == 0:
            return empty
        ids = np.repeat(df[id_col].to_numpy(np.int64), lens)
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks if t])
        n = len(flat)
        if n < L:
            return empty
        m = np.ones(n - L + 1, dtype=bool)
        for j, w in enumerate(words):
            m &= flat[j:n - L + 1 + j] == w
        # the whole window must sit inside one document
        m &= ids[:n - L + 1] == ids[L - 1:]
        if not m.any():
            return empty
        hit_ids = ids[:n - L + 1][m]
        u, c = np.unique(hit_ids, return_counts=True)
        return pd.DataFrame({id_col: u.astype(np.int64),
                             "n_hits": c.astype(np.int64)})

    return ds.map_batches(score, batch_format="pandas")


def q_phrase_search(sf_dir: str):
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return phrase_search(ds, ("table", "hash"))


SQL_PHRASE_SEARCH = r"""
WITH base AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS arr
  FROM documents
),
pos AS (
  SELECT doc_id, arr[i] AS t1, arr[i + 1] AS t2
  FROM base,
       LATERAL (SELECT unnest(generate_series(1, len(arr) - 1)) AS i) s
  WHERE len(arr) >= 2
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_hits
FROM pos WHERE t1 = 'table' AND t2 = 'hash'
GROUP BY 1
"""


def inverted_index(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 16,
) -> "ray.data.Dataset":
    """Positional inverted-index materialization: one posting row per
    distinct (term, doc) with term frequency, first occurrence
    position and the term's corpus-wide document frequency — the
    index ARTIFACT a retrieval engine serves (term_search and
    phrase_search answer queries; this exports the structure they
    presuppose; same index role as the reference's document-level
    lookup tables, ``dygie/data/dataset_readers/document.py``).

    Shape: tf/first_pos are document-local (a document is one row), so
    posting rows are built map-only per batch (flattened token stream,
    no per-doc loop); df is corpus-wide, so postings take ONE
    term-keyed exchange and each bucket stamps its terms' exact df
    locally (a term's postings co-locate by construction).  Shuffle
    bytes = O(distinct (term, doc) pairs); the driver holds nothing.
    -> (term, doc_id, tf, first_pos, df)."""

    _OUT = {"term": object, "doc_id": np.int64, "tf": np.int64,
            "first_pos": np.int64, "df": np.int64}

    def postings(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or text_col not in df.columns:
            return pd.DataFrame({"term": pd.Series(dtype=object),
                                 "doc_id": pd.Series(dtype=np.int64),
                                 "tf": pd.Series(dtype=np.int64),
                                 "first_pos": pd.Series(dtype=np.int64)})
        toks = _doc_tokens(df, text_col)
        lens = toks.map(len).to_numpy(np.int64)
        if int(lens.sum()) == 0:
            return pd.DataFrame({"term": pd.Series(dtype=object),
                                 "doc_id": pd.Series(dtype=np.int64),
                                 "tf": pd.Series(dtype=np.int64),
                                 "first_pos": pd.Series(dtype=np.int64)})
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        ids = np.repeat(df[id_col].to_numpy(np.int64), lens)
        # 0-based in-doc position: global arange minus each doc's start
        starts = np.repeat(np.concatenate([[0], np.cumsum(lens)[:-1]]), lens)
        pos = np.arange(len(flat), dtype=np.int64) - starts
        g = (pd.DataFrame({"term": flat, "doc_id": ids, "pos": pos})
             .groupby(["term", "doc_id"], sort=False)["pos"]
             .agg(tf="size", first_pos="min").reset_index())
        return g.astype({"doc_id": np.int64, "tf": np.int64,
                         "first_pos": np.int64})

    rows = ds.map_batches(postings, batch_format="pandas")

    def stamp_df(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "term" not in df.columns:
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in _OUT.items()})
        out = df.copy()
        # postings are distinct per (term, doc), so df = group size
        out["df"] = out.groupby("term", sort=False)["doc_id"].transform("size")
        return out[list(_OUT)].astype(
            {c: t for c, t in _OUT.items() if t is not object})

    return hash_exchange(rows, "term", stamp_df, num_buckets)


def q_inverted_index(sf_dir: str):
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return inverted_index(ds)


SQL_INVERTED_INDEX = r"""
WITH base AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS arr
  FROM documents
),
toks AS (
  SELECT doc_id, arr[i] AS term, i - 1 AS pos
  FROM base, LATERAL (SELECT unnest(generate_series(1, len(arr))) AS i) s
),
g AS (
  SELECT term, doc_id, count(*) AS tf, min(pos) AS first_pos
  FROM toks GROUP BY 1, 2
),
d AS (SELECT term, count(*) AS df FROM g GROUP BY 1)
SELECT g.term, g.doc_id, CAST(g.tf AS BIGINT) AS tf,
       CAST(g.first_pos AS BIGINT) AS first_pos, CAST(d.df AS BIGINT) AS df
FROM g JOIN d USING (term)
"""
