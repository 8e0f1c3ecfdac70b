"""Post-processing operators (SURVEY.md §2: D3, D4, M10, M16).

* ``merge_overlapping_mentions`` — reference semantics of
  ``dygie/spacy_interface/spacy_interface.py:69-105``: within a
  sentence, overlapping predicted entity spans collapse to the longest
  (ties: earliest start), because spacy Docs cannot hold overlaps.
* ``filter_sentence_length`` — M10
  (``scripts/data/shared/check_sentence_length.py:21-44``): drop (or
  just flag) documents containing a sentence longer than the encoder
  limit.
* ``filter_blacklist`` — D4 (GENIA ``exclude.txt`` anti-join): broadcast
  key set, vectorized ``is_in`` filter.
* ``mark_failed`` — M16 (``predictors/dygie.py:56-67``): run a stage
  per-batch under try/except; failed batches pass through with
  ``_FAILED_PREDICTION = True`` instead of killing the run.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def merge_overlaps_one_sentence(spans: list[tuple[int, int]]) -> list[int]:
    """Indices of spans kept by longest-wins overlap resolution.

    Greedy by (length desc, start asc, index asc) — matches the
    reference's repeated longest-first selection."""
    order = sorted(
        range(len(spans)),
        key=lambda i: (-(spans[i][1] - spans[i][0]), spans[i][0], i),
    )
    kept: list[int] = []
    for i in order:
        s, e = spans[i]
        if all(e < spans[j][0] or s > spans[j][1] for j in kept):
            kept.append(i)
    return sorted(kept)


def merge_overlapping_mentions(mentions: ray.data.Dataset) -> ray.data.Dataset:
    """mentions table -> mentions with overlaps resolved per (doc, sent)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby(["doc_key", "sent_ix"], sort=False):
            spans = list(zip(g["start"].to_numpy(), g["end"].to_numpy()))
            kept = merge_overlaps_one_sentence(spans)
            outs.append(g.iloc[kept])
        if not outs:
            return df
        return pd.concat(outs, ignore_index=True)

    # mentions of one doc always arrive inside one exploded block row-run;
    # a batch boundary could split a sentence only across map_batches calls,
    # so group-key completeness is restored with a keyed repartition first.
    from ..core import hash_exchange

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__mkey"] = df["doc_key"].str.cat(df["sent_ix"].astype(str), sep="|")
        return df

    return hash_exchange(
        mentions.map_batches(keyed, batch_format="pandas"),
        "__mkey",
        lambda df: fn(df.drop(columns="__mkey")),
        num_buckets=16,
    )


def filter_sentence_length(
    docs: ray.data.Dataset, max_tokens: int = 512, drop: bool = True
) -> ray.data.Dataset:
    """M10: flag documents whose longest sentence exceeds ``max_tokens``
    (the reference's 512-wordpiece encoder ceiling, doc/data.md:159-198);
    drop=False keeps them with a boolean ``_too_long`` column."""

    def fn(tbl: pa.Table) -> pa.Table:
        sents = tbl["sentences"]
        if isinstance(sents, pa.ChunkedArray):
            sents = sents.combine_chunks()
        lens = pc.list_value_length(sents.flatten())
        off = np.asarray(sents.offsets)
        off = off - off[0]
        ln = np.asarray(lens)
        too_long = np.array(
            [ln[a:b].max(initial=0) > max_tokens for a, b in zip(off[:-1], off[1:])]
        )
        if drop:
            return tbl.filter(pa.array(~too_long))
        return tbl.append_column("_too_long", pa.array(too_long))

    return docs.map_batches(fn, batch_format="pyarrow")


def filter_blacklist(
    ds: ray.data.Dataset, keys: set[str], key_col: str = "doc_key"
) -> ray.data.Dataset:
    """D4: anti-join against a broadcast key set."""
    ref = ray.put(pa.array(sorted(keys), pa.string()))

    def fn(tbl: pa.Table) -> pa.Table:
        bl = ray.get(ref)
        return tbl.filter(pc.invert(pc.is_in(tbl[key_col], value_set=bl)))

    return ds.map_batches(fn, batch_format="pyarrow")


def mark_failed(ds: ray.data.Dataset, stage_fn) -> ray.data.Dataset:
    """M16: per-batch failure isolation — a raising batch passes through
    unmodified plus ``_FAILED_PREDICTION=True`` (the reference's OOM
    pass-through)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        try:
            out = stage_fn(df)
            out = out.copy()
            out["_FAILED_PREDICTION"] = False
            return out
        except Exception:
            out = df.copy()
            out["_FAILED_PREDICTION"] = True
            return out

    return ds.map_batches(fn, batch_format="pandas")
