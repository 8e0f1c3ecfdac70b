"""Document assembly (SURVEY.md §7.2-3, J5, M8, M9).

``transcripts -> documents``: group turns by ``conv_id``, restore stable
turn order by ``turn_idx`` (the reference assumes in-order contiguous
sentences, ``dygie/models/coref.py:169-172``), tokenize, and window long
conversations into documents of <= ``max_tokens_per_doc`` tokens with
the greedy splitter semantics of ``document.py:197-251`` (doc_key
suffixed ``_SPLIT_{i}``, renumbered ``sentence_start``; an oversized
single sentence raises).

This is the ONE required shuffle of the extraction pipeline.  It runs
through ``core.hash_exchange`` keyed on ``conv_id`` — a single
all-to-all exchange into ``num_buckets`` hash buckets — with the bucket
body in **Arrow/numpy end to end** (``fn_format="pyarrow"``): sort,
tokenize-and-normalize, and all list-column construction are Arrow C
kernels over the exchanged buffers; token data is NEVER copied into
Python lists (the doc ``sentences`` column is rebuilt zero-copy from
the token ListArray via window offsets).  The only Python work is the
greedy window loop over per-turn integer lengths.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..core import hash_exchange
from ..semantics import DEFAULT_CONFIG, ExtractionConfig

DOC_SCHEMA = pa.schema(
    [
        ("doc_key", pa.string()),
        ("conv_id", pa.string()),
        ("dataset", pa.string()),
        ("sentences", pa.list_(pa.list_(pa.string()))),
        ("sentence_start", pa.list_(pa.int32())),
        ("turn_idx", pa.list_(pa.int32())),
        ("roles", pa.list_(pa.string())),
        ("n_tokens", pa.int32()),
    ]
)

# optional transcript columns carried onto documents: (input column,
# output field).  An empty bucket must emit the same columns as a full one.
_OPTIONAL_FIELDS = [
    ("ts", pa.field("ts_us", pa.list_(pa.int64()))),
    ("tool", pa.field("tools", pa.list_(pa.string()))),
    ("weight", pa.field("weight", pa.float64())),
]


def _doc_schema(input_names: list[str]) -> pa.Schema:
    """DOC_SCHEMA plus the optional fields whose input column is present."""
    return pa.schema(
        list(DOC_SCHEMA) + [f for src, f in _OPTIONAL_FIELDS if src in input_names]
    )


def _combine(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def assemble_bucket(tbl: pa.Table, cfg: ExtractionConfig) -> pa.Table:
    """Transcript turns holding each of their conversations whole -> the
    conversations' documents."""
    if tbl.num_rows == 0:
        return _doc_schema(tbl.schema.names).empty_table()
    order = pc.sort_indices(
        tbl, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    tbl = tbl.take(order)
    n = tbl.num_rows

    # tokenize + normalize, all Arrow C kernels.  Null text folds into
    # the empty-turn path: unguarded, list_value_length(null) -> null
    # -> INT64_MIN under asarray(int64), corrupting every cumulative
    # offset after it.
    text = pc.fill_null(
        pc.utf8_trim_whitespace(_combine(tbl["text"]).cast(pa.string())), ""
    )
    toks = _combine(pc.split_pattern_regex(text, pattern=r"\s+"))
    lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
    flat = toks.flatten()
    # vectorized _normalize_word (dygie.py:213-218): "/." -> ".", "/?" -> "?"
    flat = pc.if_else(pc.equal(flat, "/."), pa.scalar("."), flat)
    flat = pc.if_else(pc.equal(flat, "/?"), pa.scalar("?"), flat)
    # empty/whitespace-only turns split to [""] — make them [] (and drop
    # the lone "" token from the flat stream)
    empty_mask = np.asarray(pc.equal(text, "")).astype(bool)
    if empty_mask.any():
        flat = flat.filter(pa.array(np.repeat(~empty_mask, lens)))
        lens = np.where(empty_mask, 0, lens)
    cs = np.concatenate([[0], np.cumsum(lens)])
    inner = pa.ListArray.from_arrays(pa.array(cs, pa.int32()), flat)

    # conversation boundaries (conv_id sorted) — Arrow compare, no
    # per-row Python string work
    conv = _combine(tbl["conv_id"])
    if n > 1:
        diff = np.asarray(pc.not_equal(conv.slice(1), conv.slice(0, n - 1)))
        boundaries = np.concatenate([[0], np.flatnonzero(diff) + 1, [n]])
    else:
        boundaries = np.array([0, n])
    conv_keys = conv.take(pa.array(boundaries[:-1], pa.int64())).to_pylist()

    # greedy windowing (document.py:197-251) — the one Python loop, over
    # per-turn integer lengths only
    mx = cfg.max_tokens_per_doc
    win_hi: list[int] = []          # exclusive turn index per window
    doc_keys: list[str] = []
    conv_col: list[str] = []
    lens_l = lens.tolist()
    for bi in range(len(boundaries) - 1):
        lo, hi = int(boundaries[bi]), int(boundaries[bi + 1])
        cid = conv_keys[bi]
        windows: list[int] = []
        wlo, wtok = lo, 0
        for i in range(lo, hi):
            ln = lens_l[i]
            if ln > mx:
                raise ValueError(f"sentence longer than max_tokens_per_doc in {cid}")
            if i > wlo and wtok + ln > mx:
                windows.append(i)
                wlo, wtok = i, 0
            wtok += ln
        windows.append(hi)
        one = len(windows) == 1
        for w, b in enumerate(windows):
            win_hi.append(b)
            doc_keys.append(cid if one else f"{cid}_SPLIT_{w}")
            conv_col.append(cid)

    outer = np.concatenate([[0], np.asarray(win_hi, dtype=np.int64)])
    outer_arr = pa.array(outer, pa.int32())
    n_win = len(win_hi)
    win_of_turn = np.repeat(np.arange(n_win), np.diff(outer))
    starts_flat = cs[:-1] - cs[outer[win_of_turn]]
    n_tokens = cs[outer[1:]] - cs[outer[:-1]]

    def window_list(values: pa.Array, typ) -> pa.ListArray:
        return pa.ListArray.from_arrays(outer_arr, _combine(values).cast(typ))

    cols = {
        "doc_key": pa.array(doc_keys, pa.string()),
        "conv_id": pa.array(conv_col, pa.string()),
        "dataset": pa.array([cfg.dataset] * n_win, pa.string()),
        # zero-copy regroup of the token lists into document windows
        "sentences": pa.ListArray.from_arrays(outer_arr, inner),
        "sentence_start": pa.ListArray.from_arrays(
            outer_arr, pa.array(starts_flat, pa.int32())
        ),
        "turn_idx": window_list(tbl["turn_idx"], pa.int32()),
        "roles": (
            window_list(tbl["role"], pa.string())
            if "role" in tbl.schema.names
            else pa.ListArray.from_arrays(
                outer_arr, pa.array([""] * n, pa.string())
            )
        ),
        "n_tokens": pa.array(n_tokens, pa.int32()),
    }
    # optional transcript metadata passthrough (input_hint ts/tool — the
    # reference's `_`-metadata carry-through, doc/data.md:94-106)
    if "ts" in tbl.schema.names:
        ts = _combine(tbl["ts"])
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.timestamp("us")).cast(pa.int64())
        else:
            ts = ts.cast(pa.int64())
        cols["ts_us"] = pa.ListArray.from_arrays(outer_arr, ts)
    if "tool" in tbl.schema.names:
        cols["tools"] = window_list(tbl["tool"], pa.string())
    # optional per-document weight (reference document.py:95-104 carries a
    # doc-level ``weight`` read from the corpus; loss weighting
    # models/dygie.py:257-264).  Transcript inputs provide it per turn;
    # the document window takes its FIRST turn's weight (turn weights
    # are conversation-constant by convention).
    if "weight" in tbl.schema.names:
        w = _combine(tbl["weight"]).cast(pa.float64())
        cols["weight"] = w.take(pa.array(outer[:-1], pa.int64()))
    return pa.table(cols, schema=_doc_schema(tbl.schema.names))


def assemble_documents(
    transcripts: ray.data.Dataset,
    cfg: ExtractionConfig = DEFAULT_CONFIG,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """transcripts (conv_id, turn_idx, text [, role]) -> document rows."""
    return hash_exchange(
        transcripts,
        key="conv_id",
        fn=lambda t: assemble_bucket(t, cfg),
        num_buckets=num_buckets,
        fn_format="pyarrow",
    )
