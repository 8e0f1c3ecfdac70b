"""Collate / uncollate — GPU batch shaping (SURVEY.md A10 / J5).

The reference manually repartitions sentences for GPU efficiency
(``scripts/data/shared/collate.py:26-66,126-129``): sort all sentences by
length across documents, bin-pack into pseudo-docs under
``max_spans_per_doc ≈ n_sentences * longest_len^2 <= 50k`` and
``max_sentences_per_doc`` budgets, tagging ``_orig_doc_key`` /
``_orig_sent_ix``; ``uncollate.py:53-94`` regroups afterwards and checks
no sentence went missing.

Here: ``collate`` = global ``ds.sort`` on sentence length (a real
all-to-all) + a parallel per-range bin-packer (one Ray task per
contiguous run of sorted blocks — no driver funnel);
``uncollate`` = ``hash_exchange`` on ``_orig_doc_key`` with an
in-group sort on ``_orig_sent_ix`` — exactly the conv_id/turn_idx
regroup pattern.  Round-trip safety is test-enforced like the
reference's ``collate_test.py:82-106``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..core import hash_exchange

SENT_SCHEMA = pa.schema(
    [
        ("_orig_doc_key", pa.string()),
        ("_orig_sent_ix", pa.int32()),
        ("tokens", pa.list_(pa.string())),
        ("n_tokens", pa.int32()),
    ]
)


def explode_sentences(docs: ray.data.Dataset) -> ray.data.Dataset:
    """documents -> one row per sentence with provenance tags."""

    def fn(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sents = tbl["sentences"]
        if isinstance(sents, pa.ChunkedArray):
            sents = sents.combine_chunks()
        parents = pc.list_parent_indices(sents)
        flat = pc.list_flatten(sents)  # list<string> per sentence
        off = np.asarray(sents.offsets)
        off = off - off[0]
        n = len(flat)
        sent_ix = np.arange(n) - off[np.asarray(parents)]
        return pa.table(
            {
                "_orig_doc_key": tbl["doc_key"].take(parents),
                "_orig_sent_ix": pa.array(sent_ix, pa.int32()),
                "tokens": flat,
                "n_tokens": pc.list_value_length(flat).cast(pa.int32()),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow")


PSEUDO_SCHEMA = pa.schema(
    [
        ("doc_key", pa.string()),
        ("dataset", pa.string()),
        ("sentences", pa.list_(pa.list_(pa.string()))),
        ("sentence_start", pa.list_(pa.int32())),
        ("_orig_doc_key", pa.list_(pa.string())),
        ("_orig_sent_ix", pa.list_(pa.int32())),
        ("n_tokens", pa.int32()),
    ]
)


def _pack_table(
    tbl: pa.Table,
    range_ix: int,
    max_spans_per_doc: int,
    max_sentences_per_doc: int,
    dataset: str,
) -> pa.Table:
    """Greedy span-budget packer over ONE contiguous sorted range
    (collate.py:126-129 semantics, exact within the range).  Pseudo-doc
    keys carry the range index, so ids are deterministic and unique
    without cross-range coordination."""
    rows: dict[str, list] = {k: [] for k in PSEUDO_SCHEMA.names}
    cur_toks: list[list[str]] = []
    cur_keys: list[str] = []
    cur_ixs: list[int] = []
    longest = 0
    n_doc = 0

    def flush():
        nonlocal cur_toks, cur_keys, cur_ixs, longest, n_doc
        if not cur_toks:
            return
        starts = np.zeros(len(cur_toks), dtype=np.int32)
        lens = [len(t) for t in cur_toks]
        if len(lens) > 1:
            starts[1:] = np.cumsum(lens[:-1])
        rows["doc_key"].append(f"pseudo_{range_ix:05d}_{n_doc:06d}")
        rows["dataset"].append(dataset)
        rows["sentences"].append(cur_toks)
        rows["sentence_start"].append(starts.tolist())
        rows["_orig_doc_key"].append(cur_keys)
        rows["_orig_sent_ix"].append(cur_ixs)
        rows["n_tokens"].append(int(sum(lens)))
        n_doc += 1
        cur_toks, cur_keys, cur_ixs, longest = [], [], [], 0

    df = tbl.to_pandas()
    for key, ix, toks, n in zip(
        df["_orig_doc_key"], df["_orig_sent_ix"], df["tokens"], df["n_tokens"]
    ):
        new_longest = max(longest, int(n))
        if cur_toks and (
            (len(cur_toks) + 1) * new_longest ** 2 > max_spans_per_doc
            or len(cur_toks) + 1 > max_sentences_per_doc
        ):
            flush()
            new_longest = int(n)
        cur_toks.append(list(toks))
        cur_keys.append(key)
        cur_ixs.append(int(ix))
        longest = new_longest
    flush()
    return pa.Table.from_pydict(rows, schema=PSEUDO_SCHEMA)


@ray.remote
def _pack_range_task(
    range_ix: int, max_spans: int, max_sents: int, dataset: str,
    slices: list, *blocks
) -> pa.Table:
    """``slices[i] = (offset, length)`` into ``blocks[i]`` — ranges cut
    by ROW position, not block boundary, so a skewed sort (few distinct
    n_tokens values -> one giant range-partition block) still fans out."""
    tbls = []
    for (off, ln), b in zip(slices, blocks):
        t = b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
        tbls.append(t.slice(off, ln))
    tbl = pa.concat_tables(tbls, promote_options="default")
    return _pack_table(tbl, range_ix, max_spans, max_sents, dataset)


def collate(
    sentences: ray.data.Dataset,
    max_spans_per_doc: int = 50_000,
    max_sentences_per_doc: int = 16,
    dataset: str = "synth",
    range_rows: int = 4_096,
) -> ray.data.Dataset:
    """Sentence rows -> pseudo-document rows, fully distributed.

    Global sort by length (collate.py:97-105) range-partitions the
    corpus into ordered blocks; consecutive blocks are grouped into
    ranges of ~``range_rows`` sentences and each range is packed by its
    OWN Ray task under the span budget ``n_sents * longest^2``
    (collate.py:126-129) — nothing streams through the driver (the
    pre-round-3 version pulled every sentence through a driver-side
    ``iter_batches`` loop; at 100x scale that was a single-node
    funnel).  The budget is exact within a range; a range boundary can
    only flush a pack early (an extra pseudo-doc), never exceed the
    budget.  Pseudo-doc keys are ``pseudo_{range:05d}_{n:06d}`` —
    deterministic per range, unique globally, and never visible
    downstream (uncollate regroups on ``_orig_doc_key``)."""
    sorted_ds = sentences.sort("n_tokens")
    blocks: list[tuple] = []  # (ref, num_rows)
    for bundle in sorted_ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            blocks.append((ref, meta.num_rows or 0))
    # Cut ranges by ROW position across the sorted stream (mid-block
    # slices allowed): sort range-partitions by VALUE, so a skewed
    # n_tokens distribution can put most rows in one block — grouping
    # whole blocks would then collapse to a single pack task and the
    # downstream actor pool would receive one input.
    groups: list[list] = []  # each: [(ref, offset, length), ...]
    cur: list = []
    cur_rows = 0
    for ref, nr in blocks:
        off = 0
        while nr - off > 0:
            take = min(nr - off, range_rows - cur_rows)
            cur.append((ref, off, take))
            cur_rows += take
            off += take
            if cur_rows >= range_rows:
                groups.append(cur)
                cur, cur_rows = [], 0
    if cur:
        groups.append(cur)
    if not groups:
        return ray.data.from_arrow([PSEUDO_SCHEMA.empty_table()])
    refs = [
        _pack_range_task.remote(
            ix, max_spans_per_doc, max_sentences_per_doc, dataset,
            [(off, ln) for (_r, off, ln) in grp],
            *[r for (r, _o, _l) in grp],
        )
        for ix, grp in enumerate(groups)
    ]
    return ray.data.from_arrow_refs(refs)


# doc-level token positions to rebase per annotation type (all spans are
# sentence-internal, so one per-sentence base rebases every field)
_POS_FIELDS = {
    "ner": ("start", "end"),
    "relations": ("s1", "e1", "s2", "e2"),
    "triggers": ("tok",),
    "event_args": ("trig_tok", "start", "end"),
}

# One tall union table carries all four annotation types through a
# SINGLE doc_key exchange (each row tagged by ``kind``); per-type tables
# are lazy column selections over the exchange's materialized output.
# Nullable Arrow ints keep the union exact (pandas would promote to
# float only transiently, positions are << 2^53).
_KIND_CODES = {"ner": 0, "relations": 1, "triggers": 2, "event_args": 3}
_UNION_POS = ("start", "end", "s1", "e1", "s2", "e2", "tok", "trig_tok")
_UNION_STR = ("label", "surface", "subj", "obj", "event_type", "role")
_UNION_SCHEMA = pa.schema(
    [("doc_key", pa.string()), ("kind", pa.int8()), ("sent_ix", pa.int32())]
    + [(p, pa.int32()) for p in _UNION_POS]
    + [(s, pa.string()) for s in _UNION_STR]
    + [("raw", pa.float32()), ("softmax", pa.float32())]
)
# output column order per type — matches ``stages.explode`` exactly
_TYPE_COLS = {
    "ner": ["sent_ix", "start", "end", "label", "raw", "softmax", "surface"],
    "relations": ["sent_ix", "s1", "e1", "s2", "e2", "label", "raw",
                  "softmax", "subj", "obj"],
    "triggers": ["sent_ix", "tok", "label", "raw", "softmax"],
    "event_args": ["sent_ix", "trig_tok", "event_type", "start", "end",
                   "role", "raw", "softmax", "surface"],
}


def _combine(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _flatten_union(tbl: pa.Table) -> pa.Table:
    """Pseudo-doc predictions -> tall union annotation table (sentence-
    local positions, tagged by ``kind``).  Pure Arrow/numpy; one pass
    over the batch covers every annotation type."""
    import pyarrow.compute as pc

    ok = _combine(tbl["_orig_doc_key"])
    sent_off = np.asarray(ok.offsets)
    sent_off = sent_off - sent_off[0]
    ok_flat = np.asarray(ok.flatten().to_pandas(), dtype=object)
    oix_flat = np.asarray(_combine(tbl["_orig_sent_ix"]).flatten())
    ss_flat = np.asarray(_combine(tbl["sentence_start"]).flatten())
    parts = []
    for col, pos_fields in _POS_FIELDS.items():
        if col not in tbl.schema.names:
            continue
        ann = _combine(tbl[col])
        parents = np.asarray(pc.list_parent_indices(ann))
        flat = ann.flatten()
        n = len(flat)
        if n == 0:
            continue
        names = {f.name for f in flat.type}
        sent_ix = np.asarray(flat.field("sent_ix"))
        gsent = sent_off[parents] + sent_ix
        base = ss_flat[gsent]
        arrays = {
            "doc_key": pa.array(ok_flat[gsent], pa.string()),
            "kind": pa.array(
                np.full(n, _KIND_CODES[col], dtype=np.int8), pa.int8()
            ),
            "sent_ix": pa.array(oix_flat[gsent].astype(np.int32), pa.int32()),
        }
        for p in _UNION_POS:
            if p in names and p in pos_fields:
                arrays[p] = pa.array(
                    (np.asarray(flat.field(p)) - base).astype(np.int32),
                    pa.int32(),
                )
            else:
                arrays[p] = pa.nulls(n, pa.int32())
        for s in _UNION_STR:
            arrays[s] = (
                flat.field(s).cast(pa.string()) if s in names
                else pa.nulls(n, pa.string())
            )
        for f32 in ("raw", "softmax"):
            arrays[f32] = (
                flat.field(f32).cast(pa.float32()) if f32 in names
                else pa.nulls(n, pa.float32())
            )
        parts.append(
            pa.table({name: arrays[name] for name in _UNION_SCHEMA.names})
        )
    if not parts:
        return _UNION_SCHEMA.empty_table()
    return pa.concat_tables(parts)


def _empty_rebased(has_weight: bool = False) -> pd.DataFrame:
    out = {"doc_key": pd.Series(dtype=object),
           "conv_id": pd.Series(dtype=object),
           "kind": pd.Series(dtype=np.int8),
           "sent_ix": pd.Series(dtype=np.int32)}
    for p in _UNION_POS:
        out[p] = pd.Series(dtype=np.float64)
    for s in _UNION_STR:
        out[s] = pd.Series(dtype=object)
    out["raw"] = pd.Series(dtype=np.float32)
    out["softmax"] = pd.Series(dtype=np.float32)
    if has_weight:
        out["weight"] = pd.Series(dtype=np.float64)
    return pd.DataFrame(out)


def uncollate_predictions(
    pred_pseudo: ray.data.Dataset,
    docs: ray.data.Dataset,
    num_buckets: int = 32,
) -> dict[str, ray.data.Dataset]:
    """Predicted pseudo-docs -> flat annotation tables keyed by the
    ORIGINAL documents (the prediction half of uncollate,
    ``scripts/data/shared/uncollate.py:53-94`` analogue).

    Single-pass shape (VERDICT r3 #1a): stage 1 flattens ALL annotation
    types into one tall union table per batch (offset arithmetic maps
    pseudo-doc positions to (orig_doc_key, orig_sent_ix, sentence-local
    positions)); stage 2 is ONE doc_key coexchange against the original
    docs that rebases every position column onto ``sentence_start`` and
    attaches ``conv_id``.  The extraction lineage therefore executes
    exactly once, nothing materializes the full annotated corpus (only
    the flattened annotations — no token lists — enter the exchange),
    and the per-type tables are lazy kind-selections over the
    exchange's already-materialized output refs.

    Coref clusters are deliberately absent: clusters are
    document-scoped and pseudo-docs interleave documents; the collated
    pipeline derives them from the projected mentions
    (``stages.coref.clusters_from_mentions``) instead of re-extracting.

    Returns ``{"ner": ds, "relations": ds, "triggers": ds,
    "event_args": ds}`` with columns matching ``stages.explode``.
    """

    # the optional per-document weight rides the DOCS side of the
    # exchange (pseudo-docs interleave documents and never carry it) so
    # collated-path annotation tables match the direct path's
    # explode._OPT_PARENTS passthrough
    has_weight = "weight" in docs.schema().names

    def docs_side(df: pd.DataFrame) -> pd.DataFrame:
        out = {
            "doc_key": df["doc_key"].to_numpy(),
            "conv_id": df["conv_id"].to_numpy(),
            # serialized starts: a scalar binary column concats
            # cleanly across Arrow blocks
            "__ss": [
                np.asarray(s, dtype=np.int64).tobytes()
                for s in df["sentence_start"]
            ],
        }
        if has_weight:
            out["weight"] = df["weight"].to_numpy(np.float64)
        return pd.DataFrame(out)

    dside = docs.map_batches(docs_side, batch_format="pandas")
    ann = pred_pseudo.map_batches(_flatten_union, batch_format="pyarrow")

    from ..core import hash_coexchange

    d_cols = ["doc_key", "conv_id", "__ss"] + (["weight"] if has_weight else [])

    def rebase(a: pd.DataFrame, d: pd.DataFrame) -> pd.DataFrame:
        if (len(a) == 0 or "kind" not in a.columns
                or len(d) == 0 or "doc_key" not in d.columns):
            return _empty_rebased(has_weight)
        j = a.merge(d[d_cols], on="doc_key", how="inner")
        # decode each doc's sentence_start buffer ONCE (Python work is
        # O(unique docs)), then one vectorized gather over all
        # annotation rows — the per-row frombuffer loop this replaces
        # was the only row-wise Python in the uncollate exchange
        codes, _uniq = pd.factorize(j["doc_key"], sort=False)
        first = np.zeros(len(_uniq), dtype=np.int64)
        first[codes[::-1]] = np.arange(len(j) - 1, -1, -1)
        bufs = [np.frombuffer(j["__ss"].iat[i], dtype=np.int64) for i in first]
        lens = np.asarray([len(b) for b in bufs], dtype=np.int64)
        offs = np.concatenate([[0], np.cumsum(lens)])
        flat = (
            np.concatenate(bufs) if bufs else np.empty(0, dtype=np.int64)
        )
        base = flat[offs[codes] + j["sent_ix"].to_numpy(np.int64)]
        # every pos column rebases where non-null (other kinds hold NaN
        # after the arrow->pandas conversion; positions << 2^53 so the
        # float64 transit is exact)
        for f in _UNION_POS:
            j[f] = j[f].to_numpy(np.float64) + base
        cols = ["doc_key", "conv_id"] + [c for c in a.columns if c != "doc_key"]
        if has_weight:
            cols.append("weight")
        return j[cols]

    union = hash_coexchange(ann, dside, "doc_key", "doc_key", rebase, num_buckets)

    def select_kind(col: str):
        code = _KIND_CODES[col]
        cols = _TYPE_COLS[col]
        pos = set(_POS_FIELDS[col])

        # emit Arrow with an explicit schema: empty pandas blocks lose
        # their columns through Ray's to_pandas, Arrow blocks don't
        def fn(df: pd.DataFrame) -> pa.Table:
            if len(df) == 0 or "kind" not in df.columns:
                d = _empty_rebased(has_weight)
            else:
                d = df[df["kind"] == code]
            out = {
                "doc_key": pa.array(d["doc_key"].to_numpy(object), pa.string()),
                "conv_id": pa.array(d["conv_id"].to_numpy(object), pa.string()),
            }
            for c in cols:
                if c == "sent_ix" or c in pos:
                    out[c] = pa.array(
                        d[c].to_numpy(np.float64).astype(np.int32), pa.int32()
                    )
                elif c in ("raw", "softmax"):
                    out[c] = pa.array(d[c].to_numpy(np.float32), pa.float32())
                else:
                    out[c] = pa.array(d[c].to_numpy(object), pa.string())
            if has_weight:
                out["weight"] = pa.array(
                    d["weight"].to_numpy(np.float64), pa.float64()
                )
            return pa.table(out)

        return union.map_batches(fn, batch_format="pandas")

    return {col: select_kind(col) for col in _POS_FIELDS}


def uncollate(pseudo_docs: ray.data.Dataset) -> ray.data.Dataset:
    """Pseudo-docs -> original sentence rows, regrouped by origin doc and
    re-sorted by original sentence index; missing-sentence check per doc
    happens naturally downstream (uncollate.py:73-74 analogue is the
    caller comparing counts)."""

    def explode(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keys = tbl["_orig_doc_key"]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        parents = pc.list_parent_indices(keys)
        sents = tbl["sentences"]
        if isinstance(sents, pa.ChunkedArray):
            sents = sents.combine_chunks()
        return pa.table(
            {
                "_orig_doc_key": pc.list_flatten(keys),
                "_orig_sent_ix": pc.list_flatten(tbl["_orig_sent_ix"].combine_chunks() if isinstance(tbl["_orig_sent_ix"], pa.ChunkedArray) else tbl["_orig_sent_ix"]),
                "tokens": pc.list_flatten(sents),
            }
        )

    flat = pseudo_docs.map_batches(explode, batch_format="pyarrow")

    def regroup(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["_orig_doc_key", "_orig_sent_ix"], ignore_index=True)

    return hash_exchange(flat, "_orig_doc_key", regroup, num_buckets=16)
