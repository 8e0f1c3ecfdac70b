"""Core Ray Data helpers shared by every stage.

Scale notes (the point of this engine):

* ``hash_exchange`` (and its two-sided twin ``hash_coexchange``) is the
  one shuffle primitive: it hash-buckets rows by a key column and runs a
  vectorized function ONCE PER BUCKET (not once per logical group), so
  the per-group Python overhead of ``GroupedData.map_groups`` is
  amortized — a bucket holds thousands of conversations and the body
  works on them with vectorized pandas/numpy.  All wide steps
  (conversation assembly, canonicalization, triple dedup, connected
  components, sessionization) go through it with an explicit,
  documented key.  Every side of every exchange runs through ONE
  streaming split loop (``_stream_gens``), ONE split kernel (``_split``)
  and ONE merge kernel (``_merge``); a fixed bucket count is the loop's
  one-generation case.
* ``stable_bucket`` uses pandas' fixed-key siphash (``pd.util.hash_array``)
  so bucket ids are deterministic across processes and runs — required
  for resumable, idempotent partition output (SURVEY.md §4 checkpoint
  design).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data


def ts_epoch_us(s: pd.Series) -> np.ndarray:
    """Epoch microseconds from a timestamp column, independent of the
    arrow->pandas conversion unit (timestamp[us] may surface as
    datetime64[ns] under some configurations — a bare
    ``astype('int64')`` would then silently hold nanoseconds).  A
    tz-aware column (DatetimeTZDtype is NOT an np.datetime64 subdtype)
    is normalized to UTC-naive first, so it takes the unit-correct
    branch instead of falling through to raw int64 nanoseconds."""
    if isinstance(s.dtype, pd.DatetimeTZDtype):
        s = s.dt.tz_convert("UTC").dt.tz_localize(None)
    if np.issubdtype(s.dtype, np.datetime64):
        return s.astype("datetime64[us]").astype("int64").to_numpy()
    return s.astype("int64").to_numpy()


def stable_bucket(values, num_buckets: int) -> np.ndarray:
    """Deterministic hash bucket per value (stringable array-like)."""
    arr = np.asarray(values, dtype=object)
    h = pd.util.hash_array(arr, categorize=False)
    return (h % np.uint64(num_buckets)).astype(np.int32)


def grouped_pair_indices(group_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All positional index pairs (i < j) within runs of equal
    ``group_ids`` (which must be sorted / run-grouped) — the shared
    vectorized all-pairs-within-group expansion.  A per-group Python
    loop with ``np.triu_indices`` costs ~150 s building ~40M triangle
    wedges at sf0.1; this form is pure numpy.  Returns (li, rj) index
    arrays into the input's positions; callers index their value
    columns with them."""
    n = len(group_ids)
    if n == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    new = np.concatenate([[True], group_ids[1:] != group_ids[:-1]])
    starts = np.flatnonzero(new)
    run_len = np.diff(np.concatenate([starts, [n]]))
    pos = np.arange(n, dtype=np.int64) - np.repeat(starts, run_len)
    run_id = np.cumsum(new) - 1
    left_rep = run_len[run_id] - pos - 1
    total = int(left_rep.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    li = np.repeat(np.arange(n, dtype=np.int64), left_rep)
    cum = np.concatenate([[0], np.cumsum(left_rep)])
    rj = (np.arange(total, dtype=np.int64)
          - np.repeat(cum[:-1], left_rep) + li + 1)
    return li, rj


# Max ObjectRef arguments per concat/merge task.  At 100 TB / 128 MiB
# blocks the upstream is ~800k blocks; a flat merge would put every one
# of them in ONE task spec.  The tree-reduce below caps task fan-in at
# this constant, giving O(log_F n_blocks) levels of pairwise-parallel
# concats instead (module-level so tests can shrink it to exercise
# multi-level trees with small inputs).
MERGE_FANIN = 512

# Exchange sizing rules (VERDICT r2 findings #3/#4, r3 #3).
#
# * Auto bucket count: when the caller does not pass ``num_buckets``,
#   splitting starts IMMEDIATELY at ``min(MIN_AUTO_BUCKETS, cluster
#   CPUs)`` rounded down to a power of two (never more root merges than
#   the cluster can run at once) and the bucket count doubles whenever
#   the bytes seen so far exceed
#   ``bucket_count x TARGET_BUCKET_BYTES`` (so each root merge
#   concatenates ~<= TARGET_BUCKET_BYTES at any scale) — no
#   collect-all-metadata pass, splits overlap upstream execution, and
#   earlier coarse generations are reconciled with one extra re-split
#   pass over their already-resident outputs (geometrically bounded).
#   An explicit ``num_buckets`` is the same loop pinned at one count.
# * Bounded driver ref inventory: split outputs are folded into the
#   per-bucket concat tree INCREMENTALLY as they are launched (a
#   binary-carry ladder of fan-in MERGE_FANIN), so the driver holds
#   O(num_buckets x MERGE_FANIN x log_F(n_blocks)) refs at peak instead
#   of collecting all O(n_blocks x num_buckets) split refs before
#   reducing (~51M at 800k blocks x 64 buckets).
# * Micro-block coalescing: a split task handles a GROUP of consecutive
#   blocks only while the group stays tiny (< TARGET_SPLIT_BYTES) —
#   normal-sized blocks (100 TB regime: ~128 MB) split one task per
#   block, preserving split parallelism and upstream overlap; floods of
#   kilobyte blocks (skewed upstream outputs) coalesce instead of
#   paying per-task overhead.
TARGET_BUCKET_BYTES = 256 << 20
TARGET_SPLIT_BYTES = 8 << 20
MAX_SPLIT_GROUP_BLOCKS = 64
MIN_AUTO_BUCKETS = 8
MAX_AUTO_BUCKETS = 1024


def _iter_blocks(ds: ray.data.Dataset):
    """Execute ``ds`` (the exchange is eager) and yield its blocks as
    ``(ObjectRef, size_bytes)`` pairs AS THEY ARE PRODUCED, so split
    tasks overlap upstream execution."""
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            yield ref, getattr(meta, "size_bytes", None) or 0


def _iter_split_groups(blocks_iter):
    """Group upstream blocks for shared split tasks: normal blocks get
    their own task (preserving split parallelism and upstream overlap);
    only micro-block floods coalesce, bounded by MAX_SPLIT_GROUP_BLOCKS
    refs or TARGET_SPLIT_BYTES bytes per task.  Yields ``(group,
    group_bytes)``."""
    group: list = []
    gbytes = 0
    for ref, sz in blocks_iter:
        group.append(ref)
        gbytes += sz
        if len(group) >= MAX_SPLIT_GROUP_BLOCKS or gbytes >= TARGET_SPLIT_BYTES:
            yield group, gbytes
            group, gbytes = [], 0
    if group:
        yield group, gbytes


def _concat_tables(parts) -> pa.Table:
    """Concatenate bucket parts, skipping empty ones (their schema may
    lack columns computed upstream).  A bucket with no rows is its first
    part that has columns, column-less when none has (or no parts)."""
    nonempty = [p for p in parts if p.num_rows]
    if nonempty:
        return pa.concat_tables(nonempty, promote_options="default")
    return next((p for p in parts if p.num_columns), pa.table({}))


@ray.remote
def _concat(*parts):
    # inner tree node: pure concatenation, no fn
    return _concat_tables(parts).combine_chunks()


@ray.remote
def _merge(fn, fn_format: str, n_a: int, *parts):
    """Root merge of one bucket of either exchange: ``fn(*sides)`` as
    Arrow.  ``n_a < 0`` is one side (all of ``parts``); else the first
    ``n_a`` parts are side a and the rest side b.  The one empty-bucket
    rule: when ``fn`` raises, every side has 0 rows and some side has
    no columns (Ray Data passes empty blocks through UDFs untouched,
    without their computed columns), the bucket emits 0 rows; anything
    else re-raises."""
    sides = [parts] if n_a < 0 else [parts[:n_a], parts[n_a:]]
    tables = [_concat_tables(side) for side in sides]
    args = tables if fn_format == "pyarrow" else [t.to_pandas() for t in tables]
    try:
        out = fn(*args)
    except Exception:
        if all(t.num_rows == 0 for t in tables) and any(t.num_columns == 0 for t in tables):
            return tables[0]
        raise
    if isinstance(out, pd.DataFrame):
        return pa.Table.from_pandas(out, preserve_index=False)
    return out


@ray.remote
def _split(key: str, num_buckets: int, stride: int, offset: int, *blocks):
    """Route every row of ``blocks`` (a group of consecutive blocks, or
    the parts of one coarse bucket) to output
    ``(stable_bucket(key, num_buckets) - offset) // stride``, one
    zero-copy slice per output.  ``stride=1, offset=0`` is the plain
    split into ``num_buckets`` outputs.  ``stride=B_old, offset=b_old``
    re-splits old bucket ``b_old`` of a coarser generation into its
    ``num_buckets // B_old`` final buckets: bucket counts only ever
    double, so ``h % B_old == (h % num_buckets) % B_old`` and every row
    of ``b_old`` lands in a final bucket ``b_old + i * B_old``.  An
    output without rows is the empty slice of the first block that has
    ``key``, column-less when no block has it."""
    fan = num_buckets // stride
    parts: list[list] = [[] for _ in range(fan)]
    fallback = pa.table({})
    for block in blocks:
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        if key not in tbl.schema.names:
            continue
        if fallback.num_columns == 0:
            fallback = tbl.slice(0, 0)
        if tbl.num_rows == 0:
            continue
        col = tbl[key].to_pandas().to_numpy()
        sub = (stable_bucket(col, num_buckets) - offset) // stride
        order = np.argsort(sub, kind="stable")
        tbl = tbl.take(pa.array(order))
        offs = np.searchsorted(sub[order], np.arange(fan + 1))
        for i in range(fan):
            sl = tbl.slice(offs[i], offs[i + 1] - offs[i])
            if sl.num_rows:
                parts[i].append(sl)
    out = [
        pa.concat_tables(p, promote_options="default") if len(p) > 1
        else p[0] if p else fallback
        for p in parts
    ]
    return out[0] if fan == 1 else tuple(out)


def _launch_split(refs: list, key: str, num_buckets: int, stride: int = 1,
                  offset: int = 0) -> tuple:
    fan = num_buckets // stride
    outs = _split.options(num_returns=fan).remote(
        key, num_buckets, stride, offset, *refs
    )
    return (outs,) if fan == 1 else outs


def _new_levels(num_buckets: int) -> list:
    return [[[]] for _ in range(num_buckets)]


def _ladder_add(levels: list, b: int, ref, lvl: int = 0):
    """Incremental binary-carry concat ladder: when a level accumulates
    MERGE_FANIN refs they collapse into one concat task and carry to the
    next level — every row passes through O(log_F n_blocks) concats and
    the driver's ref inventory stays bounded at any block count."""
    L = levels[b]
    if len(L) <= lvl:
        L.append([])
    L[lvl].append(ref)
    if len(L[lvl]) >= MERGE_FANIN:
        folded = _concat.remote(*L[lvl])
        L[lvl] = []
        _ladder_add(levels, b, folded, lvl + 1)


def _ladder_refs(levels: list, b: int) -> list:
    return [r for lvl in levels[b] for r in lvl]


def _tree_reduce(refs: list) -> list:
    while len(refs) > MERGE_FANIN:
        refs = [
            _concat.remote(*refs[i : i + MERGE_FANIN])
            for i in range(0, len(refs), MERGE_FANIN)
        ]
    return refs


def _bucket_range(num_buckets: int | None) -> tuple[int, int]:
    """``(start, cap)`` bucket counts for :func:`_stream_gens`: an
    explicit count never doubles; auto starts at the largest power of
    two <= ``min(MIN_AUTO_BUCKETS, cluster CPUs)`` (MIN_AUTO_BUCKETS when
    the cluster reports no CPUs) and doubles up to the largest
    MIN x 2^k <= MAX_AUTO_BUCKETS (every generation's count must divide
    the final one for the re-split to be exact)."""
    if num_buckets is not None:
        return num_buckets, num_buckets
    cpus = ray.cluster_resources().get("CPU")
    limit = MIN_AUTO_BUCKETS if not cpus else min(MIN_AUTO_BUCKETS, int(cpus))
    start = 1
    while start * 2 <= limit:
        start *= 2
    cap = MIN_AUTO_BUCKETS
    while cap * 2 <= MAX_AUTO_BUCKETS:
        cap *= 2
    return start, cap


def _stream_gens(blocks_iter, key: str, start: int, cap: int):
    """The one streaming split loop: launch split tasks as upstream
    blocks arrive and fold each bucket's outputs through the concat
    ladder.  Splitting starts IMMEDIATELY at ``start`` buckets and
    doubles (up to ``cap``) whenever the bytes seen so far exceed
    ``bucket_count x TARGET_BUCKET_BYTES`` — no collect-all-metadata
    pass, so split tasks overlap upstream execution.  ``start == cap``
    is a fixed bucket count: one generation, no re-split.  Each
    bucket-count change closes a *generation*, reconciled by
    :func:`_gens_to_buckets`.  Returns ``(B_final, generations)``, a
    list of ``(B_g, levels)`` with the final generation last; it is
    empty on zero blocks (``B_final`` is then ``start``)."""
    B = start
    gens: list[tuple[int, list]] = []
    levels = _new_levels(B)
    seen = 0
    n_groups = 0
    for group, gbytes in _iter_split_groups(blocks_iter):
        if seen > B * TARGET_BUCKET_BYTES and B < cap:
            gens.append((B, levels))
            while seen > B * TARGET_BUCKET_BYTES and B < cap:
                B *= 2
            levels = _new_levels(B)
        n_groups += 1
        seen += gbytes
        refs = _launch_split(group, key, B)
        for b in range(B):
            _ladder_add(levels, b, refs[b])
    if n_groups:
        gens.append((B, levels))
    return B, gens


def _gens_to_buckets(gens: list, num_buckets: int, key: str) -> list:
    """Fold generations into per-bucket ref lists (each at most
    MERGE_FANIN refs, ready for the root merge) at ``num_buckets``,
    which every generation's bucket count must divide.  The final
    generation's refs route directly; earlier (coarser) generations pay
    one re-split task per old bucket — bounded extra work over data
    that is already in the object store.  Zero generations give empty
    lists."""
    per_bucket: list[list] = [[] for _ in range(num_buckets)]
    for B_g, levels in gens:
        if B_g == num_buckets:
            for b in range(num_buckets):
                per_bucket[b].extend(_ladder_refs(levels, b))
            continue
        for b_old in range(B_g):
            refs = _tree_reduce(_ladder_refs(levels, b_old))
            if not refs:
                continue
            outs = _launch_split(refs, key, num_buckets, B_g, b_old)
            for i, ref in enumerate(outs):
                per_bucket[b_old + i * B_g].append(ref)
    return [_tree_reduce(refs) for refs in per_bucket]


def hash_exchange(
    ds: ray.data.Dataset,
    key: str,
    fn: Callable[[pd.DataFrame], pd.DataFrame | pa.Table],
    num_buckets: int | None = None,
    fn_format: str = "pandas",
) -> ray.data.Dataset:
    """Hash-partition ``ds`` on ``key`` and apply ``fn`` once per bucket.

    ``fn`` receives ALL rows sharing a bucket (a superset grouping of
    the logical key) and must do its own per-key vectorized grouping:
    Python overhead is O(num_buckets), not O(n_groups).  ``fn`` runs on
    every bucket, empty ones too: an empty bucket has the input schema,
    or no columns when the input has zero blocks, so a zero-block ``ds``
    still comes back with ``fn``'s schema.  When ``fn`` raises, only a
    0-row bucket with no columns emits 0 rows instead (``_merge``).
    Skewed logical keys can be pre-salted by the caller
    (canonicalization does: salt = hash(doc_key) % S as a sub-key).

    Upstream blocks are split into ``num_buckets`` zero-copy Arrow
    slices as they stream out of the upstream (one split task per
    block; floods of micro-blocks coalesce per the sizing notes above);
    each bucket's split outputs fold through an INCREMENTAL concat tree
    (fan-in capped at ``MERGE_FANIN`` refs per task, levels collapse as
    they fill, so both task-spec size and the driver's ref inventory
    stay bounded at any block count) with ``fn`` applied once at the
    root.  ``num_buckets=None`` (default) derives the bucket count from
    the upstream's byte size so each root merge concatenates <=
    ~``TARGET_BUCKET_BYTES``: it starts at ``min(MIN_AUTO_BUCKETS,
    cluster CPUs)`` rounded down to a power of two and doubles as bytes
    arrive.  No sampling pass, no
    sort machinery — measured ~4x faster than
    ``groupby(bucket).map_groups`` on this Ray version and it scales
    with CPUs (split/concat/merge tasks are embarrassingly parallel).

    ``fn_format="pyarrow"`` hands ``fn`` the concatenated
    ``pa.Table`` directly — no Arrow->pandas round-trip for callbacks
    that work in Arrow/numpy (the hot assembly path uses this; the box
    is memory-bandwidth-bound, so fewer copies is the single-node
    lever).

    This is the one place the engine drops below the Dataset API: the
    Dataset groupby expresses the same semantics but its sort-based
    shuffle dominates wall time (SURVEY.md §4 shuffle discussion).
    Partitioning assumption: ``fn`` sees ALL rows whose ``key`` hashes
    to its bucket, exactly once.  Upstream blocks stream into split
    tasks as they are produced; the returned Dataset's blocks are the
    merge outputs.  The exchange is eager, and the call returns only
    after every merge has finished: ``from_arrow_refs`` fetches each
    block's metadata.
    """

    B, gens = _stream_gens(_iter_blocks(ds), key, *_bucket_range(num_buckets))
    merged = [_merge.remote(fn, fn_format, -1, *refs)
              for refs in _gens_to_buckets(gens, B, key)]
    return ray.data.from_arrow_refs(merged)


def split_refs(ds: ray.data.Dataset, key: str, num_buckets: int) -> list:
    """Pre-split one exchange side so several :func:`hash_coexchange`
    calls can share it (``splits_b=``): one ref list per bucket, each
    at most MERGE_FANIN refs (all empty when ``ds`` has zero blocks)."""
    B, gens = _stream_gens(_iter_blocks(ds), key, num_buckets, num_buckets)
    return _gens_to_buckets(gens, B, key)


def hash_coexchange(
    ds_a: ray.data.Dataset,
    ds_b: ray.data.Dataset,
    key_a: str,
    key_b: str,
    fn,
    num_buckets: int | None = None,
    fn_format: str = "pandas",
    splits_b: list | None = None,
) -> ray.data.Dataset:
    """Two-sided keyed exchange: both datasets hash-partition with the
    SAME deterministic bucketing (rows of ``ds_a`` whose ``key_a``
    equals some ``key_b`` of ``ds_b`` land in the same bucket), and
    ``fn(bucket_a, bucket_b)`` runs once per bucket.

    ``splits_b`` (from :func:`split_refs` at the same ``num_buckets``)
    reuses an already-split b side across several exchanges — the
    exchange is eager, so passing the same Dataset twice would
    re-execute its lineage; splitting once shares the object-store
    copies instead.

    This replaces the tagged-union join pattern (tag both sides with a
    ``kind`` column, union, filter inside the bucket): each side keeps
    its OWN schema end to end — no cross-side schema promotion, no
    int->float corruption from null-padded columns, no Ray Data
    schema-mismatch warnings.  Same tree-merge fan-in bound and empty
    rule as :func:`hash_exchange`: a zero-block side is a column-less
    empty table in every bucket (``fn`` may still emit rows from the
    other side alone), and ``fn`` raising is forgiven only when both
    sides are empty and one has no columns."""

    if splits_b is not None and len(splits_b) != num_buckets:
        raise ValueError(
            f"splits_b holds {len(splits_b)} buckets but num_buckets is "
            f"{num_buckets} (pass the count the pre-split side was made with)"
        )
    # both sides stream independently (on the auto path each doubles on
    # its own byte count); the final bucket count is the max of the two
    # — a multiple of every generation on both sides
    start, cap = _bucket_range(num_buckets)
    B, gens_a = _stream_gens(_iter_blocks(ds_a), key_a, start, cap)
    pb_b = splits_b
    if pb_b is None:
        B_b, gens_b = _stream_gens(_iter_blocks(ds_b), key_b, start, cap)
        B = max(B, B_b)
        pb_b = _gens_to_buckets(gens_b, B, key_b)
    pb_a = _gens_to_buckets(gens_a, B, key_a)
    merged = [_merge.remote(fn, fn_format, len(ra), *ra, *rb)
              for ra, rb in zip(pb_a, pb_b)]
    return ray.data.from_arrow_refs(merged)


def assert_unique(ds: ray.data.Dataset, cols: list[str], num_buckets: int = 16) -> ray.data.Dataset:
    """D1: distributed uniqueness check on a column tuple — raises on the
    first duplicate (the reference asserts adjacency-index uniqueness,
    ``adjacency_field_assym.py:62-63``).  Returns the dataset of
    per-bucket duplicate counts (all zero) so the check composes lazily."""

    def check(df: pd.DataFrame) -> pd.DataFrame:
        if len(df):
            dup = df.duplicated(cols)
            if dup.any():
                sample = df.loc[dup, cols].head(3).to_dict("records")
                raise ValueError(f"duplicate keys on {cols}: {sample}")
        return pd.DataFrame({"dups": [0]})

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        key = df[cols[0]].astype(str)
        for c in cols[1:]:
            key = key.str.cat(df[c].astype(str), sep="\x1f")
        df["__ukey"] = key
        return df

    return hash_exchange(
        ds.map_batches(keyed, batch_format="pandas"),
        "__ukey",
        check,
        num_buckets,
    )


def flatten_with_parent(
    table: pa.Table, list_col: str, parent_cols: list[str]
) -> pa.Table:
    """Explode a list column into one row per element, repeating
    ``parent_cols`` (vectorized: list_parent_indices + take)."""
    import pyarrow.compute as pc

    col = table[list_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    parents = pc.list_parent_indices(col)
    flat = pc.list_flatten(col)
    cols = {c: table[c].take(parents) for c in parent_cols}
    if pa.types.is_struct(flat.type):
        out = pa.table(cols)
        for f in flat.type:
            out = out.append_column(f.name, flat.field(f.name))
        return out
    cols[list_col] = flat
    return pa.table(cols)
