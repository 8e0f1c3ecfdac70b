"""Core exchange primitives: stable bucketing and the hash exchange,
checked against a pandas groupby."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from dygiepp_ray.core import hash_exchange, stable_bucket


def test_stable_bucket_deterministic():
    a = stable_bucket(np.array(["x", "y", "z"], dtype=object), 8)
    b = stable_bucket(np.array(["x", "y", "z"], dtype=object), 8)
    assert (a == b).all()
    assert ((a >= 0) & (a < 8)).all()


def test_stable_bucket_spreads():
    keys = np.array([f"k{i}" for i in range(1000)], dtype=object)
    b = stable_bucket(keys, 16)
    counts = np.bincount(b, minlength=16)
    assert (counts > 20).all()  # roughly uniform


def test_hash_exchange_collects_all_keys(ray_session):
    df = pd.DataFrame({"k": [f"g{i % 7}" for i in range(500)], "v": range(500)})
    ds = rd.from_pandas(df).repartition(8)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("k", sort=False)["v"].agg(["sum", "size"]).reset_index()
        return out.rename(columns={"sum": "s", "size": "n"})

    out = hash_exchange(ds, "k", fn, num_buckets=4).to_pandas()
    # each logical key appears exactly once (all its rows in one bucket)
    assert sorted(out["k"]) == sorted(df["k"].unique())
    expect = df.groupby("k")["v"].sum()
    got = dict(zip(out["k"], out["s"]))
    assert got == expect.to_dict()


def test_hash_exchange_single_bucket(ray_session):
    df = pd.DataFrame({"k": ["a", "b"], "v": [1, 2]})
    out = hash_exchange(
        rd.from_pandas(df), "k", lambda g: g.sort_values("k", ignore_index=True), 1
    ).to_pandas()
    assert list(out["v"]) == [1, 2]


def test_hash_exchange_empty_buckets_hit_fn_with_schema(ray_session):
    df = pd.DataFrame({"k": ["same"] * 10, "v": range(10)})

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        # empty buckets must still present the input schema
        assert list(g.columns) == ["k", "v"]
        return pd.DataFrame({"n": [len(g)]})

    out = hash_exchange(rd.from_pandas(df), "k", fn, 16).to_pandas()
    assert out["n"].sum() == 10
    assert len(out) == 16


def test_hash_exchange_tree_merge_small_fanin(ray_session, monkeypatch):
    """Multi-level concat tree (fan-in capped) must agree with flat merge."""
    import dygiepp_ray.core as core

    df = pd.DataFrame({"k": [f"g{i % 5}" for i in range(300)], "v": range(300)})
    ds = rd.from_pandas(df).repartition(30)

    def fn(g):
        return g.groupby("k", sort=False)["v"].sum().reset_index()

    monkeypatch.setattr(core, "MERGE_FANIN", 4)  # 30 blocks -> 2+ tree levels
    out = hash_exchange(ds, "k", fn, num_buckets=3).to_pandas()
    expect = df.groupby("k")["v"].sum()
    assert dict(zip(out["k"], out["v"])) == expect.to_dict()


def test_hash_exchange_many_upstream_blocks(ray_session, monkeypatch):
    """2k+ upstream blocks: per-task ObjectRef fan-in stays bounded by
    MERGE_FANIN (the 100 TB block-count regime, VERDICT r1 finding #1)."""
    import dygiepp_ray.core as core

    n_blocks = 2048
    monkeypatch.setattr(core, "MERGE_FANIN", 256)
    df = pd.DataFrame({"k": [f"g{i % 11}" for i in range(n_blocks)], "v": range(n_blocks)})
    ds = rd.from_pandas(df).repartition(n_blocks).materialize()
    assert ds.num_blocks() >= 2000

    def fn(g):
        return g.groupby("k", sort=False)["v"].sum().reset_index()

    out = hash_exchange(ds, "k", fn, num_buckets=2).to_pandas()
    expect = df.groupby("k")["v"].sum()
    assert dict(zip(out["k"], out["v"])) == expect.to_dict()


def test_hash_exchange_pyarrow_fn_format(ray_session):
    import pyarrow as pa

    df = pd.DataFrame({"k": [f"g{i % 3}" for i in range(60)], "v": range(60)})
    ds = rd.from_pandas(df).repartition(4)

    def fn(tbl):
        assert isinstance(tbl, pa.Table)
        import pyarrow.compute as pc
        g = pa.TableGroupBy(tbl, "k").aggregate([("v", "sum")])
        return g.rename_columns(["k", "v"])

    out = hash_exchange(ds, "k", fn, num_buckets=4, fn_format="pyarrow").to_pandas()
    expect = df.groupby("k")["v"].sum()
    assert dict(zip(out["k"], out["v"])) == expect.to_dict()


def test_hash_coexchange_joins_sides(ray_session):
    import numpy as np

    from dygiepp_ray.core import hash_coexchange

    a = pd.DataFrame({"id": np.arange(200, dtype=np.int64), "x": np.arange(200) * 2})
    b = pd.DataFrame({"key": np.arange(50, 250, dtype=np.int64), "y": np.arange(200) * 3})

    def join(ad, bd):
        if len(ad) == 0 or "id" not in ad.columns or len(bd) == 0 or "key" not in bd.columns:
            return pd.DataFrame({"id": pd.Series(dtype=np.int64),
                                 "x": pd.Series(dtype=np.int64),
                                 "y": pd.Series(dtype=np.int64)})
        return ad.merge(bd.rename(columns={"key": "id"}), on="id", how="inner")

    out = hash_coexchange(
        rd.from_pandas(a).repartition(4), rd.from_pandas(b).repartition(3),
        "id", "key", join, num_buckets=8,
    ).to_pandas().sort_values("id", ignore_index=True)
    expect = a.merge(b.rename(columns={"key": "id"}), on="id").sort_values("id", ignore_index=True)
    pd.testing.assert_frame_equal(out, expect)


def test_hash_coexchange_split_reuse(ray_session):
    import numpy as np

    from dygiepp_ray.core import hash_coexchange, split_refs

    a = pd.DataFrame({"id": np.arange(100, dtype=np.int64), "x": np.arange(100)})
    b = pd.DataFrame({"key": np.arange(100, dtype=np.int64), "y": np.arange(100) * 7})
    bs = rd.from_pandas(b).repartition(2)
    shared = split_refs(bs, "key", 4)

    def join(ad, bd):
        if len(ad) == 0 or "id" not in ad.columns or len(bd) == 0 or "key" not in bd.columns:
            return pd.DataFrame({"id": pd.Series(dtype=np.int64),
                                 "y": pd.Series(dtype=np.int64)})
        return ad[["id"]].merge(bd.rename(columns={"key": "id"}), on="id")[["id", "y"]]

    r1 = hash_coexchange(rd.from_pandas(a), bs, "id", "key", join, 4,
                         splits_b=shared).to_pandas()
    r2 = hash_coexchange(rd.from_pandas(a), bs, "id", "key", join, 4,
                         splits_b=shared).to_pandas()
    assert sorted(zip(r1["id"], r1["y"])) == sorted(zip(r2["id"], r2["y"]))
    assert len(r1) == 100


def test_hash_coexchange_rejects_mismatched_splits_b(ray_session):
    from dygiepp_ray.core import hash_coexchange, split_refs

    df = pd.DataFrame({"id": np.arange(10, dtype=np.int64)})
    shared = split_refs(rd.from_pandas(df), "id", 4)
    for nb in (8, None):
        with pytest.raises(ValueError, match="splits_b"):
            hash_coexchange(rd.from_pandas(df), rd.from_pandas(df), "id", "id",
                            lambda a, b: a, nb, splits_b=shared)


def test_hash_coexchange_splits_b_tree_merge(ray_session, monkeypatch):
    """VERDICT r3 #8: a pre-split side under a shrunken MERGE_FANIN and a
    2k-block shared side — its concat ladder must fold multi-level and
    both reusing exchanges must stay exact."""
    import dygiepp_ray.core as core
    from dygiepp_ray.core import hash_coexchange, split_refs

    n_blocks = 2048
    monkeypatch.setattr(core, "MERGE_FANIN", 8)
    monkeypatch.setattr(core, "MAX_SPLIT_GROUP_BLOCKS", 4)
    b = pd.DataFrame({"key": np.arange(n_blocks, dtype=np.int64) % 101,
                      "y": np.arange(n_blocks, dtype=np.int64)})
    bs = rd.from_pandas(b).repartition(n_blocks).materialize()
    assert bs.num_blocks() >= 2000
    folds = []
    orig_ladder_add = core._ladder_add

    def spy_ladder_add(levels, b, ref, lvl=0):
        folds.append(lvl)
        return orig_ladder_add(levels, b, ref, lvl)

    monkeypatch.setattr(core, "_ladder_add", spy_ladder_add)
    shared = split_refs(bs, "key", 4)
    # 512 split groups per bucket at fan-in 8: the ladder carries past
    # level 1, and each bucket still hands <= MERGE_FANIN refs over
    assert max(folds) >= 2
    assert len(shared) == 4
    assert all(0 < len(refs) <= core.MERGE_FANIN for refs in shared)

    a = pd.DataFrame({"id": np.arange(101, dtype=np.int64),
                      "x": np.arange(101, dtype=np.int64) * 2})

    def join(ad, bd):
        if (len(ad) == 0 or "id" not in ad.columns
                or len(bd) == 0 or "key" not in bd.columns):
            return pd.DataFrame({c: pd.Series(dtype=np.int64)
                                 for c in ("id", "ysum")})
        m = ad.merge(bd.rename(columns={"key": "id"}), on="id")
        g = m.groupby("id", as_index=False)["y"].sum()
        return g.rename(columns={"y": "ysum"})

    expect = (
        a.merge(b.rename(columns={"key": "id"}), on="id")
        .groupby("id")["y"].sum()
    )
    for _ in range(2):  # reuse the same shared splits twice
        out = hash_coexchange(
            rd.from_pandas(a), bs, "id", "key", join, 4, splits_b=shared
        ).to_pandas()
        assert dict(zip(out["id"], out["ysum"])) == expect.to_dict()


def test_ts_epoch_us_tz_aware_matches_naive():
    from dygiepp_ray.core import ts_epoch_us

    naive = pd.Series(pd.to_datetime(["2024-01-01 12:00:00", "2024-06-01 00:00:01"]))
    aware = naive.dt.tz_localize("UTC").dt.tz_convert("America/New_York")
    assert (ts_epoch_us(aware) == ts_epoch_us(naive)).all()
    # microseconds, not nanoseconds
    assert ts_epoch_us(naive)[0] == 1704110400 * 10**6


def test_hash_exchange_zero_block_input(ray_session):
    """A Dataset with no blocks is B buckets with no parts: ``fn`` runs
    on each (a column-less empty table, in either format) and the result
    has ``fn``'s schema, not the input's."""
    import pyarrow as pa

    import dygiepp_ray.core as core

    empty = rd.from_items([])
    assert not list(core._iter_blocks(empty))  # zero blocks, not one empty one

    def fn(g):
        return pa.table({"rows": [len(g)], "cols": [len(g.columns)]})

    for fn_format in ("pandas", "pyarrow"):
        out = hash_exchange(empty, "k", fn, 4, fn_format=fn_format).to_pandas()
        assert list(out.columns) == ["rows", "cols"]
        assert len(out) == 4
        assert (out.to_numpy() == 0).all()


def test_hash_coexchange_zero_block_sides(ray_session):
    """Both sides zero-block: ``fn`` still runs once per bucket, on two
    column-less empty frames."""
    from dygiepp_ray.core import hash_coexchange

    def fn(ad, bd):
        return pd.DataFrame({"a_cols": [len(ad.columns)], "b_cols": [len(bd.columns)],
                             "rows": [len(ad) + len(bd)]})

    out = hash_coexchange(
        rd.from_items([]), rd.from_items([]), "id", "id", fn, 4
    ).to_pandas()
    assert list(out.columns) == ["a_cols", "b_cols", "rows"]
    assert len(out) == 4
    assert (out.to_numpy() == 0).all()


@pytest.mark.parametrize("two_sided", [False, True])
def test_typed_empty_bucket_error_raises(ray_session, two_sided):
    """An exception from ``fn`` on a 0-row bucket that has its columns
    is a bug in ``fn``: it re-raises instead of emitting 0 rows."""
    from dygiepp_ray.core import hash_coexchange

    ds = rd.from_pandas(pd.DataFrame({"k": ["same"] * 10, "v": range(10)}))

    def fn(g, *_):
        if len(g) == 0:
            assert list(g.columns) == ["k", "v"]  # typed, not column-less
            raise ValueError("fn failed on a typed empty bucket")
        return g

    with pytest.raises(ValueError, match="typed empty bucket"):
        if two_sided:
            hash_coexchange(ds, ds, "k", "k", fn, 4)
        else:
            hash_exchange(ds, "k", fn, 4)


def test_hash_coexchange_one_side_zero_blocks(ray_session):
    """A zero-block side must not crash the merge; fn still sees the
    live side (e.g. label carry-forward patterns)."""
    from dygiepp_ray.core import hash_coexchange

    a = pd.DataFrame({"id": np.arange(20, dtype=np.int64)})
    live = rd.from_pandas(a).repartition(2)
    dead = rd.from_items([])

    def fn(ad, bd):
        if len(ad) == 0 or "id" not in ad.columns:
            return pd.DataFrame({"id": pd.Series(dtype=np.int64)})
        return ad[["id"]]

    out = hash_coexchange(live, dead, "id", "id", fn, 4).to_pandas()
    assert sorted(out["id"]) == list(range(20))


def test_hash_coexchange_empty_bucket_guard(ray_session):
    """The merge kernel enforces the empty-tolerance contract centrally:
    a fn that blows up on column-less empty buckets still completes
    when both sides of that bucket are empty."""
    import pyarrow as pa

    import ray

    from dygiepp_ray.core import hash_coexchange

    a = pd.DataFrame({"id": np.int64([7] * 5), "x": range(5)})
    b = pa.table({"id": np.int64([7] * 3), "y": range(3)})
    # the b side leads with a column-less empty block (what Ray Data's
    # map_batches emits for an empty input block), so every bucket
    # without b rows gets a column-less b side
    b_side = rd.from_arrow([pa.table({}), b])

    def fn(ad, bd):
        # no hand-guard: raises KeyError on empty buckets missing columns
        return ad.merge(bd, on="id")

    out = hash_coexchange(rd.from_pandas(a), b_side, "id", "id", fn, 16)
    blocks = [ray.get(ref) for bundle in out.iter_internal_ref_bundles()
              for ref, _ in bundle.blocks]
    assert sum(t.num_rows for t in blocks) == 15
    # fn raised on the 15 empty buckets; each emitted side a's 0 rows
    empty = [t for t in blocks if t.num_rows == 0]
    assert len(empty) == 15
    assert all(t.column_names == ["id", "x"] for t in empty)


class _SplitSpy:
    """Stands in for ``core._split``: logs each launch's bucket count."""

    def __init__(self, kernel, log):
        self._kernel, self._log = kernel, log

    def options(self, **kw):
        spy = self

        class Launch:
            def remote(self, key, num_buckets, *rest):
                spy._log.append(("split", num_buckets))
                return spy._kernel.options(**kw).remote(key, num_buckets, *rest)

        return Launch()


class _MergeSpy:
    """Stands in for ``core._merge``: logs each launch's ``n_a`` and its
    part count."""

    def __init__(self, kernel, log):
        self._kernel, self._log = kernel, log

    def remote(self, fn, fn_format, n_a, *parts):
        self._log.append((n_a, len(parts)))
        return self._kernel.remote(fn, fn_format, n_a, *parts)


@pytest.mark.parametrize("zero_blocks", [False, True])
def test_one_merge_per_bucket(ray_session, monkeypatch, zero_blocks):
    """Both exchanges launch exactly one merge kernel per bucket, also
    over zero blocks (each bucket then has no parts)."""
    import dygiepp_ray.core as core
    from dygiepp_ray.core import hash_coexchange

    log = []
    monkeypatch.setattr(core, "_merge", _MergeSpy(core._merge, log))
    ds = rd.from_items([]) if zero_blocks else rd.from_pandas(
        pd.DataFrame({"k": [f"g{i}" for i in range(50)]})).repartition(3)

    def first(g, *_):
        return g

    hash_exchange(ds, "k", first, 8)
    assert [n_a for n_a, _ in log] == [-1] * 8
    assert all(n_parts == 0 for _, n_parts in log) == zero_blocks
    log.clear()
    hash_coexchange(ds, ds, "k", "k", first, 8)
    assert len(log) == 8
    assert all(n_parts == 0 if zero_blocks else 0 < n_a < n_parts
               for n_a, n_parts in log)
    log.clear()
    hash_exchange(ds, "k", first)  # auto: the start count
    assert len(log) == core._bucket_range(None)[0]


def test_auto_exchange_streams_splits(ray_session, monkeypatch):
    """VERDICT r3 #3: on the auto-sized path, split tasks must launch
    BEFORE the upstream block stream is fully consumed (no
    collect-all-metadata pass)."""
    import pyarrow as pa

    import ray

    import dygiepp_ray.core as core

    log = []
    monkeypatch.setattr(core, "_split", _SplitSpy(core._split, log))

    def blocks():
        for i in range(6):
            log.append(("pull", i))
            tbl = pa.table({"k": [f"g{i}"] * 10, "v": list(range(10))})
            # huge nominal size so every block gets its own split group
            yield ray.put(tbl), core.TARGET_SPLIT_BYTES

    start, cap = core._bucket_range(None)
    B, gens = core._stream_gens(blocks(), "k", start, cap)
    assert B == start and gens
    first_split = log.index(("split", start))
    last_pull = max(i for i, e in enumerate(log) if e[0] == "pull")
    assert first_split < last_pull, log


def test_auto_exchange_doubling_generations(ray_session, monkeypatch):
    """Forced generation doubling (tiny TARGET_BUCKET_BYTES): the
    reconciled exchange result must equal the plain groupby."""
    import dygiepp_ray.core as core

    monkeypatch.setattr(core, "TARGET_BUCKET_BYTES", 2048)
    monkeypatch.setattr(core, "MAX_AUTO_BUCKETS", 32)
    monkeypatch.setattr(core, "MERGE_FANIN", 4)  # deep ladders too
    monkeypatch.setattr(core, "MAX_SPLIT_GROUP_BLOCKS", 2)  # many groups
    df = pd.DataFrame(
        {"k": [f"g{i % 23}" for i in range(3000)], "v": range(3000)}
    )
    out_ds = hash_exchange(
        rd.from_pandas(df).repartition(24), "k",
        lambda g: g.groupby("k", sort=False)["v"].sum().reset_index(),
    )
    assert out_ds.num_blocks() > core.MIN_AUTO_BUCKETS  # doubling happened
    out = out_ds.to_pandas()
    assert dict(zip(out["k"], out["v"])) == df.groupby("k")["v"].sum().to_dict()


def test_auto_coexchange_mismatched_generations(ray_session, monkeypatch):
    """Auto-sized two-sided exchange where the sides settle on different
    bucket counts: reconciliation to max(B_a, B_b) must keep the join
    exact."""
    import dygiepp_ray.core as core
    from dygiepp_ray.core import hash_coexchange

    monkeypatch.setattr(core, "TARGET_BUCKET_BYTES", 2048)
    monkeypatch.setattr(core, "MAX_AUTO_BUCKETS", 32)
    monkeypatch.setattr(core, "MAX_SPLIT_GROUP_BLOCKS", 2)
    a = pd.DataFrame({"id": np.arange(2000, dtype=np.int64) % 97,
                      "x": np.arange(2000, dtype=np.int64)})
    b = pd.DataFrame({"key": np.arange(97, dtype=np.int64),
                      "y": np.arange(97, dtype=np.int64) * 3})

    def join(ad, bd):
        if (len(ad) == 0 or "id" not in ad.columns
                or len(bd) == 0 or "key" not in bd.columns):
            return pd.DataFrame({c: pd.Series(dtype=np.int64)
                                 for c in ("id", "x", "y")})
        return ad.merge(bd.rename(columns={"key": "id"}), on="id")

    out = hash_coexchange(
        rd.from_pandas(a).repartition(16), rd.from_pandas(b).repartition(2),
        "id", "key", join,
    ).to_pandas()
    expect = a.merge(b.rename(columns={"key": "id"}), on="id")
    assert len(out) == len(expect) == 2000
    assert out["y"].sum() == expect["y"].sum()


def test_hash_exchange_auto_buckets_default(ray_session):
    """num_buckets=None derives the bucket count; tiny input -> floor."""
    import dygiepp_ray.core as core

    df = pd.DataFrame({"k": [f"g{i % 9}" for i in range(300)], "v": range(300)})
    out_ds = hash_exchange(
        rd.from_pandas(df).repartition(6), "k",
        lambda g: g.groupby("k", sort=False)["v"].sum().reset_index(),
    )
    assert out_ds.num_blocks() == core._bucket_range(None)[0]
    out = out_ds.to_pandas()
    assert dict(zip(out["k"], out["v"])) == df.groupby("k")["v"].sum().to_dict()


@pytest.mark.parametrize("resources,start", [
    ({"CPU": 1.0}, 1), ({"CPU": 3.0}, 2), ({"CPU": 32.0}, 8), ({}, 8),
])
def test_auto_start_capped_by_cluster_cpus(ray_session, monkeypatch, resources, start):
    """Auto starts at min(MIN_AUTO_BUCKETS, cluster CPUs) rounded down to
    a power of two (MIN_AUTO_BUCKETS without a CPU entry); the cap is
    unchanged, and every start divides it so re-splits stay exact."""
    import ray

    import dygiepp_ray.core as core

    assert core._bucket_range(None) == (4, 1024)  # the 4-CPU session
    monkeypatch.setattr(ray, "cluster_resources", lambda: resources)
    assert core._bucket_range(None) == (start, 1024)
    assert core._bucket_range(16) == (16, 16)


def test_grouped_split_bounds_driver_refs(ray_session, monkeypatch):
    """Two-level split: one split task per GROUP of blocks, the driver
    holds at most MERGE_FANIN refs per bucket, and a 2k-block exchange
    still produces exact results with a small merge fan-in (tree depth
    > 1)."""
    import dygiepp_ray.core as core

    n_blocks = 2048
    monkeypatch.setattr(core, "MERGE_FANIN", 8)
    monkeypatch.setattr(core, "MAX_SPLIT_GROUP_BLOCKS", 16)
    df = pd.DataFrame(
        {"k": [f"g{i % 11}" for i in range(n_blocks)], "v": range(n_blocks)}
    )
    ds = rd.from_pandas(df).repartition(n_blocks).materialize()
    assert ds.num_blocks() >= 2000

    log = []
    monkeypatch.setattr(core, "_split", _SplitSpy(core._split, log))
    splits = core.split_refs(ds, "k", 4)
    assert 0 < len(log) <= -(-n_blocks // 16)  # ceil: one launch per GROUP
    assert len(splits) == 4
    assert all(0 < len(refs) <= core.MERGE_FANIN for refs in splits)

    def fn(g):
        return g.groupby("k", sort=False)["v"].sum().reset_index()

    out = hash_exchange(ds, "k", fn, num_buckets=4).to_pandas()
    assert dict(zip(out["k"], out["v"])) == df.groupby("k")["v"].sum().to_dict()


def test_grouped_pair_indices_matches_triu_bruteforce():
    """Property: the vectorized within-group expansion equals per-group
    np.triu_indices for random run structures, including empty input,
    all-singletons, and one giant run."""
    from dygiepp_ray.core import grouped_pair_indices

    rs = np.random.RandomState(5)
    cases = [np.array([], dtype=np.int64),
             np.array([7], dtype=np.int64),
             np.arange(10, dtype=np.int64),          # all singletons
             np.zeros(40, dtype=np.int64)]           # one giant run
    for _ in range(20):
        runs = rs.randint(1, 6, size=rs.randint(1, 8))
        cases.append(np.repeat(np.arange(len(runs)), runs))
    for g in cases:
        li, rj = grouped_pair_indices(g)
        got = set(zip(li.tolist(), rj.tolist()))
        exp = set()
        start = 0
        for k in range(len(g) + 1):
            if k == len(g) or (k > 0 and g[k] != g[k - 1]):
                n = k - start
                a, b = np.triu_indices(n, k=1)
                exp |= {(int(i) + start, int(j) + start) for i, j in zip(a, b)}
                start = k
        assert got == exp, g
