"""The flagship KG-construction pipeline (BASELINE.json north_star).

transcripts --assemble (conv_id shuffle)--> documents
          --extract (vectorized map_batches)--> predicted documents
          --explode--> mentions / relations / triggers / args / clusters
          --canonicalize (salted 2-phase aggregate)--> entities
          --triples (combiner + keyed dedup)--> (subj, pred, obj) triples
          --write (partitioned parquet + manifest)--> graph store

Every edge is a lazy Ray Data Dataset; nothing materializes the full
corpus.  ``KGPipeline.triples()`` runs assemble -> triples inside the
tasks of one conv_id exchange, and ``KGPipeline.run_all`` runs
assemble -> write inside the tasks of one conv_id exchange whose
buckets are the store's partitions.
Reference lifecycle analogue: SURVEY.md §3.1 (allennlp predict).
"""

from __future__ import annotations

import functools
import os
from dataclasses import replace as _cfg_replace

import numpy as np
import pyarrow as pa
import ray.data

from ..core import hash_exchange, stable_bucket
from ..semantics import DEFAULT_CONFIG, ExtractionConfig
from ..sources.transcripts import documents_as_transcripts, read_transcripts
from ..stages import explode
from ..stages.assemble import assemble_bucket, assemble_documents
from ..stages.canonicalize import (
    NUM_SALTS, SALTED_SCHEMA, canonicalize, merge_final, merge_salted,
    salted_partials,
)
from ..stages.collate import collate, explode_sentences, uncollate_predictions
from ..stages.extract import EncoderExtractStage, batch_extractor, extract
from ..stages.triples import (
    TRIPLE_SCHEMA, conv_local_triples, triples_from_relations,
)
from ..state.checkpoint import (
    complete_manifest, finish_table, missing_partitions, partition_of,
    prepare_table, write_part, write_partitioned,
)


# the extraction task whose annotations each graph store table is built from
_TABLE_TASK = {"triples": "relations", "clusters": "coref", "entities": "ner"}

# attributes _build sets; the first read of any of them builds the lineage
_LINEAGE = frozenset({
    "documents", "predicted", "mentions", "relations", "triggers",
    "event_args", "_clusters", "_clusters_fn",
})


def _in_buckets(tbl: pa.Table, buckets: list[int], num_partitions: int) -> pa.Table:
    """The rows whose conv_id hashes to one of ``buckets``."""
    conv = tbl["conv_id"].to_numpy(zero_copy_only=False)
    return tbl.filter(np.isin(stable_bucket(conv, num_partitions), buckets))


class KGPipeline:
    """Composable handle over the pipeline's intermediate Datasets.

    The lineage (``documents``, ``predicted``, ``mentions``, ...,
    ``entities()``, ``clusters``) is built lazily on first read;
    ``num_buckets`` (the assembly exchange) and the ``extract_*``
    actor-pool arguments apply to it.  On the direct path ``triples()``
    and ``run_all`` do not read the lineage.  Each runs one conv_id
    exchange whose tasks do the whole job with stateless extraction of
    only the tasks their outputs read: ``triples()`` at ``num_buckets``
    buckets, ``run_all`` at the store's partition count (bucket =
    partition).

    ``collate_extract=True`` runs the GPU-shaped deployment of the
    north star: sentences are length-sorted and bin-packed into
    pseudo-documents under a span budget (``stages/collate.py``,
    reference ``scripts/data/shared/collate.py:26-66``), extraction
    runs as a heavy-state actor pool (``EncoderExtractStage`` — ~50 MB
    of per-actor encoder state, the model-weights analogue) over the
    packed batches, and predictions are projected back onto the
    original documents in ONE pass (``uncollate_predictions``: a single
    doc_key exchange over the tall annotation union — the extraction
    lineage executes exactly once and the full annotated corpus is
    never materialized).  Annotation output is identical to the direct
    path for the sentence-level tasks (test-enforced); coref clusters
    are derived lazily from the projected mentions
    (``stages.coref.clusters_from_mentions`` — one more doc_key
    exchange, NOT a second extraction pass)."""

    def __init__(
        self,
        transcripts: ray.data.Dataset,
        cfg: ExtractionConfig = DEFAULT_CONFIG,
        num_buckets: int = 64,
        extract_concurrency: int | tuple[int, int] | None = None,
        collate_extract: bool = False,
        extract_num_gpus: float | None = None,
        extract_batch_size: int | None = None,
    ):
        self.cfg = cfg
        self.transcripts = transcripts
        self.collated = collate_extract
        # kept so run_all can rebuild the lineage over a filtered input
        self._kw = dict(
            num_buckets=num_buckets,
            extract_concurrency=extract_concurrency,
            collate_extract=collate_extract,
            extract_num_gpus=extract_num_gpus,
            extract_batch_size=extract_batch_size,
        )

    def __getattr__(self, name: str):
        # the lineage is built on first use (the assembly exchange is
        # eager), so a run_all that finds every table complete reads no
        # input at all
        if name not in _LINEAGE:
            raise AttributeError(name)
        self._build()
        return self.__dict__[name]

    def _build(self) -> None:
        cfg, kw = self.cfg, self._kw
        # _clusters/_clusters_fn are set last: a build that raises in an
        # eager exchange leaves them unset, so the next read rebuilds
        self.documents = assemble_documents(
            self.transcripts, cfg, kw["num_buckets"]
        )
        if self.collated:
            pseudo = collate(
                explode_sentences(self.documents), dataset=cfg.dataset
            )
            sent_tasks = tuple(t for t in cfg.tasks if t != "coref")
            # clusters derive from projected MENTIONS, so coref forces
            # ner extraction even when the caller didn't request it
            # (the direct path computes mentions unconditionally inside
            # ExtractStage.__call__ — same semantics)
            if "coref" in cfg.tasks and "ner" not in sent_tasks:
                sent_tasks = ("ner",) + sent_tasks
            sent_cfg = _cfg_replace(cfg, tasks=sent_tasks)
            self.predicted = extract(
                pseudo, sent_cfg,
                concurrency=kw["extract_concurrency"] or 2,
                num_gpus=kw["extract_num_gpus"],
                batch_size=kw["extract_batch_size"],
                stage_cls=EncoderExtractStage,
            )
            # ONE doc_key exchange projects every annotation type back
            # onto the original docs — the extraction lineage executes
            # exactly once inside it and only flattened annotations
            # (no token lists) enter the object store (VERDICT r3 #1a)
            tables = uncollate_predictions(self.predicted, self.documents)
            self.mentions = tables["ner"]
            self.relations = tables["relations"]
            self.triggers = tables["triggers"]
            self.event_args = tables["event_args"]
            self._clusters = self._clusters_fn = None
            # coref is document-scoped; derive clusters lazily from the
            # already-projected mentions (one more doc_key exchange, NOT
            # a second full extraction pass — VERDICT r3 #1b)
            if "coref" in cfg.tasks:
                from ..stages.coref import clusters_from_mentions

                self._clusters_fn = lambda: clusters_from_mentions(self.mentions)
            return
        self.predicted = extract(
            self.documents, cfg, concurrency=kw["extract_concurrency"]
        )
        # the predicted docs feed several consumers; fan-out re-executes the
        # lineage per consumer unless the caller materializes small runs
        self.mentions = explode.mentions_table(self.predicted)
        self.relations = explode.relations_table(self.predicted)
        self.triggers = explode.triggers_table(self.predicted)
        self.event_args = explode.event_args_table(self.predicted)
        self._clusters_fn = None
        # extraction emits no cluster_members column when coref is off
        self._clusters = (
            explode.clusters_table(self.predicted)
            if "coref" in cfg.tasks else None
        )

    @property
    def clusters(self) -> ray.data.Dataset | None:
        """Cluster-members table (None when 'coref' is not in cfg.tasks).
        On the collated path this builds lazily on first access — the
        mentions exchange is eager, so eagerly deriving clusters at
        construction would tax pipelines that never read them."""
        if self._clusters is None and self._clusters_fn is not None:
            self._clusters = self._clusters_fn()
            self._clusters_fn = None
        return self._clusters

    @clusters.setter
    def clusters(self, ds) -> None:
        self._clusters = ds
        self._clusters_fn = None

    def entities(self, num_salts: int = NUM_SALTS) -> ray.data.Dataset:
        return canonicalize(self.mentions, num_salts=num_salts)

    def triples(self) -> ray.data.Dataset:
        """Deduped (conv, subj, pred, obj) triples with content-addressed
        entity ids (``TRIPLE_SCHEMA``).

        On the direct path this is ONE conv_id exchange at
        ``num_buckets`` whose tasks assemble, extract, explode and dedup
        their conversations (``_triples_bucket``): a bucket holds each of
        its conversations whole, and the conversation is the triple
        key's prefix, so the bucket-local dedup is global.  Extraction
        runs only the ``relations`` task, the one the triples read.  The
        exchange is eager: everything runs inside this call, and no
        lineage is built.  The ``extract_*`` arguments apply only on the
        collated path, which partitions relations by doc_key (not
        conv_id) and so dedups through the general keyed exchange."""
        if self.collated:
            return triples_from_relations(self.relations)
        return hash_exchange(
            self.transcripts, "conv_id",
            functools.partial(_triples_bucket, cfg=_narrow(self.cfg, {"relations"})),
            num_buckets=self._kw["num_buckets"], fn_format="pyarrow",
        )

    def run_all(self, out_dir: str, num_partitions: int = 32) -> dict:
        """The full graph store under ``out_dir``: triples and clusters
        partitioned on ``conv_id`` into ``num_partitions``, entities on
        ``surface`` into ``max(4, num_partitions // 8)``.  Returns the
        combined manifest.

        Bucket = partition.  On the direct path ONE conv_id exchange at
        ``num_partitions`` buckets gives each task one whole triples and
        clusters partition: it assembles, extracts and explodes its
        conversations, writes both partitions and returns its salted
        canonicalization partials.  One ``__skey`` exchange merges the
        partials, and the entities write's ``surface`` exchange runs the
        final merge per partition: three exchanges in all.
        ``num_buckets`` and the ``extract_*`` arguments do not apply
        there; the collated path (``collate_extract=True``, which packs
        sentences across conversations) writes the lazily built tables
        one by one.

        Resume decides per table before building any lineage.  A
        complete table (``checkpoint.complete_manifest``) is not
        written, and its manifest reports every part skipped.  When
        entities are incomplete, every conversation is extracted and
        finished partitions are skipped.  When only triples and/or
        clusters are incomplete, the input is filtered to the
        conversations whose ``stable_bucket(conv_id, num_partitions)``
        is missing from either table (both share partition ids), so
        extraction runs on the lost conversations only.  When every
        table is complete, no input is read."""
        tables = {
            "triples": ("conv_id", num_partitions),
            "entities": ("surface", max(4, num_partitions // 8)),
        }
        # no clusters table when 'coref' is not in cfg.tasks (both the
        # collated and direct paths)
        if "coref" in self.cfg.tasks:
            tables["clusters"] = ("conv_id", num_partitions)
        specs = {name: (os.path.join(out_dir, name), *spec)
                 for name, spec in tables.items()}
        manifests = {name: complete_manifest(*spec) for name, spec in specs.items()}
        todo = {name: spec for name, spec in specs.items() if manifests[name] is None}
        if not todo:
            return manifests
        src = self.transcripts
        if "entities" not in todo:
            lost = set().union(*(missing_partitions(*spec) for spec in todo.values()))
            src = src.map_batches(
                _in_buckets, fn_args=(sorted(lost), num_partitions),
                batch_format="pyarrow",
            )
        if not self.collated:
            manifests.update(_run_all_direct(self.cfg, src, todo, num_partitions))
            return manifests
        pipe = self if src is self.transcripts else KGPipeline(src, self.cfg, **self._kw)
        outputs = {
            "triples": pipe.triples,
            "entities": pipe.entities,
            "clusters": lambda: pipe.clusters,
        }
        for name, spec in todo.items():
            manifests[name] = write_partitioned(outputs[name](), *spec)
        return manifests


def _narrow(cfg: ExtractionConfig, needed: set[str]) -> ExtractionConfig:
    """``cfg`` extracting only the tasks in ``needed``.  Extraction
    computes mentions whatever ``tasks`` holds, and each task reads the
    tokens and mentions, never another task's output; ``tasks`` only
    gates which annotation columns are computed and emitted.  So the
    kept tasks' rows are unchanged."""
    return _cfg_replace(cfg, tasks=tuple(t for t in cfg.tasks if t in needed))


def _local_triples(pred: pa.Table) -> pa.Table:
    """Deduped triples of extracted documents that hold each of their
    conversations whole."""
    return conv_local_triples(explode.explode_block(pred, "relations"))


def _triples_bucket(tbl: pa.Table, cfg: ExtractionConfig) -> pa.Table:
    """One conv_id bucket of ``KGPipeline.triples()``: the deduped
    triples of every conversation whose turns it holds."""
    docs = assemble_bucket(tbl, cfg)
    if docs.num_rows == 0:
        return TRIPLE_SCHEMA.empty_table()
    return _local_triples(batch_extractor(cfg)(docs))


def _graph_bucket(
    tbl: pa.Table, cfg: ExtractionConfig, num_partitions: int, writes: list,
    partials: bool,
) -> pa.Table:
    """One conv_id bucket of ``run_all``'s exchange at ``num_partitions``
    buckets: every turn of its conversations, so exactly one triples and
    one clusters partition.  Writes the tables in ``writes`` ((name, dir,
    done)) and returns the salted canonicalization partials of its
    mentions (none when ``partials`` is False)."""
    docs = assemble_bucket(tbl, cfg)
    if docs.num_rows == 0:
        return SALTED_SCHEMA.empty_table()
    pred = batch_extractor(cfg)(docs)
    rows = {
        "triples": lambda: _local_triples(pred),
        "clusters": lambda: explode.explode_block(pred, "cluster_members"),
    }
    part = partition_of(tbl["conv_id"][:1].to_pylist(), num_partitions)
    for name, out_dir, done in writes:
        if part not in done:
            write_part(rows[name](), out_dir, "conv_id", num_partitions, done)
    if not partials:
        return SALTED_SCHEMA.empty_table()
    return salted_partials(explode.explode_block(pred, "ner"))


def _run_all_direct(
    cfg: ExtractionConfig, src: ray.data.Dataset, todo: dict, num_partitions: int
) -> dict:
    """Write each table of ``todo`` (name -> (dir, key, partitions))
    with the fused conv_id exchange of ``KGPipeline.run_all``."""
    # every layout is checked before anything is written
    done = {name: prepare_table(*spec) for name, spec in todo.items()}
    writes = [(name, todo[name][0], done[name])
              for name in ("triples", "clusters") if name in todo]
    cfg = _narrow(cfg, {_TABLE_TASK[name] for name in todo})
    salted = hash_exchange(
        src, "conv_id",
        functools.partial(_graph_bucket, cfg=cfg, num_partitions=num_partitions,
                          writes=writes, partials="entities" in todo),
        num_buckets=num_partitions, fn_format="pyarrow",
    )
    out = {name: finish_table(*todo[name], done[name]) for name, *_ in writes}
    if "entities" in todo:
        phase1 = hash_exchange(salted, "__skey", merge_salted, fn_format="pyarrow")
        out["entities"] = write_partitioned(phase1, *todo["entities"], fn=merge_final)
    return out


def from_parquet(
    path: str, cfg: ExtractionConfig = DEFAULT_CONFIG, **kw
) -> KGPipeline:
    return KGPipeline(read_transcripts(path), cfg, **kw)


def from_documents_table(
    sf_dir: str, cfg: ExtractionConfig = DEFAULT_CONFIG, **kw
) -> KGPipeline:
    return KGPipeline(documents_as_transcripts(sf_dir, cfg), cfg, **kw)
