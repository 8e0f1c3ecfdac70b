"""Joint extraction stage (SURVEY.md §2.2 M2, §2.3 T3/T5/T6/T7, T10/F6).

``documents -> documents + predicted annotations`` as ONE vectorized
``map_batches`` over Arrow doc rows.  Per batch the whole token stream is
flattened into numpy arrays once (the row<->columnar pivot the reference
does per-document in ``fields_to_batches``,
``dygie/models/shared.py:28-68``); every scorer below is an Arrow/numpy
kernel over those arrays, and results are regrouped into per-document
list<struct> columns via offset arithmetic — no per-row Python in the
hot path.

Semantics (shared with the oracle via ``semantics.py``):

* span enumeration of width <= max_span_width per sentence (M2,
  ``dygie.py:121-126``) — realized lazily: with the entity-beam pruner
  (``entity_beam_pruner.py:14-24``) only spans whose best class score
  beats the null class survive decode, and under the deterministic
  lexicon scorer those are exactly the lexicon-surface spans, so the
  engine enumerates candidates by lexicon width instead of scoring all
  O(n * W) spans.  (The oracle scores all spans exhaustively and must
  agree — that equivalence is the parity test.)
* NER decode: dummy null prepended, softmax, argmax != 0, scores
  rounded to 4 decimals (``ner.py:99-150``, ``document.py:10-11``).
* Relations: ordered pairs of kept spans in the same sentence with
  exactly one token between; decode with the label -1 shift
  (``relation.py:136-180,245-247``).
* Events: per-token trigger scores; arguments = kept entity spans
  within ARG_MAX_DIST of the trigger, AGENT before / PATIENT after
  (``events.py:115-314``), args sorted by start (``events.py:394``).
* Coref: with ``max_antecedents`` >= the per-window mention bound
  (flagship config), exact-surface antecedent chains reduce to
  same-surface-within-window clusters — computed as a vectorized
  groupby.  A reference-control-flow fallback
  (``reference_mode=True``) runs the oracle's per-document loop for
  small/parity workloads (top-k pruning O1/O2 and antecedent caps O4).
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .. import semantics as S
from ..semantics import DEFAULT_CONFIG, ExtractionConfig

_LOG = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# annotation struct types (FIXTURES.md F3/F4; doc-level token offsets,
# inclusive ends, like the reference wire format doc/data.md:35-90)
# ---------------------------------------------------------------------------

MENTION_T = pa.struct(
    [
        ("sent_ix", pa.int32()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("label", pa.string()),
        ("raw", pa.float32()),
        ("softmax", pa.float32()),
        ("surface", pa.string()),
    ]
)
RELATION_T = pa.struct(
    [
        ("sent_ix", pa.int32()),
        ("s1", pa.int32()),
        ("e1", pa.int32()),
        ("s2", pa.int32()),
        ("e2", pa.int32()),
        ("label", pa.string()),
        ("raw", pa.float32()),
        ("softmax", pa.float32()),
        ("subj", pa.string()),
        ("obj", pa.string()),
    ]
)
TRIGGER_T = pa.struct(
    [
        ("sent_ix", pa.int32()),
        ("tok", pa.int32()),
        ("label", pa.string()),
        ("raw", pa.float32()),
        ("softmax", pa.float32()),
    ]
)
ARGUMENT_T = pa.struct(
    [
        ("sent_ix", pa.int32()),
        ("trig_tok", pa.int32()),
        ("event_type", pa.string()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("role", pa.string()),
        # predicted args carry scores in the reference wire format
        # ([start, end, role, raw, softmax] — doc/data.md:115,
        # document.py:490-497 reads arg[3]/arg[4])
        ("raw", pa.float32()),
        ("softmax", pa.float32()),
        ("surface", pa.string()),
    ]
)
CLUSTER_MEMBER_T = pa.struct(
    [
        ("cluster_ix", pa.int32()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("surface", pa.string()),
    ]
)


def _const_scores(n_labels: int) -> tuple[float, float]:
    """(raw, softmax) of a lexicon hit — identical for every hit under the
    deterministic scorer; computed through the shared decode path so the
    engine can never drift from the oracle."""
    raw = [S.NEG_RAW] * n_labels
    raw[0] = S.LEX_RAW
    _, r, p = S.softmax_with_dummy(raw)
    return S.round_score(r), S.round_score(p)


def _doc_list_column(
    doc_ix: np.ndarray, n_docs: int, struct_arr: pa.StructArray
) -> pa.ListArray:
    """Group struct rows (sorted by doc_ix) into one list per document."""
    offsets = np.searchsorted(doc_ix, np.arange(n_docs + 1)).astype(np.int32)
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), struct_arr)


class ExtractStage:
    """Actor-pool callable: lexicon index + compiled constants built once
    per actor (__init__), vectorized extraction per batch (__call__).
    The reference analogue is the model constructor loading weights once
    (``models/dygie.py:56-138``); swap the lexicon for a model and
    ``num_gpus`` for the GPU-pool variant."""

    def __init__(self, cfg: ExtractionConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        widths = [w for w in S.LEXICON_WIDTHS if w <= cfg.max_span_width]
        self.lex_by_width = {
            w: pd.Index([s for s in S.ENTITY_LEXICON if s.count(" ") + 1 == w])
            for w in widths
        }
        # prefix filter for multi-token phrase matching
        self.first_words = {
            w: pd.Index({s.split(" ", 1)[0] for s in idx})
            for w, idx in self.lex_by_width.items()
            if w > 1
        }
        self.label_map = {s: lab for s, lab in S.ENTITY_LEXICON.items()}
        self.pred_index = pd.Index(S.PRED_WORDS)
        self.ner_raw, self.ner_soft = _const_scores(len(cfg.labels))
        self.rel_raw, self.rel_soft = _const_scores(len(cfg.preds))
        self.trig_raw, self.trig_soft = _const_scores(len(cfg.preds))
        self.arg_raw, self.arg_soft = _const_scores(len(S.ARG_ROLES))

    # -- flattening ---------------------------------------------------------

    def _flatten(self, tbl: pa.Table):
        sents = tbl["sentences"]
        if isinstance(sents, pa.ChunkedArray):
            sents = sents.combine_chunks()
        outer_off = np.asarray(sents.offsets)              # docs -> sentences
        outer_off = outer_off - outer_off[0]               # sliced arrays keep base offsets
        inner = sents.flatten()                             # list<string> per sentence
        inner_off = np.asarray(inner.offsets)               # sentences -> tokens
        inner_off = inner_off - inner_off[0]
        tokens = np.asarray(inner.flatten().to_pandas(), dtype=object)
        n_docs = len(sents)
        n_sents = len(inner)
        n_toks = len(tokens)
        sent_of_tok = np.repeat(
            np.arange(n_sents), np.diff(inner_off)
        ) if n_sents else np.empty(0, np.int64)
        doc_of_sent = np.repeat(
            np.arange(n_docs), np.diff(outer_off)
        ) if n_docs else np.empty(0, np.int64)
        doc_tok_off = inner_off[outer_off]                  # docs -> token offsets
        doc_of_tok = doc_of_sent[sent_of_tok] if n_toks else np.empty(0, np.int64)
        pos_in_doc = np.arange(n_toks) - doc_tok_off[doc_of_tok] if n_toks else np.empty(0, np.int64)
        sent_ix_in_doc = (
            np.arange(n_sents) - outer_off[doc_of_sent] if n_sents else np.empty(0, np.int64)
        )
        return dict(
            tokens=tokens, n_docs=n_docs, sent_of_tok=sent_of_tok,
            doc_of_tok=doc_of_tok, pos_in_doc=pos_in_doc,
            sent_ix_in_doc=sent_ix_in_doc, doc_tok_off=doc_tok_off,
        )

    # -- mention detection (M2 + T3 + beam prune + decode) ------------------

    def _mentions(self, fl) -> pd.DataFrame:
        tokens, sent_of_tok = fl["tokens"], fl["sent_of_tok"]
        doc_of_tok, pos_in_doc = fl["doc_of_tok"], fl["pos_in_doc"]
        parts = []
        tok_series = pd.Series(tokens, dtype=object)
        for w, lex in self.lex_by_width.items():
            if len(tokens) < w:
                continue
            if w == 1:
                mask = tok_series.isin(lex).to_numpy()
                starts = np.flatnonzero(mask)
                surf = tokens[starts]
            else:
                head_mask = tok_series.isin(self.first_words[w]).to_numpy()
                head_mask[len(tokens) - w + 1 :] = False
                cand = np.flatnonzero(head_mask)
                # same-sentence constraint
                cand = cand[sent_of_tok[cand] == sent_of_tok[cand + w - 1]]
                if len(cand) == 0:
                    continue
                surf = tokens[cand].copy()
                for k in range(1, w):
                    surf = surf + " "
                    surf = surf + tokens[cand + k]
                hit = pd.Series(surf, dtype=object).isin(lex).to_numpy()
                starts, surf = cand[hit], surf[hit]
            if len(starts) == 0:
                continue
            parts.append(
                pd.DataFrame(
                    {
                        "doc_ix": doc_of_tok[starts],
                        "sent_ix": fl["sent_ix_in_doc"][sent_of_tok[starts]],
                        "start": pos_in_doc[starts],
                        "end": pos_in_doc[starts] + w - 1,
                        "surface": surf,
                    }
                )
            )
        if not parts:
            return pd.DataFrame(
                columns=["doc_ix", "sent_ix", "start", "end", "surface", "label"]
            ).astype({"doc_ix": np.int64, "sent_ix": np.int64, "start": np.int64, "end": np.int64})
        m = pd.concat(parts, ignore_index=True)
        # span-enumeration order: (doc, sentence, start, end) — dygie.py:121-126
        m = m.sort_values(["doc_ix", "sent_ix", "start", "end"], kind="stable", ignore_index=True)
        m["label"] = m["surface"].map(self.label_map)
        return m

    # -- relations (T5 + decode) -------------------------------------------

    def _relations(self, fl, m: pd.DataFrame) -> pd.DataFrame:
        if len(m) == 0:
            return pd.DataFrame(
                columns=["doc_ix", "sent_ix", "s1", "e1", "s2", "e2", "label", "subj", "obj"]
            )
        subj = m[["doc_ix", "sent_ix", "start", "end", "surface"]].rename(
            columns={"start": "s1", "end": "e1", "surface": "subj"}
        )
        subj["obj_start"] = subj["e1"] + 2
        obj = m[["doc_ix", "sent_ix", "start", "end", "surface"]].rename(
            columns={"start": "obj_start", "end": "e2", "surface": "obj"}
        )
        pairs = subj.merge(obj, on=["doc_ix", "sent_ix", "obj_start"], how="inner")
        if len(pairs) == 0:
            return pd.DataFrame(
                columns=["doc_ix", "sent_ix", "s1", "e1", "s2", "e2", "label", "subj", "obj"]
            )
        pairs = pairs.rename(columns={"obj_start": "s2"})
        between_glob = fl["doc_tok_off"][pairs["doc_ix"].to_numpy()] + pairs["e1"].to_numpy() + 1
        between = fl["tokens"][between_glob]
        keep = pd.Series(between, dtype=object).isin(self.pred_index).to_numpy()
        pairs = pairs.loc[keep].reset_index(drop=True)
        pairs["label"] = between[keep]
        pairs = pairs.sort_values(
            ["doc_ix", "sent_ix", "s1", "e1", "s2", "e2"], kind="stable", ignore_index=True
        )
        return pairs[["doc_ix", "sent_ix", "s1", "e1", "s2", "e2", "label", "subj", "obj"]]

    # -- events (T7 + decode) ----------------------------------------------

    def _events(self, fl, m: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
        tokens = fl["tokens"]
        tmask = pd.Series(tokens, dtype=object).isin(self.pred_index).to_numpy()
        tpos = np.flatnonzero(tmask)
        trig = pd.DataFrame(
            {
                "doc_ix": fl["doc_of_tok"][tpos],
                "sent_ix": fl["sent_ix_in_doc"][fl["sent_of_tok"][tpos]],
                "tok": fl["pos_in_doc"][tpos],
                "label": tokens[tpos],
            }
        )
        if len(trig) == 0 or len(m) == 0:
            args = pd.DataFrame(
                columns=["doc_ix", "sent_ix", "trig_tok", "event_type", "start", "end", "role", "surface"]
            )
            return trig, args
        j = trig.rename(columns={"tok": "trig_tok", "label": "event_type"}).merge(
            m[["doc_ix", "sent_ix", "start", "end", "surface"]],
            on=["doc_ix", "sent_ix"], how="inner",
        )
        before = j["end"] < j["trig_tok"]
        after = j["start"] > j["trig_tok"]
        dist_ok = (before & (j["trig_tok"] - j["end"] <= S.ARG_MAX_DIST)) | (
            after & (j["start"] - j["trig_tok"] <= S.ARG_MAX_DIST)
        )
        j = j.loc[dist_ok].copy()
        j["role"] = np.where(j["end"] < j["trig_tok"], S.ARG_ROLES[0], S.ARG_ROLES[1])
        j = j.sort_values(
            ["doc_ix", "sent_ix", "trig_tok", "event_type", "start"],
            kind="stable", ignore_index=True,
        )  # args sorted by start within trigger (events.py:394)
        return trig, j

    # -- coref clusters (T6, flagship vectorized reduction) -----------------

    def _clusters(self, m: pd.DataFrame) -> pd.DataFrame:
        # shared decode convention with the mention-derived collated
        # path — one implementation, two group keys (stages/coref.py)
        from .coref import same_surface_reduction

        if len(m) == 0:
            return pd.DataFrame(columns=["doc_ix", "cluster_ix", "start", "end", "surface"])
        return same_surface_reduction(m, "doc_ix")

    # -- batch entry --------------------------------------------------------

    def __call__(self, tbl: pa.Table) -> pa.Table:
        n_docs = len(tbl)
        tasks = self.cfg.tasks
        fl = self._flatten(tbl)
        m = self._mentions(fl)

        def struct(df: pd.DataFrame, typ: pa.StructType, consts: dict) -> pa.StructArray:
            arrays, names = [], []
            for f in typ:
                names.append(f.name)
                if f.name in consts:
                    arrays.append(pa.array(np.full(len(df), consts[f.name]), f.type))
                else:
                    arrays.append(pa.array(df[f.name].to_numpy(), f.type))
            return pa.StructArray.from_arrays(arrays, names)

        out = tbl
        if "ner" in tasks:
            out = out.append_column(
                "ner",
                _doc_list_column(
                    m["doc_ix"].to_numpy(), n_docs,
                    struct(m, MENTION_T, {"raw": self.ner_raw, "softmax": self.ner_soft}),
                ),
            )
        if "relations" in tasks:
            rels = self._relations(fl, m)
            out = out.append_column(
                "relations",
                _doc_list_column(
                    rels["doc_ix"].to_numpy(), n_docs,
                    struct(rels, RELATION_T, {"raw": self.rel_raw, "softmax": self.rel_soft}),
                ),
            )
        if "events" in tasks:
            trig, args = self._events(fl, m)
            out = out.append_column(
                "triggers",
                _doc_list_column(
                    trig["doc_ix"].to_numpy(), n_docs,
                    struct(trig, TRIGGER_T, {"raw": self.trig_raw, "softmax": self.trig_soft}),
                ),
            )
            out = out.append_column(
                "event_args",
                _doc_list_column(
                    args["doc_ix"].to_numpy(), n_docs,
                    struct(args, ARGUMENT_T, {"raw": self.arg_raw, "softmax": self.arg_soft}),
                ),
            )
        if "coref" in tasks:
            cl = self._clusters(m)
            out = out.append_column(
                "cluster_members",
                _doc_list_column(cl["doc_ix"].to_numpy(), n_docs, struct(cl, CLUSTER_MEMBER_T, {})),
            )
        return out


class EncoderExtractStage(ExtractStage):
    """Heavy-per-actor-state deployment of the extraction stage — the
    GPU-actor-pool shape of the north star.

    ``__init__`` materializes a large embedding table once per actor
    (~50 MB at the defaults — the model-weights analogue of
    ``models/dygie.py:56-138`` loading a transformer); ``__call__``
    embeds the batch's whole token stream and runs a batched projection
    (the encoder's compute shape: one matmul per batch, no per-token
    Python) before the span decode.  The decode itself stays the shared
    deterministic scorer, so outputs remain bit-identical to
    ``ExtractStage`` and the oracle (SURVEY.md §7.2-2 stand-in
    discipline) — what this class exercises end to end is the
    heavy-state actor pool + collated batch shaping, with
    ``concurrency=N, num_gpus=g, batch_size=B`` sized to the fleet."""

    def __init__(
        self,
        cfg: ExtractionConfig = DEFAULT_CONFIG,
        vocab_hash: int = 100_003,
        embed_dim: int = 128,
        seed: int = 13,
    ):
        super().__init__(cfg)
        rs = np.random.RandomState(seed)
        # ~100k x 128 float32 = 51 MB, held for the actor's lifetime
        self.embedding_table = rs.normal(size=(vocab_hash, embed_dim)).astype(np.float32)
        self.projection = rs.normal(size=(embed_dim, embed_dim)).astype(np.float32)

    def _flatten(self, tbl: pa.Table):
        fl = super()._flatten(tbl)
        if len(fl["tokens"]):
            idx = (
                pd.util.hash_array(fl["tokens"], categorize=False)
                % np.uint64(len(self.embedding_table))
            ).astype(np.int64)
            fl["embeddings"] = self.embedding_table[idx] @ self.projection
        return fl


def _reference_mode(cfg: ExtractionConfig) -> bool:
    # the vectorized decode needs the entity beam and antecedent chains
    # long enough to reduce to same-surface clusters
    return not cfg.entity_beam or cfg.max_antecedents < cfg.max_tokens_per_doc


def batch_extractor(cfg: ExtractionConfig, stage_cls: type = ExtractStage):
    """The callable ``extract`` maps over document batches when it runs
    tasks: ``pa.Table`` of documents -> documents + annotation columns."""
    if _reference_mode(cfg):
        return ReferenceModeExtract(cfg)
    return stage_cls(cfg)


def extract(
    docs: ray.data.Dataset,
    cfg: ExtractionConfig = DEFAULT_CONFIG,
    batch_size: int | None = None,
    concurrency: int | tuple[int, int] | None = None,
    num_gpus: float | None = None,
    stage_cls: type = ExtractStage,
) -> ray.data.Dataset:
    """documents -> documents + predicted annotation columns.

    ``concurrency=None`` runs stateless tasks (the deterministic scorer
    is cheap to construct); pass an int for a fixed actor pool — the
    GPU-shaped deployment of the north star: use
    ``stage_cls=EncoderExtractStage`` (heavy state loaded once per
    actor, ``models/dygie.py:56-138`` analogue) and pass
    ``concurrency=N, num_gpus=1, batch_size=B`` sized to the fleet."""
    if concurrency is None or _reference_mode(cfg):
        return docs.map_batches(
            batch_extractor(cfg, stage_cls), batch_format="pyarrow",
            batch_size=batch_size,
        )
    # A CPU actor pool as wide as the CPU budget starves the upstream
    # read stage and deadlocks the streaming executor (no GPU pools:
    # their actors hold num_gpus, not the CPU slots the read needs).
    if not num_gpus and ray.is_initialized():
        cpus = int(ray.cluster_resources().get("CPU", 0))
        cap = max(1, cpus - 1)
        too_big = (
            max(concurrency) if isinstance(concurrency, tuple) else concurrency
        ) > cap
        if cpus and too_big:
            _LOG.warning(
                "extract: clamping actor-pool concurrency %s to %d "
                "(pool >= CPU budget starves the read stage)",
                concurrency, cap,
            )
            concurrency = (
                (min(concurrency[0], cap), cap)
                if isinstance(concurrency, tuple) else cap
            )
    kw = {}
    if num_gpus:
        kw["num_gpus"] = num_gpus
    return docs.map_batches(
        stage_cls, fn_constructor_args=(cfg,), batch_format="pyarrow",
        batch_size=batch_size, concurrency=concurrency, **kw,
    )


class ReferenceModeExtract:
    """Reference-control-flow path: per-document Python loop reusing the
    oracle's exact logic — used for top-k pruning (O1/O2) and small
    antecedent caps (O4), where the vectorized reduction doesn't apply.
    Parity workloads only; the flagship config takes the vectorized
    path."""

    def __init__(self, cfg: ExtractionConfig):
        self.cfg = cfg
        self.arg_raw, self.arg_soft = _const_scores(len(S.ARG_ROLES))

    def __call__(self, tbl: pa.Table) -> pa.Table:
        from ..oracle import OracleDoc, extract_document

        # honor cfg.tasks like ExtractStage: disabled tasks are neither
        # built nor emitted (the oracle forward pass still scores them
        # internally — parity path, not the hot path)
        tasks = self.cfg.tasks
        rows = tbl.to_pylist()
        anns = {"ner": [], "relations": [], "triggers": [], "event_args": [], "cluster_members": []}
        for r in rows:
            d = OracleDoc(
                doc_key=r["doc_key"], conv_id=r["conv_id"],
                sentences=r["sentences"], sentence_start=r["sentence_start"],
                turn_idx=r["turn_idx"], roles=r["roles"],
            )
            extract_document(d, self.cfg)
            flat = [t for s in d.sentences for t in s]
            if "ner" in tasks:
                anns["ner"].append(
                [
                    {"sent_ix": si, "start": a, "end": b, "label": lab,
                     "raw": raw, "softmax": soft, "surface": " ".join(flat[a : b + 1])}
                        for si, sent in enumerate(d.ner) for (a, b, lab, raw, soft) in sent
                    ]
                )
            if "relations" in tasks:
                anns["relations"].append(
                [
                    {"sent_ix": si, "s1": s1, "e1": e1, "s2": s2, "e2": e2, "label": lab,
                     "raw": raw, "softmax": soft,
                     "subj": " ".join(flat[s1 : e1 + 1]), "obj": " ".join(flat[s2 : e2 + 1])}
                        for si, sent in enumerate(d.relations)
                        for (s1, e1, s2, e2, lab, raw, soft) in sent
                    ]
                )
            if "events" in tasks:
                anns["triggers"].append(
                [
                    {"sent_ix": si, "tok": ev["trigger"][0], "label": ev["trigger"][1],
                     "raw": ev["trigger"][2], "softmax": ev["trigger"][3]}
                        for si, sent in enumerate(d.events) for ev in sent
                    ]
                )
                arg_raw, arg_soft = self.arg_raw, self.arg_soft
                anns["event_args"].append(
                [
                    {"sent_ix": si, "trig_tok": ev["trigger"][0], "event_type": ev["trigger"][1],
                     "start": a, "end": b, "role": role,
                     "raw": arg_raw, "softmax": arg_soft,
                     "surface": " ".join(flat[a : b + 1])}
                        for si, sent in enumerate(d.events) for ev in sent
                        for (a, b, role) in ev["args"]
                    ]
                )
            if "coref" in tasks:
                anns["cluster_members"].append(
                [
                    {"cluster_ix": ci, "start": a, "end": b,
                     "surface": " ".join(flat[a : b + 1])}
                        for ci, members in enumerate(d.clusters) for (a, b) in members
                    ]
                )
        out = tbl
        enabled = {
            "ner": "ner" in tasks, "relations": "relations" in tasks,
            "triggers": "events" in tasks, "event_args": "events" in tasks,
            "cluster_members": "coref" in tasks,
        }
        for name, typ in [
            ("ner", MENTION_T), ("relations", RELATION_T), ("triggers", TRIGGER_T),
            ("event_args", ARGUMENT_T), ("cluster_members", CLUSTER_MEMBER_T),
        ]:
            if enabled[name]:
                out = out.append_column(name, pa.array(anns[name], pa.list_(typ)))
        return out
