"""Joint extraction stage (SURVEY.md §2.2 M2, §2.3 T3/T5/T6/T7, T10/F6).

``documents -> documents + predicted annotations`` as ONE vectorized
``map_batches`` over Arrow doc rows.  Per batch the token stream is
flattened and dictionary-encoded once (the row<->columnar pivot the
reference does per-document in ``fields_to_batches``,
``dygie/models/shared.py:28-68``): lexicon and predicate membership is
tested per vocabulary entry and read by int code, and every scorer below
is a numpy kernel (``np.searchsorted`` matches and joins) whose columns
are regrouped into per-document list<struct> columns by offset
arithmetic — no pandas and no per-row Python in the hot path.

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
  same-surface-within-window clusters (``coref.same_surface_clusters``,
  numpy).  A reference-control-flow fallback
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


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with ``lo[i] <= j < hi[i]``, by i then j."""
    cnt = hi - lo
    i = np.repeat(np.arange(len(lo)), cnt)
    return i, np.arange(len(i)) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)


class ExtractStage:
    """Actor-pool callable: lexicon index + compiled constants built once
    per actor (__init__), vectorized extraction per batch (__call__).
    The reference analogue is the model constructor loading weights once
    (``models/dygie.py:56-138``); swap the lexicon for a model and
    ``num_gpus`` for the GPU-pool variant."""

    def __init__(self, cfg: ExtractionConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        entries = sorted(s for s in S.ENTITY_LEXICON if s.count(" ") < cfg.max_span_width)
        words = sorted({w for s in entries for w in s.split(" ")})
        # a span matches an entry of its width iff its lexicon word ids,
        # packed base len(words), equal the entry's
        self.base = max(1, len(words))
        packed: dict[int, list] = {}
        for e, s in enumerate(entries):
            ids = [words.index(w) for w in s.split(" ")]
            if self.base ** len(ids) >= 2**63:
                raise ValueError(f"lexicon entry {s!r} too wide for int64 span keys")
            key = sum(i * self.base ** (len(ids) - 1 - k) for k, i in enumerate(ids))
            packed.setdefault(len(ids), []).append((key, e))
        # width -> (sorted packed keys, their entry indices)
        self.lex_keys = {w: tuple(np.array(c) for c in zip(*sorted(pairs)))
                         for w, pairs in packed.items()}
        self.lex_words = pa.array(words, pa.string())
        self.surfaces = pa.array(entries, pa.string())
        self.labels = pa.array([S.ENTITY_LEXICON[s] for s in entries], pa.string())
        self.preds = pa.array(S.PRED_WORDS, pa.string())
        self.ner_raw, self.ner_soft = _const_scores(len(cfg.labels))
        self.rel_raw, self.rel_soft = _const_scores(len(cfg.preds))
        self.trig_raw, self.trig_soft = _const_scores(len(cfg.preds))
        self.arg_raw, self.arg_soft = _const_scores(len(S.ARG_ROLES))

    # -- flattening ---------------------------------------------------------

    def _flatten(self, tbl: pa.Table) -> dict:
        """The batch's token stream as dictionary codes over its
        vocabulary, plus the offsets that place a global token position
        in its document and sentence.  Lexicon and predicate membership
        is tested once per vocabulary entry and read by code."""
        sents = tbl["sentences"]
        if isinstance(sents, pa.ChunkedArray):
            sents = sents.combine_chunks()
        outer_off = np.asarray(sents.offsets)              # docs -> sentences
        outer_off = outer_off - outer_off[0]               # sliced arrays keep base offsets
        inner = sents.flatten()                             # list<string> per sentence
        inner_off = np.asarray(inner.offsets)               # sentences -> tokens
        inner_off = inner_off - inner_off[0]
        enc = pc.dictionary_encode(inner.flatten())
        codes = np.asarray(enc.indices, dtype=np.int64)
        vocab = enc.dictionary

        def ids_in(value_set: pa.Array) -> np.ndarray:
            # per token: index of its vocabulary entry in value_set, -1 if absent
            ix = pc.fill_null(pc.index_in(vocab, value_set=value_set), -1)
            return np.asarray(ix, dtype=np.int64)[codes]

        return dict(
            codes=codes, vocab=vocab,
            word_id=ids_in(self.lex_words), pred_id=ids_in(self.preds),
            sent_of_tok=np.repeat(np.arange(len(inner)), np.diff(inner_off)),
            doc_of_sent=np.repeat(np.arange(len(sents)), np.diff(outer_off)),
            doc_sent_off=outer_off, doc_tok_off=inner_off[outer_off],
        )

    @staticmethod
    def _place(fl: dict, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_ix, sent_ix in doc, position in doc) of global token positions."""
        s = fl["sent_of_tok"][g]
        d = fl["doc_of_sent"][s]
        return d, s - fl["doc_sent_off"][d], g - fl["doc_tok_off"][d]

    # -- mention detection (M2 + T3 + beam prune + decode) ------------------

    def _mentions(self, fl: dict) -> dict:
        """Lexicon spans as columns: global start ``g`` and end ``e``
        (inclusive) and lexicon entry ``ent``, in span-enumeration order
        (doc, sentence, start, end) — ``dygie.py:121-126``."""
        wid, sent = fl["word_id"], fl["sent_of_tok"]
        n = len(wid)
        starts, ends, ents = ([np.empty(0, np.int64)] for _ in range(3))
        for w, (keys, lex_ents) in self.lex_keys.items():
            if n < w:
                continue
            m = n - w + 1
            key = wid[:m].copy()
            ok = key >= 0
            for k in range(1, w):
                ok &= wid[k : k + m] >= 0
                key = key * self.base + wid[k : k + m]
            ok &= sent[:m] == sent[w - 1 :]      # same-sentence constraint
            cand = np.flatnonzero(ok)
            pos = np.minimum(np.searchsorted(keys, key[cand]), len(keys) - 1)
            hit = keys[pos] == key[cand]
            starts.append(cand[hit])
            ends.append(cand[hit] + (w - 1))
            ents.append(lex_ents[pos[hit]])
        g, e = np.concatenate(starts), np.concatenate(ends)
        order = np.lexsort((e, g))
        return dict(g=g[order], e=e[order], ent=np.concatenate(ents)[order])

    def _span_cols(self, fl: dict, g: np.ndarray, e: np.ndarray, names=("start", "end")) -> dict:
        d, si, pos = self._place(fl, g)
        return {"doc_ix": d, "sent_ix": si, names[0]: pos, names[1]: pos + (e - g)}

    # -- relations (T5 + decode) -------------------------------------------

    def _relations(self, fl: dict, m: dict) -> dict:
        """Ordered mention pairs in one sentence whose object starts two
        tokens after the subject ends, with a predicate between."""
        g, e = m["g"], m["e"]
        # object candidates: every mention starting at subject end + 2
        # (several mentions can share a start)
        subj, obj = _ranges(np.searchsorted(g, e + 2, "left"), np.searchsorted(g, e + 2, "right"))
        sent = fl["sent_of_tok"]
        pred = fl["pred_id"][e[subj] + 1]
        keep = (sent[g[subj]] == sent[g[obj]]) & (pred >= 0)
        subj, obj, pred = subj[keep], obj[keep], pred[keep]
        return {  # subject and object share doc_ix and sent_ix
            **self._span_cols(fl, g[obj], e[obj], ("s2", "e2")),
            **self._span_cols(fl, g[subj], e[subj], ("s1", "e1")), "label": self.preds.take(pred),
            "subj": self.surfaces.take(m["ent"][subj]), "obj": self.surfaces.take(m["ent"][obj]),
        }

    # -- events (T7 + decode) ----------------------------------------------

    def _events(self, fl: dict, m: dict) -> tuple[dict, dict]:
        """Triggers are predicate tokens; a trigger's arguments are the
        mentions of its sentence ending at most ARG_MAX_DIST tokens
        before it (AGENT) or starting at most that far after (PATIENT),
        by start within the trigger (``events.py:394``)."""
        tpos = np.flatnonzero(fl["pred_id"] >= 0)
        d, si, tok = self._place(fl, tpos)
        label = self.preds.take(fl["pred_id"][tpos])
        trig = dict(doc_ix=d, sent_ix=si, tok=tok, label=label)
        g, e = m["g"], m["e"]
        # candidate mentions start within [t - ARG_MAX_DIST - width + 1, t + ARG_MAX_DIST]
        widest = int((e - g).max()) if len(g) else 0
        t, j = _ranges(np.searchsorted(g, tpos - S.ARG_MAX_DIST - widest, "left"),
                       np.searchsorted(g, tpos + S.ARG_MAX_DIST, "right"))
        tp = tpos[t]
        before = (e[j] < tp) & (tp - e[j] <= S.ARG_MAX_DIST)
        after = (g[j] > tp) & (g[j] - tp <= S.ARG_MAX_DIST)
        sent = fl["sent_of_tok"]
        keep = (before | after) & (sent[g[j]] == sent[tp])
        t, j, before = t[keep], j[keep], before[keep]
        args = self._span_cols(fl, g[j], e[j])
        args.update(
            trig_tok=tok[t], event_type=label.take(t),
            role=pa.array(S.ARG_ROLES, pa.string()).take(np.where(before, 0, 1)),
            surface=self.surfaces.take(m["ent"][j]),
        )
        return trig, args

    # -- coref clusters (T6, flagship vectorized reduction) -----------------

    def _clusters(self, fl: dict, m: dict) -> dict:
        # shared decode convention with the mention-derived collated
        # path — one implementation (stages/coref.py)
        from .coref import same_surface_clusters

        doc = self._place(fl, m["g"])[0]
        rows, cix = same_surface_clusters(doc, m["ent"])
        out = self._span_cols(fl, m["g"][rows], m["e"][rows])
        out.update(cluster_ix=cix, surface=self.surfaces.take(m["ent"][rows]))
        return out

    # -- batch entry --------------------------------------------------------

    def __call__(self, tbl: pa.Table) -> pa.Table:
        n_docs = len(tbl)
        tasks = self.cfg.tasks
        fl = self._flatten(tbl)
        m = self._mentions(fl)

        def column(cols: dict, typ: pa.StructType, consts: dict) -> pa.ListArray:
            # struct rows (sorted by doc_ix) grouped into one list per document
            n = len(cols["doc_ix"])
            arrays = [
                pa.repeat(pa.scalar(consts[f.name], f.type), n) if f.name in consts
                else pa.array(cols[f.name], f.type)
                for f in typ
            ]
            return _doc_list_column(
                cols["doc_ix"], n_docs,
                pa.StructArray.from_arrays(arrays, [f.name for f in typ]),
            )

        out = tbl
        if "ner" in tasks:
            ner = self._span_cols(fl, m["g"], m["e"])
            ner.update(label=self.labels.take(m["ent"]), surface=self.surfaces.take(m["ent"]))
            out = out.append_column(
                "ner", column(ner, MENTION_T, {"raw": self.ner_raw, "softmax": self.ner_soft})
            )
        if "relations" in tasks:
            out = out.append_column(
                "relations",
                column(self._relations(fl, m), RELATION_T,
                       {"raw": self.rel_raw, "softmax": self.rel_soft}),
            )
        if "events" in tasks:
            trig, args = self._events(fl, m)
            out = out.append_column(
                "triggers",
                column(trig, TRIGGER_T, {"raw": self.trig_raw, "softmax": self.trig_soft}),
            )
            out = out.append_column(
                "event_args",
                column(args, ARGUMENT_T, {"raw": self.arg_raw, "softmax": self.arg_soft}),
            )
        if "coref" in tasks:
            out = out.append_column(
                "cluster_members", column(self._clusters(fl, m), CLUSTER_MEMBER_T, {})
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

    def _flatten(self, tbl: pa.Table) -> dict:
        fl = super()._flatten(tbl)
        if len(fl["codes"]):
            # hash each vocabulary entry once, then take by token code
            rows = (
                pd.util.hash_array(fl["vocab"].to_numpy(zero_copy_only=False), categorize=False)
                % np.uint64(len(self.embedding_table))
            ).astype(np.int64)
            fl["embeddings"] = self.embedding_table[rows[fl["codes"]]] @ self.projection
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
