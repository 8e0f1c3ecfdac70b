"""Deterministic synthetic multi-turn transcript generator (FIXTURES.md F1).

Produces a Parquet-able table with exactly the BASELINE.json input_hint
shape: (conv_id:string, turn_idx:int32, role:string, text:string,
tool:string, ts:timestamp[us]).  Text is built from a planted grammar
over the closed lexicons in ``semantics.py`` so gold
mentions / relations / events / triples are known by construction —
the analogue of the reference's static fixture corpora
(``dygie/tests/fixtures/scierc_article.json`` etc.), but
seed-parameterized (no external data, no model weights).

Skew knobs: conversation lengths are power-law-ish; a configurable set
of "hot" surface forms recurs across a large fraction of conversations
(exercises the salted canonicalization shuffle); includes single-token
turns and near-window-length conversations (edge cases F5).
"""

from __future__ import annotations

import datetime as _dt
import random

import numpy as np
import pyarrow as pa

from .semantics import ENTITY_LEXICON, PRED_WORDS

FILLER = (
    "the", "a", "fast", "slow", "small", "big", "key", "order", "part",
    "window", "line", "value", "agg", "query", "data", "dup",
)

ROLES = ("user", "assistant", "tool")
TOOLS = ("search", "calc", "browser", "")

_ENTITIES = tuple(sorted(ENTITY_LEXICON))
_HOT = ("spark", "customer", "acme corp")  # hot keys: >10% of conversations

_EPOCH = _dt.datetime(2024, 1, 1)


def _turn_text(rng: random.Random) -> str:
    """One turn: filler interleaved with planted patterns.

    Patterns planted (probabilities per slot):
      - "E1 pred E2"  -> gold relation + event (trigger pred, args E1/E2)
      - lone entity   -> gold mention (coref when repeated in-window)
      - lone predicate-> gold trigger with no/filler args
    """
    words: list[str] = []
    n_slots = rng.randint(1, 6)
    for _ in range(n_slots):
        r = rng.random()
        if r < 0.30:
            e1 = rng.choice(_HOT) if rng.random() < 0.3 else rng.choice(_ENTITIES)
            e2 = rng.choice(_ENTITIES)
            words += e1.split() + [rng.choice(PRED_WORDS)] + e2.split()
        elif r < 0.55:
            e = rng.choice(_HOT) if rng.random() < 0.3 else rng.choice(_ENTITIES)
            words += e.split()
        elif r < 0.65:
            words.append(rng.choice(PRED_WORDS))
        else:
            words += [rng.choice(FILLER) for _ in range(rng.randint(1, 4))]
    return " ".join(words)


def make_transcripts(
    n_convs: int = 50,
    seed: int = 42,
    shuffle_rows: bool = True,
) -> pa.Table:
    """Deterministic transcript table. Rows are emitted shuffled so the
    engine must restore (conv_id, turn_idx) order (stable-turn-ordering
    invariant, SURVEY.md §2.9)."""
    rng = random.Random(seed)
    conv_id, turn_idx, role, text, tool, ts = [], [], [], [], [], []
    for c in range(n_convs):
        cid = f"conv{c:08d}"
        # power-law-ish lengths: mostly short, occasionally very long
        u = rng.random()
        if u < 0.75:
            n_turns = rng.randint(2, 8)
        elif u < 0.95:
            n_turns = rng.randint(9, 40)
        else:
            n_turns = rng.randint(41, 200)  # forces document splitting (M8)
        for t in range(n_turns):
            conv_id.append(cid)
            turn_idx.append(t)
            role.append(ROLES[t % 3])
            if t == 1 and c % 7 == 0:
                txt = rng.choice(_ENTITIES).split()[0]  # single-token turn (F5)
            else:
                txt = _turn_text(rng)
            text.append(txt)
            tool.append(rng.choice(TOOLS) if ROLES[t % 3] == "tool" else "")
            ts.append(_EPOCH + _dt.timedelta(seconds=c * 1000 + t))
    tbl = pa.table(
        {
            "conv_id": pa.array(conv_id, pa.string()),
            "turn_idx": pa.array(turn_idx, pa.int32()),
            "role": pa.array(role, pa.string()),
            "text": pa.array(text, pa.string()),
            "tool": pa.array(tool, pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    if shuffle_rows:
        perm = np.random.RandomState(seed).permutation(len(conv_id))
        tbl = tbl.take(pa.array(perm))
    return tbl
