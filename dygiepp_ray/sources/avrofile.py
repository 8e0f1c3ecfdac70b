"""Avro Object Container File sink/source — the other standard
length-framed record container training stacks exchange (alongside
TFRecord/``tfrecord.py`` and WebDataset tar shards).  The writer emits
the REAL on-wire OCF layout per the Avro 1.11 spec: ``Obj\\x01`` magic,
file-metadata map (``avro.schema`` JSON + ``avro.codec: null``), a
16-byte sync marker, then data blocks of (record count, byte size,
records, sync); longs use zigzag base-128 varints, strings are
length-prefixed UTF-8.  The reader re-verifies the magic, the schema,
and EVERY block's sync marker, so framing bugs fail loudly.

Oracle strategy: payloads are document texts grouped per source
(the ``tfrecord_docs`` convention), so the SQL twin reproduces the
per-shard statistics by string aggregation — the container round trip
is what the engine is graded on.

Reference analogue: the prediction sink / instance cache
(``reference/dygie/predict.py``, SURVEY S4/S5) as an interchange
format.
"""

from __future__ import annotations

import hashlib
import io
import json

import numpy as np
import pandas as pd

MAGIC = b"Obj\x01"

_SCHEMA = {
    "type": "record",
    "name": "doc",
    "fields": [
        {"name": "doc_id", "type": "long"},
        {"name": "text", "type": "string"},
    ],
}

BLOCK_RECORDS = 16


def zigzag_encode(n: int) -> int:
    return (n << 1) ^ (n >> 63) if n < 0 else n << 1


def zigzag_decode(u: int) -> int:
    return (u >> 1) ^ -(u & 1)


def write_long(n: int) -> bytes:
    u = zigzag_encode(n) & 0xFFFFFFFFFFFFFFFF
    out = bytearray()
    while True:
        b = u & 0x7F
        u >>= 7
        if u:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def read_long(buf: io.BytesIO) -> int:
    u, shift = 0, 0
    while True:
        raw = buf.read(1)
        if not raw:
            raise ValueError("truncated varint")
        b = raw[0]
        u |= (b & 0x7F) << shift
        if not b & 0x80:
            return zigzag_decode(u)
        shift += 7
        if shift > 70:
            raise ValueError("varint too long")


def _write_str(s: bytes) -> bytes:
    return write_long(len(s)) + s


def _read_bytes(buf: io.BytesIO) -> bytes:
    n = read_long(buf)
    if n < 0:
        raise ValueError("negative byte length")
    data = buf.read(n)
    if len(data) != n:
        raise ValueError("truncated bytes")
    return data


def _sync_for(key: str) -> bytes:
    # deterministic per-shard sync marker (no RNG — stable across runs)
    return hashlib.md5(f"avro-sync:{key}".encode()).digest()


def write_avro(records: list[tuple[int, bytes]], key: str = "") -> bytes:
    """Serialize (doc_id, utf8-text) records into a REAL Avro OCF."""
    sync = _sync_for(key)
    out = bytearray(MAGIC)
    meta = [(b"avro.schema",
             json.dumps(_SCHEMA, separators=(",", ":")).encode()),
            (b"avro.codec", b"null")]
    out += write_long(len(meta))
    for k, v in meta:
        out += _write_str(k) + _write_str(v)
    out += write_long(0)  # end of metadata map
    out += sync
    for i in range(0, len(records), BLOCK_RECORDS):
        chunk = records[i:i + BLOCK_RECORDS]
        body = bytearray()
        for did, text in chunk:
            body += write_long(did) + _write_str(text)
        out += write_long(len(chunk)) + write_long(len(body))
        out += body + sync
    return bytes(out)


def read_avro(blob: bytes) -> list[tuple[int, bytes]]:
    """Parse an Avro OCF, verifying magic, schema, codec and every
    block's sync marker."""
    buf = io.BytesIO(blob)
    if buf.read(4) != MAGIC:
        raise ValueError("bad Avro magic")
    meta: dict[bytes, bytes] = {}
    while True:
        n = read_long(buf)
        if n == 0:
            break
        if n < 0:  # negative count prefixes a byte size (spec)
            read_long(buf)
            n = -n
        for _ in range(n):
            mk = _read_bytes(buf)
            meta[mk] = _read_bytes(buf)
    schema = json.loads(meta[b"avro.schema"])
    if [f["name"] for f in schema["fields"]] != ["doc_id", "text"]:
        raise ValueError("unexpected Avro schema")
    if meta.get(b"avro.codec", b"null") != b"null":
        raise ValueError("unsupported Avro codec")
    sync = buf.read(16)
    if len(sync) != 16:
        raise ValueError("truncated header sync")
    out: list[tuple[int, bytes]] = []
    while True:
        head = buf.read(1)
        if not head:
            return out
        buf.seek(-1, io.SEEK_CUR)
        count = read_long(buf)
        if count < 0:  # only map/array blocks may carry negative counts
            raise ValueError("negative Avro block record count")
        size = read_long(buf)
        body = buf.read(size)
        if len(body) != size:
            raise ValueError("truncated Avro block")
        bbuf = io.BytesIO(body)
        for _ in range(count):
            out.append((read_long(bbuf), _read_bytes(bbuf)))
        if bbuf.read(1):
            raise ValueError("Avro block size/record mismatch")
        if buf.read(16) != sync:
            raise ValueError("Avro sync marker mismatch")


def shard_roundtrip(df: pd.DataFrame) -> pd.DataFrame:
    """Bucket body for a source-keyed exchange: one Avro OCF shard per
    source (docs in doc_id order), re-read with full sync/schema
    verification, emit the shard statistics."""
    empty = pd.DataFrame(
        {"source": pd.Series(dtype=object),
         "n_records": pd.Series(dtype=np.int64),
         "total_bytes": pd.Series(dtype=np.int64),
         "content_md5": pd.Series(dtype=object)})
    if len(df) == 0 or "source" not in df.columns:
        return empty
    rows = {"source": [], "n_records": [], "total_bytes": [],
            "content_md5": []}
    for src, g in df.groupby("source"):
        g = g.sort_values("doc_id")
        recs = [(int(d), str(t).encode("utf-8"))
                for d, t in zip(g["doc_id"], g["text"])]
        blob = write_avro(recs, key=str(src))
        back = read_avro(blob)
        if back != recs:
            raise ValueError(f"Avro round trip diverged for {src}")
        rows["source"].append(str(src))
        rows["n_records"].append(len(back))
        rows["total_bytes"].append(sum(len(t) for _, t in back))
        rows["content_md5"].append(
            hashlib.md5(b"".join(t for _, t in back)).hexdigest())
    return pd.DataFrame(rows).astype(
        {"n_records": np.int64, "total_bytes": np.int64})
