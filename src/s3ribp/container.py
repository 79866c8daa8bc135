"""Small deterministic on-disk container for named arrays plus JSON metadata.

Layout: 8-byte magic, 8-byte little-endian header length, UTF-8 JSON header,
then the raw C-order bytes of each array in sorted-name order.  Unlike zip
archives there are no timestamps, so equal content means equal bytes, which
the reproducibility guarantees rely on.  Writes go through a temp file and
an atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

import numpy as np

from .errors import ParseError

MAGIC = b"S3RB\x00\x01\x00\x00"

__all__ = ["write_records", "read_records", "digest", "atomic_write_bytes", "atomic_write_text"]


def _chunks(arrays, meta):
    """The encoding as its header bytes and then one uint8 view of each
    array, in file order: a contiguous array is not copied."""
    index, views, offset = {}, [], 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        index[name] = {"dtype": arr.dtype.str, "shape": list(arr.shape), "offset": offset, "nbytes": arr.nbytes}
        views.append(arr.reshape(-1).view(np.uint8))
        offset += arr.nbytes
    header = json.dumps({"meta": meta, "arrays": index}, sort_keys=True, separators=(",", ":")).encode()
    return [MAGIC + len(header).to_bytes(8, "little") + header, *views]


def digest(arrays, meta):
    """sha256 hex of the bytes ``write_records(path, arrays, meta)`` writes:
    how the program identifies its data, masks and hyperparameters."""
    h = hashlib.sha256()
    for chunk in _chunks(arrays, meta):
        h.update(chunk)
    return h.hexdigest()


def atomic_write_bytes(path, *chunks):
    """Write the byte chunks, in order, to ``path`` by temp file and rename."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode())


def write_records(path, arrays, meta):
    atomic_write_bytes(path, *_chunks(arrays, meta))


def read_records(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ParseError(f"{path}: not a record container (bad magic)")
    start = len(MAGIC) + 8
    hlen = int.from_bytes(blob[len(MAGIC) : start], "little")
    if start + hlen > len(blob):
        raise ParseError(f"{path}: truncated container header")
    try:
        header = json.loads(blob[start : start + hlen].decode())
        index, meta = header["arrays"], header["meta"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}: corrupt container header ({exc!r})") from exc
    if not isinstance(index, dict):
        raise ParseError(f"{path}: corrupt container header (arrays is not an object)")
    base = start + hlen  # where the array bytes start
    arrays = {}
    for name, spec in index.items():
        try:
            dt, n0, nbytes, shape = np.dtype(spec["dtype"]), spec["offset"], spec["nbytes"], spec["shape"]
            usable = all(type(v) is int and v >= 0 for v in (n0, nbytes, *shape))
            usable = usable and not dt.hasobject and nbytes == dt.itemsize * math.prod(shape)
        except (KeyError, TypeError, ValueError):
            usable = False
        if not usable:
            raise ParseError(f"{path}: corrupt container header (array {name!r}: {spec!r})")
        if base + n0 + nbytes > len(blob):
            raise ParseError(f"{path}: truncated container (array {name!r})")
        arrays[name] = np.frombuffer(blob, dt, math.prod(shape), base + n0).reshape(shape).copy()
    return arrays, meta
