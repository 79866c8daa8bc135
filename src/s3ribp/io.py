"""File formats, split generation, and run configuration.

Two count-file formats are supported, both UTF-8 delimiter-separated
(comma or tab, auto-detected per file):

dense    header row of column labels; each following line is a row label
         followed by one integer per column.
triplet  optional header; each line is row_label, col_label, count.
         Labels appear in first-seen order; duplicate cells are an error.

Writes go through a temp-file-plus-rename so a crashed run never leaves a
partial output behind.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field
from itertools import compress, repeat

import numpy as np

from .container import atomic_write_text, read_records, write_records
from .errors import DomainError, ParseError
from .model import CountMatrix, HyperParams, ObservationMask, PosteriorSummary, _check_seed, _whole
from .model import dataclass_from_dict, typed_fields

__all__ = [
    "load_counts",
    "load_raw_matrix",
    "save_counts",
    "make_splits",
    "RunConfig",
    "save_summary",
    "load_summary",
]

log = logging.getLogger(__name__)

_FORMATS = ("auto", "dense", "triplet")
_SUMMARY_SCHEMA = 3


def _parse_count(text, lineno, allow_float=False):
    try:
        val = float(text)
    except ValueError:
        raise ParseError(f"{text!r} is not a number", line=lineno) from None
    if not math.isfinite(val):
        raise ParseError(f"{text!r} is not finite", line=lineno)
    if not allow_float and not val.is_integer():
        raise ParseError(f"count {text!r} is not an integer", line=lineno)
    if val < 0:
        raise ParseError(f"count {text!r} is negative", line=lineno)
    return val


def _parse_counts(cells, line_of, allow_float=False):
    """``_parse_count`` over a list of cells, as one float64 array.

    The cells are converted in one bulk call and checked as arrays.  Only
    when that fails are they walked one by one, stripped, through
    ``_parse_count``, so the ParseError names the first bad cell in file
    order, on line ``line_of(i)``.  The walk also reads a number that
    ``float`` takes only once stripped (around it, the ASCII separators
    0x1c-0x1f, which ``str.strip`` removes and ``float`` refuses).
    """
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        pass
    else:
        bad = ~np.isfinite(values) | (values < 0)
        if not allow_float:
            bad |= values != np.floor(values)
        if not bad.any():
            return values
    return np.array([_parse_count(c.strip(), line_of(i), allow_float) for i, c in enumerate(cells)])


def _read_lines(path):
    """The file's non-blank lines, with every line's cells separated by
    tabs, their line numbers, and their numbers of fields (an int array).

    A line with a tab splits on tabs, one without on commas, so the commas
    of a line with no tab become tabs.  Cells are not stripped: ``float``
    ignores the whitespace around a number, and the readers strip the
    labels they keep.  The readers split many lines at once, by joining
    them, so no list per line outlives its use and keeps the garbage
    collector busy.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    nonblank = list(map(str.strip, lines))
    linenos, lines = list(compress(range(1, len(lines) + 1), nonblank)), list(compress(lines, nonblank))
    if not lines:
        raise ParseError("file is empty", line=1)
    if "," in text:
        lines = [ln if "\t" in ln else ln.replace(",", "\t") for ln in lines]
    fields = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, len(lines)) + 1
    return lines, linenos, fields


def _split_all(lines):
    """The cells of ``lines``, all lines' in one list."""
    return "\t".join(lines).split("\t")


def _first_ragged(fields, width, start=0):
    """The index of the first line from ``start`` on without ``width``
    fields, or the number of lines."""
    off = np.flatnonzero(fields[start:] != width)
    return start + int(off[0]) if off.size else len(fields)


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _looks_like_triplet(lines, fields):
    # A dense header starts with an empty corner cell; a 3-field file whose
    # corner is non-empty is read as a triplet file.  Two-column dense files
    # with a non-empty corner label are ambiguous: pass fmt="dense".
    if not lines[0].split("\t", 1)[0].strip():
        return False
    return bool(np.all(fields == 3))


def _read_dense(lines, linenos, fields, allow_float):
    """(values, row labels, column labels) of a dense file's lines; labels
    must be unique, values non-negative (and integers unless allow_float)."""
    col_labels = tuple(c.strip() for c in lines[0].split("\t")[1:])
    if not col_labels:
        raise ParseError("dense header has no column labels", line=linenos[0])
    seen_cols = set()
    for lab in col_labels:
        if lab in seen_cols:
            raise ParseError(f"duplicate column label {lab!r}", line=linenos[0])
        seen_cols.add(lab)
    width = len(col_labels) + 1
    ragged = _first_ragged(fields, width, start=1)
    row_labels, seen_rows, fault = [], set(), None
    for i in range(1, ragged):
        lab = lines[i][: lines[i].index("\t")].strip()
        if lab in seen_rows:
            fault = ParseError(f"duplicate row label {lab!r}", line=linenos[i])
            break
        seen_rows.add(lab)
        row_labels.append(lab)
    if fault is None and ragged < len(lines):
        fault = ParseError(f"expected {width} fields, got {fields[ragged]}", line=linenos[ragged])
    values = _split_all(lines[1 : 1 + len(row_labels)])
    del values[::width]  # the row labels
    # a bad value on a line before the fault is reported first
    values = _parse_counts(values, lambda i: linenos[1 + i // len(col_labels)], allow_float)
    if fault is not None:
        raise fault
    if not row_labels:
        raise ParseError("dense file has no data rows", line=linenos[0])
    return values.reshape(len(row_labels), len(col_labels)), tuple(row_labels), col_labels


def _first_seen_index(labels):
    """Each stripped label's index among the distinct labels in first-seen
    order, and those labels."""
    labels = list(map(str.strip, labels))
    order = {lab: i for i, lab in enumerate(dict.fromkeys(labels))}
    return np.fromiter(map(order.__getitem__, labels), np.int64, len(labels)), tuple(order)


def _load_triplet(lines, linenos, fields):
    if fields[0] != 3:
        raise ParseError(f"expected 3 fields, got {fields[0]}", line=linenos[0])
    # A non-numeric count field marks a header line; a numeric-but-invalid
    # one (negative, fractional) is data and fails loudly below.
    start = 0 if _is_number(lines[0].rsplit("\t", 1)[1].strip()) else 1
    lines, linenos, fields = lines[start:], linenos[start:], fields[start:]
    if not lines:
        raise ParseError("triplet file has no data rows", line=1)
    ragged = _first_ragged(fields, 3)
    cells = _split_all(lines[:ragged])
    # a bad count on a line before a ragged one is reported first
    counts = _parse_counts(cells[2::3], linenos.__getitem__)
    if ragged < len(lines):
        raise ParseError(f"expected 3 fields, got {fields[ragged]}", line=linenos[ragged])
    (rows_i, row_labels), (cols_i, col_labels) = (_first_seen_index(cells[j::3]) for j in (0, 1))
    flat = rows_i * len(col_labels) + cols_i
    uniq, first = np.unique(flat, return_index=True)
    if uniq.size < flat.size:
        i = int(np.setdiff1d(np.arange(flat.size), first)[0])  # the earliest repeat
        seen = linenos[first[np.searchsorted(uniq, flat[i])]]
        r, c = row_labels[rows_i[i]], col_labels[cols_i[i]]
        raise ParseError(f"duplicate cell ({r!r}, {c!r}); first seen on line {seen}", line=linenos[i])
    return CountMatrix(len(row_labels), len(col_labels), rows_i, cols_i, counts, row_labels, col_labels)


def _read_as(path, fmt):
    """The file's ``_read_lines`` and its format, ``auto`` resolved by
    ``_looks_like_triplet``."""
    if fmt not in _FORMATS:
        raise DomainError(f"unknown format {fmt!r}; expected one of {_FORMATS}")
    lines = _read_lines(path)
    if fmt == "auto":
        fmt = "triplet" if _looks_like_triplet(lines[0], lines[2]) else "dense"
    return lines, fmt


def load_counts(path, fmt="auto"):
    """Parse a count file into a CountMatrix, logging its sparsity profile."""
    lines, fmt = _read_as(path, fmt)
    if fmt == "triplet":
        data = _load_triplet(*lines)
    else:
        data = CountMatrix.from_dense(*_read_dense(*lines, allow_float=False))
    log.info(
        "loaded %dx%d counts from %s: %d non-zeros, density %.3f",
        data.n_rows,
        data.n_cols,
        path,
        data.n_nonzero,
        data.density,
    )
    return data


def load_raw_matrix(path, fmt="auto"):
    """Parse a dense file of non-negative reals (no integrality check).

    This is the input to the comparative-advantage transform, which needs
    raw (possibly fractional) magnitudes before producing integer counts.
    ``fmt`` is resolved as in ``load_counts``; a triplet file is a
    DomainError.  Labels must be unique, as in ``load_counts``.  Returns
    (values array, row labels, column labels).
    """
    lines, fmt = _read_as(path, fmt)
    if fmt == "triplet":
        raise DomainError(f"rca preprocessing reads a dense file of raw values, but {path} is read as triplet format")
    return _read_dense(*lines, allow_float=True)


def save_counts(data, path, fmt="dense"):
    """Write a CountMatrix as a dense or triplet file (load_counts inverse)."""
    if fmt == "dense":
        lines = ["\t".join(("",) + data.col_labels)]
        dense = data.dense
        for i, lab in enumerate(data.row_labels):
            lines.append("\t".join([lab] + [str(int(v)) for v in dense[i]]))
    elif fmt == "triplet":
        lines = ["row\tcol\tcount"]
        for n, d, v in zip(data.rows.tolist(), data.cols.tolist(), data.counts.tolist()):
            lines.append(f"{data.row_labels[n]}\t{data.col_labels[d]}\t{v}")
    else:
        raise DomainError(f"unknown format {fmt!r}; expected 'dense' or 'triplet'")
    atomic_write_text(path, "\n".join(lines) + "\n")


def make_splits(data, fraction, n_folds, seed):
    """Independent uniform hold-out masks, ceil(fraction * N * D) cells each.

    Fold i is driven by the seed sequence (seed, i), so any (seed, fold)
    pair reproduces its mask exactly regardless of the other folds.
    """
    _check_seed(seed, "seed")
    if not (0.0 < fraction < 1.0):
        raise DomainError("hold-out fraction must lie strictly between 0 and 1")
    n_folds = _whole(n_folds, "n_folds", 1)
    n_cells = data.n_rows * data.n_cols
    n_held = math.ceil(fraction * n_cells)
    if n_held >= n_cells:
        raise DomainError("hold-out fraction leaves no training cells")
    masks = []
    for fold in range(n_folds):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), fold]))
        flat = rng.choice(n_cells, size=n_held, replace=False)
        masks.append(ObservationMask(np.stack(np.divmod(flat, data.n_cols), axis=1), data.n_rows, data.n_cols))
    return masks


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run, echoed into every output directory."""

    dataset: str
    fmt: str = "auto"
    preproc: str = "none"
    holdout: float = 0.1
    n_folds: int = 10
    hyper: HyperParams = field(default_factory=HyperParams)
    out_dir: str = "."
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        typed_fields(self)
        if self.preproc not in ("none", "rca-round", "rca-binary"):
            raise DomainError(f"unknown preprocessing mode {self.preproc!r}")
        if not (0.0 < self.holdout < 1.0):
            raise DomainError("hold-out fraction must lie strictly between 0 and 1")
        _whole(self.n_folds, "n_folds", 1)
        if self.fmt not in _FORMATS:
            raise DomainError(f"unknown format {self.fmt!r}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return dataclass_from_dict(cls, d)

    def to_json(self, version=None):
        payload = self.to_dict()
        if version is not None:
            payload["package_version"] = version
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        payload.pop("package_version", None)
        return cls.from_dict(payload)


def save_summary(summary, path):
    """Serialize a posterior summary to a deterministic container file.

    ``PosteriorSummary.to_records`` leaves out the volatile wall-clock
    field, so two summaries of identical chains produce identical bytes.
    """
    arrays, meta = summary.to_records()
    write_records(path, arrays, {"kind": "posterior-summary", "schema_version": _SUMMARY_SCHEMA, **meta})


def load_summary(path):
    """Inverse of save_summary (wall-clock time comes back as zero)."""
    arrays, meta = read_records(path)
    if meta.get("kind") != "posterior-summary" or meta.get("schema_version") != _SUMMARY_SCHEMA:
        raise ParseError(f"{path} is not a posterior summary file of schema {_SUMMARY_SCHEMA}")
    return PosteriorSummary.from_records(arrays, meta)
