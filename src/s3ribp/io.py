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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .container import atomic_write_text, read_records, write_records
from .errors import DomainError, ParseError
from .model import CountMatrix, HyperParams, ObservationMask, PosteriorSummary, dataclass_from_dict, typed_fields

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
_SUMMARY_SCHEMA = 2


def _split_line(line):
    if "\t" in line:
        return [c.strip() for c in line.split("\t")]
    return [c.strip() for c in line.split(",")]


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


def _read_rows(path):
    """The file's non-blank lines as (line number, cells) pairs."""
    with open(path, encoding="utf-8") as fh:
        rows = [(no, _split_line(ln.rstrip("\n"))) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not rows:
        raise ParseError("file is empty", line=1)
    return rows


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _looks_like_triplet(rows):
    # A dense header starts with an empty corner cell; a 3-field file whose
    # corner is non-empty is read as a triplet file.  Two-column dense files
    # with a non-empty corner label are ambiguous: pass fmt="dense".
    if rows[0][1][0] == "":
        return False
    return all(len(cells) == 3 for _, cells in rows)


def _read_dense(rows, allow_float):
    """(values, row labels, column labels) of a dense file's rows; labels
    must be unique, values non-negative (and integers unless allow_float)."""
    header_no, header = rows[0]
    col_labels = tuple(header[1:])
    if not col_labels:
        raise ParseError("dense header has no column labels", line=header_no)
    seen_cols = set()
    for lab in col_labels:
        if lab in seen_cols:
            raise ParseError(f"duplicate column label {lab!r}", line=header_no)
        seen_cols.add(lab)
    row_labels, values = [], []
    seen_rows = set()
    for lineno, cells in rows[1:]:
        if len(cells) != len(col_labels) + 1:
            raise ParseError(f"expected {len(col_labels) + 1} fields, got {len(cells)}", line=lineno)
        lab = cells[0]
        if lab in seen_rows:
            raise ParseError(f"duplicate row label {lab!r}", line=lineno)
        seen_rows.add(lab)
        row_labels.append(lab)
        values.append([_parse_count(c, lineno, allow_float) for c in cells[1:]])
    if not row_labels:
        raise ParseError("dense file has no data rows", line=header_no)
    return np.asarray(values, dtype=np.float64), tuple(row_labels), col_labels


def _load_triplet(rows):
    first_no, first = rows[0]
    if len(first) != 3:
        raise ParseError(f"expected 3 fields, got {len(first)}", line=first_no)
    # A non-numeric count field marks a header line; a numeric-but-invalid
    # one (negative, fractional) is data and fails loudly below.
    start = 0 if _is_number(first[2]) else 1
    row_index, col_index = {}, {}
    lines = rows[start:]
    idx, counts = [], []
    for lineno, cells in lines:
        if len(cells) != 3:
            raise ParseError(f"expected 3 fields, got {len(cells)}", line=lineno)
        r, c, v = cells
        counts.append(_parse_count(v, lineno))
        idx.append((row_index.setdefault(r, len(row_index)), col_index.setdefault(c, len(col_index))))
    if not lines:
        raise ParseError("triplet file has no data rows", line=1)
    idx = np.asarray(idx, dtype=np.int64)
    flat = idx[:, 0] * len(col_index) + idx[:, 1]
    uniq, first = np.unique(flat, return_index=True)
    if uniq.size < flat.size:
        i = int(np.setdiff1d(np.arange(flat.size), first)[0])  # the earliest repeat
        lineno, (r, c, _) = lines[i]
        seen = lines[first[np.searchsorted(uniq, flat[i])]][0]
        raise ParseError(f"duplicate cell ({r!r}, {c!r}); first seen on line {seen}", line=lineno)
    return CountMatrix(len(row_index), len(col_index), idx[:, 0], idx[:, 1], counts, tuple(row_index), tuple(col_index))


def _read_as(path, fmt):
    """The file's rows and its format, ``auto`` resolved by ``_looks_like_triplet``."""
    if fmt not in _FORMATS:
        raise DomainError(f"unknown format {fmt!r}; expected one of {_FORMATS}")
    rows = _read_rows(path)
    if fmt == "auto":
        fmt = "triplet" if _looks_like_triplet(rows) else "dense"
    return rows, fmt


def load_counts(path, fmt="auto"):
    """Parse a count file into a CountMatrix, logging its sparsity profile."""
    rows, fmt = _read_as(path, fmt)
    if fmt == "triplet":
        data = _load_triplet(rows)
    else:
        data = CountMatrix.from_dense(*_read_dense(rows, allow_float=False))
    log.info(
        "loaded %dx%d counts from %s: %d non-zeros, density %.3f, zero share %.3f",
        data.n_rows,
        data.n_cols,
        path,
        data.n_nonzero,
        data.density,
        data.zero_share,
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
    rows, fmt = _read_as(path, fmt)
    if fmt == "triplet":
        raise DomainError(f"rca preprocessing reads a dense file of raw values, but {path} is read as triplet format")
    return _read_dense(rows, allow_float=True)


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
    if not (0.0 < fraction < 1.0):
        raise DomainError("hold-out fraction must lie strictly between 0 and 1")
    if n_folds < 1:
        raise DomainError("need at least one fold")
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
        if self.n_folds < 1:
            raise DomainError("need at least one fold")
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

    def replace(self, **kw):
        return replace(self, **kw)


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
