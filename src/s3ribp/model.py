"""Domain types and probability primitives shared by every other module.

The model explains an integer count matrix X (rows = data points, columns =
dimensions) with a binary feature matrix Z, non-negative factor loadings B,
per-feature weights pi and a mass parameter alpha.  Each cell is Poisson
with rate Z_n . B_d, loadings are Gamma with a shape/mean parameterization,
and per-row feature counts follow a negative binomial, which is what makes
the factorization doubly sparse: sparse loadings and sparse feature
memberships.

This module holds the container types for data, masks, hyperparameters and
sampler state, plus the scalar densities and deterministic transforms that
the samplers, the MCMC kernel and the evaluation suite are built from.  All
densities are computed in log space.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cached_property
from typing import get_type_hints

import numpy as np
from scipy.special import gammaln

from . import container
from .errors import DomainError, InvariantError, NumericsError

__all__ = [
    "PI_CEILING",
    "SIGMA_CEILING",
    "CountMatrix",
    "ObservationMask",
    "HyperParams",
    "LatentState",
    "PosteriorSummary",
    "poisson_log_pmf",
    "negbin_log_pmf",
    "negbin_row_sum_log_pmf",
    "rca_index",
    "rca_transform",
]

# A requested power-law index of exactly 1 is mapped just inside the open
# upper end of the valid range [0, 1).
SIGMA_CEILING = 1.0 - 1e-3

# Weights are kept strictly below 1 so odds stay finite.
PI_CEILING = 1.0 - 1e-15

# Below this c + sigma the exposure mass sits against p = 1, where its
# quadrature fails or misses its tolerance (by 1e-2 at c + sigma = 1e-7).
MIN_C_PLUS_SIGMA = 1e-3

# Aux vectors checked per pass in ``LatentState.validate_against``.
_VALIDATE_CHUNK = 4096


def _check_labels(labels, n, kind):
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise DomainError(f"expected {n} {kind} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        seen = set()
        dup = next(x for x in labels if x in seen or seen.add(x))
        raise DomainError(f"duplicate {kind} label {dup!r}")
    return labels


def _fractional(a):
    """Where ``a`` holds no integer: nowhere in an integer array."""
    return np.zeros(a.shape, dtype=bool) if a.dtype.kind in "iu" else ~np.isfinite(a) | (a != np.floor(a))


def _whole(values, name, least=0, most=None):
    """``values`` as int64, a Python int where it is one number.  A value no
    int64 equals (fractional, non-finite or out of int64's range) or one
    outside least..most (``most`` None: no upper bound) is a DomainError
    naming ``name`` and the first bad value; an integral float passes."""
    a = np.asarray(values)
    with np.errstate(invalid="ignore"):
        whole = a.astype(np.int64, copy=False)
    fractional = whole != a
    bad = fractional | (whole < least)
    if most is not None:
        bad |= whole > most
    if bad.any():
        i = int(np.argmax(bad))
        if fractional.flat[i]:
            raise DomainError(f"{name} {a.flat[i]} is not an integer")
        v = whole.flat[i]
        what = f"exceeds {most}" if v >= least else "is negative" if least == 0 else f"is less than {least}"
        raise DomainError(f"{name} {v} {what}")
    return whole if whole.ndim else whole.item()


def _check_seed(seed, name):
    """A DomainError naming ``name`` unless ``seed`` is a 64-bit unsigned
    integer; an integral float passes, a bool does not."""
    if isinstance(seed, (bool, np.bool_)) or not (0 <= seed < 2**64 and seed % 1 == 0):
        raise DomainError(f"{name} must be a 64-bit unsigned integer, got {seed}")


def _cell_indices(rows, cols, n_rows, n_cols):
    """``rows`` and ``cols``, broadcast together, as int64 arrays; a DomainError
    names the first cell whose indices are not integers or lie outside the shape."""
    rows, cols = np.broadcast_arrays(np.asarray(rows), np.asarray(cols))
    fractional = _fractional(rows) | _fractional(cols)
    bad = fractional | (rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)
    if bad.any():
        i = int(np.argmax(bad))
        what = "has an index that is not an integer" if fractional.flat[i] else f"outside {n_rows}x{n_cols}"
        raise DomainError(f"cell ({rows.flat[i]}, {cols.flat[i]}) {what}")
    return rows.astype(np.int64), cols.astype(np.int64)


def _lookup(sorted_flat, flat):
    """Where each of ``flat`` sits in the ascending ``sorted_flat``, and
    whether it is present there."""
    i = np.searchsorted(sorted_flat, flat)
    return i, np.append(sorted_flat, -1)[i] == flat


@dataclass(frozen=True, eq=False)
class CountMatrix:
    """Sparse non-negative integer matrix with unique row/column labels.

    ``rows``, ``cols`` and ``counts`` are read-only int64 arrays holding the
    strictly positive cells in row-major order; absent cells are zero, so
    zero and empty cells are interchangeable.  The constructor drops zero
    counts and sorts the cells; a repeated cell is an error.
    """

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    row_labels: tuple
    col_labels: tuple

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise DomainError("matrix must have at least one row and one column")
        object.__setattr__(self, "row_labels", _check_labels(self.row_labels, self.n_rows, "row"))
        object.__setattr__(self, "col_labels", _check_labels(self.col_labels, self.n_cols, "column"))
        try:
            coo = np.array([np.ravel(a) for a in (self.rows, self.cols, self.counts)]).reshape(3, -1)
        except ValueError:
            raise DomainError("rows, cols and counts must have the same length") from None
        rows, cols = _cell_indices(coo[0], coo[1], self.n_rows, self.n_cols)
        rows, cols, counts = coo = np.array([rows, cols, _whole(coo[2], "count")])
        flat = rows * self.n_cols + cols
        order = np.argsort(flat, kind="stable")
        repeated = flat[order][1:][np.diff(flat[order]) == 0]
        if repeated.size:
            raise DomainError(f"cell {divmod(int(repeated[0]), self.n_cols)} is given more than once")
        coo = coo[:, order[counts[order] > 0]]
        coo.flags.writeable = False
        for name, arr in zip(("rows", "cols", "counts"), coo):
            object.__setattr__(self, name, arr)

    @classmethod
    def from_dense(cls, arr, row_labels=None, col_labels=None):
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise DomainError("expected a 2-d array")
        n, d = arr.shape
        if row_labels is None:
            row_labels = tuple(f"r{i}" for i in range(n))
        if col_labels is None:
            col_labels = tuple(f"c{j}" for j in range(d))
        rows, cols = np.nonzero(arr)
        return cls(n, d, rows, cols, arr[rows, cols], tuple(row_labels), tuple(col_labels))

    @property
    def dense(self):
        """A new (n_rows, n_cols) int64 array of the counts, for io."""
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        out[self.rows, self.cols] = self.counts
        return out

    def counts_at(self, rows, cols):
        """The counts at cells (rows[i], cols[i]), zero where no count is stored."""
        rows, cols = _cell_indices(rows, cols, self.n_rows, self.n_cols)
        i, hit = _lookup(self._flat, rows * self.n_cols + cols)
        return np.where(hit, np.append(self.counts, 0)[i], 0)

    @cached_property
    def _flat(self):
        """The stored cells' row-major flat indices, ascending."""
        return self.rows * self.n_cols + self.cols

    @property
    def n_nonzero(self):
        return int(self.counts.shape[0])

    @property
    def density(self):
        """Share of cells holding a nonzero count."""
        return self.n_nonzero / (self.n_rows * self.n_cols)

    def digest(self):
        return self._digest

    @cached_property
    def _digest(self):
        return container.digest(
            {"rows": self.rows, "cols": self.cols, "counts": self.counts},
            {"shape": [self.n_rows, self.n_cols], "rows": self.row_labels, "cols": self.col_labels},
        )


@dataclass(frozen=True, eq=False)
class ObservationMask:
    """The (row, col) cells held out from training.

    ``held_out`` is a read-only (n_held_out, 2) int64 array of the cells,
    sorted row-major and unique; the constructor takes any iterable of
    pairs.  Cells not in it are observed (training) cells.  The shape is
    carried along so indices can be validated against the companion matrix.
    """

    held_out: np.ndarray
    n_rows: int
    n_cols: int

    def __post_init__(self):
        cells = self.held_out if isinstance(self.held_out, np.ndarray) else list(self.held_out)
        rows, cols = _cell_indices(*np.asarray(cells).reshape(-1, 2).T, self.n_rows, self.n_cols)
        # sort and drop repeats: np.unique's hash path is ~20x slower here
        flat = np.sort(rows * self.n_cols + cols)
        flat = flat[np.diff(flat, prepend=-1) != 0]
        cells = np.stack(np.divmod(flat, self.n_cols), axis=1)
        cells.flags.writeable = False
        object.__setattr__(self, "held_out", cells)

    @classmethod
    def none_held_out(cls, n_rows, n_cols):
        return cls(np.empty((0, 2), dtype=np.int64), n_rows, n_cols)

    @property
    def n_held_out(self):
        return int(self.held_out.shape[0])

    def is_held_out(self, rows, cols):
        """Boolean array: is cell (rows[i], cols[i]) held out?"""
        rows, cols = _cell_indices(rows, cols, self.n_rows, self.n_cols)
        return _lookup(self.held_out[:, 0] * self.n_cols + self.held_out[:, 1], rows * self.n_cols + cols)[1]

    def held_out_sorted(self):
        """The held-out cells as a new sorted list of (row, col) tuples."""
        return list(map(tuple, self.held_out.tolist()))

    def digest(self):
        return self._digest

    @cached_property
    def _digest(self):
        return container.digest({"cells": self.held_out}, {"shape": [self.n_rows, self.n_cols]})


@dataclass(frozen=True)
class HyperParams:
    """Model and chain hyperparameters.

    ``alpha_prior_shape/scale`` parameterize the Gamma prior on the mass
    parameter; ``c`` and ``sigma`` shape the feature-weight measure (power
    law for sigma > 0); ``nb_r``/``nb_p`` give the negative binomial over
    per-row feature counts; ``alpha_b``/``mu_b`` are the loading shape and
    mean; the remaining fields control truncation and the chain schedule,
    whose only home is here.  Fields are typed by ``typed_fields``.
    """

    alpha_prior_shape: float = 1.0
    alpha_prior_scale: float = 1.0
    c: float = 50.0
    sigma: float = SIGMA_CEILING
    nb_r: float = 1.0
    nb_p: float = 0.1
    alpha_b: float = 0.01
    mu_b: float = 1.0
    k_max: int = 50
    eps_trunc: float = 1e-6
    burn_in: int = 30_000
    n_samples: int = 1_000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        typed_fields(self)
        if self.sigma == 1.0:
            warnings.warn(
                f"sigma=1 is outside the supported range [0, 1); using {SIGMA_CEILING}",
                UserWarning,
                stacklevel=2,
            )
            object.__setattr__(self, "sigma", SIGMA_CEILING)
        from .priors import _check_weight_law, levy_exposure_mass  # priors imports this module
        _check_weight_law(1.0, self.c, self.sigma, self.eps_trunc)
        if not self.c + self.sigma >= MIN_C_PLUS_SIGMA:
            raise DomainError(f"c + sigma must be at least {MIN_C_PLUS_SIGMA}, got c={self.c}, sigma={self.sigma}")
        for name in ("alpha_prior_shape", "alpha_prior_scale", "nb_r", "alpha_b", "mu_b"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.nb_p < 1.0:
            raise DomainError(f"nb_p must lie in (0, 1), got {self.nb_p}")
        for name, least in (("k_max", 1), ("burn_in", 0), ("n_samples", 1), ("thin", 1)):
            if getattr(self, name) < least:
                raise DomainError(f"{name} must be at least {least}, got {getattr(self, name)}")
        _check_seed(self.seed, "seed")
        try:
            levy_exposure_mass(self.eps_trunc, self.c, self.sigma)
        except NumericsError as exc:
            raise DomainError(f"no finite positive exposure mass at these c, sigma, eps_trunc: {exc}") from None

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return dataclass_from_dict(cls, d)

    def replace(self, **kw):
        return replace(self, **kw)

    def digest(self):
        return container.digest({}, self.to_dict())


def typed_fields(obj):
    """Check each field of the frozen dataclass ``obj`` against its declared
    type, storing an integral number in an int field as int and any number
    in a float field as float; a bool is no number.  Else a DomainError."""
    for name, hint in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if hint in (int, float):
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if number and (hint is float or isinstance(value, numbers.Integral) or float(value).is_integer()):
                object.__setattr__(obj, name, hint(value))
                continue
        elif isinstance(value, hint):
            continue
        raise DomainError(f"{type(obj).__name__} key {name!r} must be {getattr(hint, '__name__', hint)}, got {value!r}")


def dataclass_from_dict(cls, d):
    """Build the dataclass ``cls`` from a dict read from JSON; a ``hyper``
    entry becomes a HyperParams.  A key that names no field or a missing
    required field is a DomainError, and so is a value of the wrong type,
    which the constructor's ``typed_fields`` finds."""
    if not isinstance(d, dict):
        raise DomainError(f"{cls.__name__} must be given as a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise DomainError(f"unknown {cls.__name__} key(s): {', '.join(map(repr, unknown))}")
    missing = [f.name for f in fields(cls) if f.name not in d and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise DomainError(f"{cls.__name__} is missing required key(s): {', '.join(map(repr, missing))}")
    if "hyper" in d:
        d = {**d, "hyper": HyperParams.from_dict(d["hyper"])}
    return cls(**d)


@dataclass
class LatentState:
    """One configuration of the sampler: Z, B, pi, alpha and aux counts.

    ``aux`` maps an observed (row, col) cell with a positive count to a
    length-K integer vector splitting that count over features; cells
    absent from the map carry an all-zero split.  The sampler holds its
    split as one feature per count unit and builds this map only in
    ``ChainRunner.state_snapshot``; a chain started at a state
    (``ChainRunner(data, mask, config, state=...)``) ignores it.
    """

    z: np.ndarray
    b: np.ndarray
    pi: np.ndarray
    alpha: float
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.int8)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.pi = np.asarray(self.pi, dtype=np.float64)
        if self.z.ndim != 2 or self.b.ndim != 2 or self.pi.ndim != 1:
            raise DomainError("z must be (n, k), b must be (k, d), pi must be (k,)")
        k = self.z.shape[1]
        if self.b.shape[0] != k or self.pi.shape[0] != k:
            raise DomainError("z, b and pi disagree on the number of features")
        if not np.isin(self.z, (0, 1)).all():
            raise DomainError("z must be binary")
        if np.any(self.b < 0) or not np.all(np.isfinite(self.b)):
            raise DomainError("loadings must be finite and non-negative")
        if not float(self.alpha) > 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")

    def validate_against(self, data, mask, eps_trunc):
        """Raise InvariantError if any structural invariant is broken."""
        n, k = self.z.shape
        if n != data.n_rows or self.b.shape[1] != data.n_cols:
            raise InvariantError("state shape disagrees with data shape")
        if np.any(self.pi < eps_trunc) or np.any(self.pi >= 1.0):
            raise InvariantError("a feature weight lies outside [eps_trunc, 1)")
        cells = np.array(list(self.aux), dtype=np.int64).reshape(-1, 2)
        r, c = cells.T
        vectors = list(self.aux.values())
        observed = data.counts_at(r, c)
        malformed, bad_sum, inactive = (np.zeros(cells.shape[0], dtype=bool) for _ in range(3))
        # the vectors are read _VALIDATE_CHUNK at a time, so no (cells x K)
        # array is built
        for lo in range(0, cells.shape[0], _VALIDATE_CHUNK):
            part = slice(lo, lo + _VALIDATE_CHUNK)
            try:
                vecs = np.array(vectors[part], dtype=np.int64).reshape(len(vectors[part]), k)
            except ValueError:
                raise InvariantError(f"aux vectors must each have shape ({k},)") from None
            malformed[part] = (vecs < 0).any(axis=1)
            bad_sum[part] = vecs.sum(axis=1) != observed[part]
            inactive[part] = ((vecs > 0) & (self.z[r[part]] == 0)).any(axis=1)
        for bad, what in (
            (mask.is_held_out(r, c), "is stored for a held-out cell"),
            (malformed, "is malformed"),
            (bad_sum, "does not sum to the observed count"),
            (inactive, "allocates mass to an inactive feature"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                raise InvariantError(f"aux at ({r[i]}, {c[i]}) {what}")
        missing = ~mask.is_held_out(data.rows, data.cols) & ~np.isin(data._flat, r * data.n_cols + c)
        if missing.any():
            i = int(np.argmax(missing))
            raise InvariantError(f"missing aux for observed positive cell ({data.rows[i]}, {data.cols[i]})")


@dataclass
class PosteriorSummary:
    """Retained samples and their running summaries.

    The fields declare the summary file's format (``to_records``), and each
    per-draw field its dtype (``per_draw_dtypes``).  ``runtime_seconds`` is
    wall-clock metadata and is deliberately excluded from the canonical
    serialized payload so fixed-seed reruns are byte-identical.
    """

    z_samples: np.ndarray = field(metadata={"per_draw": np.dtype(np.int8)})
    b_samples: np.ndarray = field(metadata={"per_draw": np.dtype(np.float64)})
    pi_samples: np.ndarray = field(metadata={"per_draw": np.dtype(np.float64)})
    alpha_samples: np.ndarray = field(metadata={"per_draw": np.dtype(np.float64)})
    kplus_trace: np.ndarray = field(metadata={"per_draw": np.dtype(np.int64)})
    z_mean: np.ndarray
    b_mean: np.ndarray
    pi_accept_rate: float
    hyper: HyperParams
    runtime_seconds: float = 0.0

    def __post_init__(self):
        for name, dtype in self.per_draw_dtypes().items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({getattr(self, name).shape[0] for name in self.per_draw_dtypes()}) > 1:
            raise InvariantError("sample stacks disagree on the number of retained samples")
        if self.n_samples:
            counted = (self.z_samples.any(axis=1)).sum(axis=1)
            if not np.array_equal(counted, self.kplus_trace):
                raise InvariantError("kplus trace disagrees with retained Z samples (K+ must count non-empty columns)")

    @classmethod
    def per_draw_dtypes(cls):
        """The per-draw fields' names and dtypes, in declaration order."""
        return {f.name: f.metadata["per_draw"] for f in fields(cls) if "per_draw" in f.metadata}

    @property
    def n_samples(self):
        return int(self.z_samples.shape[0])

    @property
    def truncation_share(self):
        """The share of retained draws with K+ = k_max; over half, the truncation binds."""
        return float(np.mean(self.kplus_trace == self.hyper.k_max))

    def to_records(self):
        """The summary as (arrays, meta) for ``write_records``: array fields
        become arrays, ``hyper`` a dict and ``runtime_seconds`` is left out."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "runtime_seconds"}
        arrays = {name: v for name, v in values.items() if isinstance(v, np.ndarray)}
        meta = {name: v for name, v in values.items() if name not in arrays}
        return arrays, {**meta, "hyper": self.hyper.to_dict()}

    @classmethod
    def from_records(cls, arrays, meta):
        """Inverse of ``to_records`` (wall-clock time comes back as zero)."""
        records = {**meta, **arrays, "hyper": HyperParams.from_dict(meta["hyper"])}
        return cls(**{f.name: records[f.name] for f in fields(cls) if f.name != "runtime_seconds"})


# ---------------------------------------------------------------------------
# densities


def poisson_log_pmf(x, lam):
    """log Poisson pmf, broadcasting over arrays.

    A rate of zero is the point mass at zero: log pmf is 0 for x = 0 and
    -inf for x > 0.
    """
    x = np.asarray(_whole(x, "x"), dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.size and (np.any(lam < 0) or not np.all(np.isfinite(lam))):
        raise DomainError("rates must be finite and non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        core = x * np.log(lam) - lam - gammaln(x + 1.0)
    at_zero = np.where(x == 0, 0.0, -np.inf)
    out = np.where(lam > 0, core, at_zero)
    if out.ndim == 0:
        return float(out)
    return out


def negbin_log_pmf(s, r, p):
    """log negative binomial pmf: P(s) = G(s+r)/(G(r) s!) p^r (1-p)^s.

    The mean under this orientation is r (1 - p) / p.
    """
    if not (r > 0 and 0.0 < p < 1.0):
        raise DomainError("need r > 0 and p in (0, 1)")
    s = _whole(s, "s")
    return float(
        math.lgamma(s + r) - math.lgamma(r) - math.lgamma(s + 1) + r * math.log(p) + s * math.log1p(-p)
    )


def negbin_row_sum_log_pmf(r, p, k_max):
    """Clamped negative binomial over {0..k_max}: the upper cell absorbs the tail.

    Matches the distribution of min(S, k_max) for S negative binomial, so it
    is exactly the law induced by drawing and clamping.  The result always
    has full support (the tail cell is at least the bare pmf at k_max).
    """
    body = np.array([negbin_log_pmf(s, r, p) for s in range(_whole(k_max, "k_max", 1) + 1)])
    head_mass = float(np.exp(body[:-1]).sum())
    tail = max(1.0 - head_mass, float(np.exp(body[-1])))
    out = body.copy()
    out[-1] = math.log(tail)
    return out


# ---------------------------------------------------------------------------
# revealed-comparative-advantage preprocessing


def rca_index(raw, row_labels=None, col_labels=None):
    """Balassa index: (cell share of its row) / (column share of the total).

    Rows and columns must all have positive mass, otherwise the index is
    undefined for them; the error names the first such row or column by its
    label (r0, r1, ... and c0, c1, ... when no labels are given).
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2:
        raise DomainError("expected a 2-d array")
    if row_labels is not None:
        row_labels = _check_labels(row_labels, raw.shape[0], "row")
    if col_labels is not None:
        col_labels = _check_labels(col_labels, raw.shape[1], "column")
    if np.any(raw < 0) or not np.all(np.isfinite(raw)):
        raise DomainError("raw values must be finite and non-negative")
    row_tot = raw.sum(axis=1)
    col_tot = raw.sum(axis=0)
    for kind, tot, labels in (("row", row_tot, row_labels), ("column", col_tot, col_labels)):
        for i in np.flatnonzero(tot == 0):
            label = f"{kind[0]}{i}" if labels is None else labels[i]
            raise DomainError(f"{kind} {label!r} has zero total; its shares are undefined")
    total = raw.sum()
    share = raw / row_tot[:, None]
    world = col_tot / total
    return share / world[None, :]


def rca_transform(raw, mode="round", row_labels=None, col_labels=None):
    """Discretize the Balassa index of a raw non-negative matrix into counts.

    mode="round" rounds the index to the nearest integer; mode="binary"
    thresholds at 1.  rca_index checks the values and labels, and names an
    all-zero row or column by its label.
    """
    if mode not in ("round", "binary"):
        raise DomainError(f"unknown rca mode {mode!r} (expected 'round' or 'binary')")
    rca = rca_index(raw, row_labels, col_labels)
    counts = (np.rint(rca) if mode == "round" else rca >= 1.0).astype(np.int64)
    return CountMatrix.from_dense(counts, row_labels, col_labels)
