"""Problem instances, advice vectors, constraint sources and solver knobs.

External formats are JSON with numbers as decimal text, so parse followed by
serialize is the identity on the parsed values (floats round-trip exactly).
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from operator import index, itemgetter
from typing import Callable

import numpy as np

from .errors import (
    AdviceAboveCap,
    AsymmetricMatrix,
    EmptyRow,
    LambdaOutOfRange,
    LengthMismatch,
    MalformedDocument,
    NegativeAdvice,
    NegativeEntry,
    NonMonotoneB,
    NonPositiveCost,
    NotPsd,
)
from .symmetric import is_psd, min_eigpair

SparseRow = list[tuple[int, float]]
TOL_SYM = 1e-8   # relative asymmetry an SDP instance's matrices may carry
TOL_PSD = 1e-7   # relative PSD slack of SDP instance validation


@dataclass
class SolverParams:
    """Numeric tolerances and safety caps shared by all solvers."""

    tol_feas: float = 1e-7     # a row counts as satisfied at value >= 1 - tol_feas
    tol_psd: float = 1e-7      # relative PSD slack for separation / validation
    max_phase: int = 200       # hard cap on guess-and-double restarts
    initial_alpha: float | None = None  # override the first cost estimate (diagnostics)
    trace: bool = False        # collect per-round step reports on the state

    def __post_init__(self):
        for name in ("tol_feas", "tol_psd"):
            if getattr(self, name) <= 0:
                raise MalformedDocument(f"{name} must be positive")
        if self.max_phase < 1:
            raise MalformedDocument("max_phase must be >= 1")
        if self.initial_alpha is not None and \
                not (np.isfinite(self.initial_alpha) and self.initial_alpha > 0):
            raise MalformedDocument("initial_alpha must be finite and positive")


@dataclass
class CoveringLpInstance:
    """min c.x subject to A x >= 1, x >= 0 (and x <= 1 when boxed).

    Rows are sparse (column, value) pairs in arrival order; they may be empty
    when constraints come from a separation oracle instead.
    `make_lp_instance` stores each row as a `Row`, checked once, which every
    solver takes without checking it again. Treat instances as immutable once
    built: solver states share the arrays.
    """

    n: int
    c: np.ndarray
    rows: list[Row]
    boxed: bool = False


@dataclass
class CoveringSdpInstance:
    """min c.x subject to sum_j A_j x_j >= B_i (PSD order), 0 <= x (<= 1 boxed).

    The targets B_i arrive as a monotone stream of PSD matrices;
    `make_sdp_instance` makes them read-only. Treat instances as immutable
    once built: solver states share A and the targets.
    """

    n: int
    d: int
    c: np.ndarray
    A: np.ndarray               # (n, d, d), the A_j stacked
    B_stream: list[np.ndarray]
    boxed: bool = False


@dataclass
class AdviceVector:
    """A suggested solution plus a confidence dial.

    lam = 0 trusts the suggestion fully, lam = 1 ignores it. The suggestion
    is never required to be feasible.
    """

    x_prime: np.ndarray
    lam: float


@dataclass
class ConstraintSource:
    """Either a fixed row list or a separation callback x -> violated row."""

    rows: list[SparseRow] | None = None
    oracle: Callable[[np.ndarray], SparseRow | None] | None = None

    def __post_init__(self):
        if (self.rows is None) == (self.oracle is None):
            raise MalformedDocument("provide exactly one of rows or oracle")


# --- validation helpers -------------------------------------------------------


def cost_vector(raw, n: int) -> np.ndarray:
    """The costs as a float array: n of them, finite and positive."""
    c = np.asarray(raw, dtype=float)
    if c.shape != (n,):
        raise LengthMismatch(f"cost vector has shape {c.shape}, expected ({n},)")
    if not np.all(np.isfinite(c)):
        raise MalformedDocument("costs must be finite")
    if np.any(c <= 0):
        raise NonPositiveCost("all costs must be strictly positive")
    return c


class Row(Sequence):
    """A sparse row that `row_arrays` checked against `n` columns.

    It owns read-only `idx` (int64) and `vals` (float64) arrays and reads as
    a sequence of `(column, value)` pairs of Python ints and floats, as
    `validate_row` returns them. `row_arrays` hands out a Row's own arrays
    for any `n` at least the Row's, without checking them again. The
    constructor trusts its arrays: build a Row as
    `Row(*row_arrays(row, n), n)`, or from arrays that pass by construction.
    """

    __slots__ = ("idx", "vals", "n")
    __hash__ = None

    def __init__(self, idx: np.ndarray, vals: np.ndarray, n: int):
        # Copies, so the Row owns its arrays: the array check's `vals` is a
        # view that would keep its 2 x k temporary alive.
        self.idx = np.array(idx, dtype=np.int64)
        self.vals = np.array(vals, dtype=float)
        self.idx.flags.writeable = False
        self.vals.flags.writeable = False
        self.n = n

    def __len__(self) -> int:
        return self.idx.size

    def __iter__(self):
        return zip(self.idx.tolist(), self.vals.tolist())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(zip(self.idx[i].tolist(), self.vals[i].tolist()))
        return int(self.idx[i]), float(self.vals[i])

    def __eq__(self, other):
        if type(other) is Row:
            return bool(np.array_equal(self.idx, other.idx)
                        and np.array_equal(self.vals, other.vals))
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Row({list(self)!r}, n={self.n})"


def row_arrays(row: Sequence, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Check one sparse row and return it as `(idx, vals)` arrays: integral,
    non-boolean column indices in range, no duplicates, finite non-negative
    values, a positive entry.

    A `Row` checked at no more than `n` columns passes as its own read-only
    arrays. A long numeric (k, 2) row is checked as whole arrays. A short
    row, one that numpy cannot read as such an array, or one that fails a
    check, is checked entry by entry instead, so errors name the first bad
    entry whichever path the row took.
    """
    if type(row) is Row and row.n <= n:
        return row.idx, row.vals
    arrays = _checked_arrays(row, n)
    if arrays is None:
        clean = _checked_entries(row, n)
        arrays = (np.fromiter((j for j, _ in clean), dtype=np.int64,
                              count=len(clean)),
                  np.fromiter((v for _, v in clean), dtype=float,
                              count=len(clean)))
    return arrays


def validate_row(row: Sequence, n: int) -> SparseRow:
    """Check one sparse row (see `row_arrays`) and return it as a list of
    (column, value) pairs."""
    idx, vals = row_arrays(row, n)
    return list(zip(idx.tolist(), vals.tolist()))


_BOOL_TYPES = frozenset({bool, np.bool_})
# The array check costs about a dozen numpy calls at any length, so rows
# shorter than this (the group Steiner cuts, say) are cheaper entry by entry.
_MIN_ARRAY_ROW = 16


def _checked_arrays(row, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """`(idx, vals)` of a numeric row of at least `_MIN_ARRAY_ROW` entries
    that passes every check, else None.

    Only integer and float arrays are taken: numpy parses strings in its own
    way, and these convert entry by entry exactly as int() and float() do.
    Boolean columns would pass as 0.0 and 1.0, so their types are looked at.
    """
    try:
        if len(row) < _MIN_ARRAY_ROW:
            return None
        a = np.array(row)
        if a.dtype.kind not in "iuf" or a.ndim != 2 or a.shape[1] != 2 \
                or not _BOOL_TYPES.isdisjoint(map(type, map(itemgetter(0), row))):
            return None
    except (TypeError, ValueError, OverflowError):
        return None
    # Contiguous rows: a strided vals would change the BLAS summation order.
    cols, vals = np.array(a.T, dtype=float, order="C")
    s = np.sort(cols)   # NaN sorts last
    if not (0.0 <= s[0] and s[-1] < n and np.all(s[1:] > s[:-1])):
        return None
    idx = cols.astype(np.int64)
    if not np.array_equal(idx, cols):
        return None
    if not (vals.min() >= 0.0 and 0.0 < vals.max() < np.inf):
        return None
    return idx, vals


def _checked_entries(row, n: int) -> SparseRow:
    """The per-entry check behind `row_arrays`; raises on the first bad entry.

    It takes any iterable of pairs, numeric strings included.
    """
    clean: SparseRow = []
    seen = set()
    for pair in row:
        try:
            raw, v = pair
            j = int(raw)
            v = float(v)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedDocument(f"bad row entry {pair!r}") from exc
        if type(raw) in _BOOL_TYPES:
            raise MalformedDocument(
                f"boolean column index in row entry {pair!r}")
        if j != raw and not isinstance(raw, (str, bytes)):
            raise MalformedDocument(
                f"non-integral column index in row entry {pair!r}")
        if not 0 <= j < n:
            raise MalformedDocument(f"column {j} out of range for n={n}")
        if j in seen:
            raise MalformedDocument(f"duplicate column {j} in row")
        if not np.isfinite(v):
            raise MalformedDocument("row entries must be finite")
        if v < 0:
            raise NegativeEntry(f"negative coefficient {v} at column {j}")
        seen.add(j)
        clean.append((j, v))
    if not any(v > 0 for _, v in clean):
        raise EmptyRow("row has no positive entry and can never be covered")
    return clean


def _positive_int(value, message: str) -> int:
    """value as an int when it is an integer >= 1 (numpy integers included,
    bool not); otherwise MalformedDocument(message)."""
    try:
        count = None if isinstance(value, bool) else index(value)
    except TypeError:
        count = None
    if count is None or count < 1:
        raise MalformedDocument(message)
    return count


def make_lp_instance(n, c, rows, boxed=False) -> CoveringLpInstance:
    n = _positive_int(n, "n must be a positive integer")
    cv = cost_vector(c, n)
    checked = [Row(*row_arrays(r, n), n) for r in rows]
    return CoveringLpInstance(n=n, c=cv, rows=checked, boxed=bool(boxed))


def parse_lp_instance(text: str) -> CoveringLpInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("top level must be an object")
    try:
        n = doc["n"]
        c = doc["c"]
        rows = doc["rows"]
        boxed = doc.get("boxed", False)
    except KeyError as exc:
        raise MalformedDocument(f"missing field {exc}") from exc
    if not isinstance(boxed, bool):
        raise MalformedDocument("boxed must be a boolean")
    if not isinstance(rows, list):
        raise MalformedDocument("rows must be a list")
    return make_lp_instance(n, c, rows, boxed)


def serialize_lp_instance(inst: CoveringLpInstance) -> str:
    doc = {
        "n": inst.n,
        "c": [float(v) for v in inst.c],
        "boxed": inst.boxed,
        "rows": [[[j, float(v)] for j, v in row] for row in inst.rows],
    }
    return json.dumps(doc)


def normalize_box_bounds(n, c, rows, u):
    """Rescale a box-constrained instance with general upper bounds u to u = 1.

    Column j is substituted x_j = u_j * t_j, so costs become c_j * u_j and row
    entries a_ij * u_j. Returns the normalized instance plus u for de-scaling
    solutions. The JSON format only carries normalized instances.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise LengthMismatch("u has wrong length")
    if np.any(u <= 0) or not np.all(np.isfinite(u)):
        raise MalformedDocument("upper bounds must be positive and finite")
    scaled_rows = [[(j, v * u[j]) for j, v in row] for row in rows]
    scaled_c = np.asarray(c, dtype=float) * u
    return make_lp_instance(n, scaled_c, scaled_rows, boxed=True), u


# --- SDP ---------------------------------------------------------------------


def _as_psd_matrix(raw, d: int, what: str) -> np.ndarray:
    """raw as a d x d matrix, checked finite, symmetric and PSD."""
    m = np.asarray(raw, dtype=float)
    if m.size != d * d:
        raise LengthMismatch(f"{what} has {m.size} entries, expected {d * d}")
    m = m.reshape(d, d)
    if not np.all(np.isfinite(m)):
        raise MalformedDocument(f"{what} must be finite")
    scale = max(1.0, float(np.linalg.norm(m)))
    if np.max(np.abs(m - m.T)) > TOL_SYM * scale:
        raise AsymmetricMatrix(f"{what} is not symmetric within tolerance")
    m = 0.5 * (m + m.T)
    if not is_psd(m, TOL_PSD):
        raise NotPsd(f"{what} has eigenvalue {min_eigpair(m)[0]}")
    return m


def make_sdp_instance(n, d, c, A, B_stream,
                      boxed=False) -> CoveringSdpInstance:
    n, d = (_positive_int(v, "n and d must be positive integers")
            for v in (n, d))
    cv = cost_vector(c, n)
    if len(A) != n:
        raise LengthMismatch(f"got {len(A)} action matrices, expected {n}")
    mats = [_as_psd_matrix(raw, d, f"A[{j}]") for j, raw in enumerate(A)]
    if len(B_stream) < 1:
        raise MalformedDocument("B stream must be nonempty")
    targets = []
    prev = np.zeros((d, d))
    for i, raw in enumerate(B_stream):
        b = _as_psd_matrix(raw, d, f"B[{i}]")
        # The monotone test process_matrix makes: the floor is relative to
        # the newer target's norm.
        if not is_psd(b - prev, TOL_PSD, scale=float(np.linalg.norm(b))):
            raise NonMonotoneB(f"B[{i}] is not >= B[{i - 1}] (eigenvalue "
                               f"{min_eigpair(b - prev)[0]})")
        # Frozen, so solvers can keep the target without copying it.
        b.setflags(write=False)
        targets.append(b)
        prev = b
    return CoveringSdpInstance(n=n, d=d, c=cv, A=np.stack(mats),
                               B_stream=targets, boxed=bool(boxed))


def parse_sdp_instance(text: str) -> CoveringSdpInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("top level must be an object")
    try:
        n, d, c, A, B = doc["n"], doc["d"], doc["c"], doc["A"], doc["B"]
    except KeyError as exc:
        raise MalformedDocument(f"missing field {exc}") from exc
    boxed = doc.get("boxed", False)
    if not isinstance(boxed, bool):
        raise MalformedDocument("boxed must be a boolean")
    return make_sdp_instance(n, d, c, A, B, boxed)


def serialize_sdp_instance(inst: CoveringSdpInstance) -> str:
    doc = {
        "n": inst.n,
        "d": inst.d,
        "c": [float(v) for v in inst.c],
        "A": [[float(v) for v in m.ravel()] for m in inst.A],
        "B": [[float(v) for v in m.ravel()] for m in inst.B_stream],
        "boxed": inst.boxed,
    }
    return json.dumps(doc)


# --- advice ------------------------------------------------------------------


def validate_advice(x_prime, lam, n: int, boxed: bool) -> AdviceVector:
    x = np.asarray(x_prime, dtype=float)
    if x.shape != (n,):
        raise LengthMismatch(f"advice has shape {x.shape}, expected ({n},)")
    if not np.all(np.isfinite(x)):
        raise MalformedDocument("advice must be finite")
    if np.any(x < 0):
        raise NegativeAdvice("advice entries must be nonnegative")
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise LambdaOutOfRange(f"lambda {lam} outside [0, 1]")
    if boxed and np.any(x > 1.0 + 1e-12):
        raise AdviceAboveCap("boxed advice entries must be at most 1")
    return AdviceVector(x_prime=x, lam=lam)


def parse_advice(text: str, n: int, boxed: bool) -> AdviceVector:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "lambda" not in doc or "x" not in doc:
        raise MalformedDocument('advice document needs "lambda" and "x"')
    return validate_advice(doc["x"], doc["lambda"], n, boxed)


def serialize_advice(adv: AdviceVector) -> str:
    return json.dumps({"lambda": adv.lam, "x": [float(v) for v in adv.x_prime]})
