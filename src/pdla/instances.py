"""Problem instances, advice vectors and solver knobs.

External formats are JSON with numbers as decimal text, so parse followed by
serialize is the identity on the parsed values (floats round-trip exactly).
"""
from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import index

import numpy as np

from .errors import (
    AdviceAboveCap,
    AsymmetricMatrix,
    DimensionMismatch,
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
from .symmetric import (TOL_PSD, TOL_SYM, frobenius_norm, min_eigpair,
                        psd_at_floor)

SparseRow = list[tuple[int, float]]
BOXED_FLAG = "boxed must be a boolean"


@dataclass
class SolverParams:
    """Numeric tolerances and safety caps shared by all solvers."""

    tol_feas: float = 1e-7     # a row counts as satisfied at value >= 1 - tol_feas
    tol_psd: float = TOL_PSD   # relative PSD slack for separation / validation
    max_phase: int = 200       # hard cap on guess-and-double restarts
    initial_alpha: float | None = None  # override the first cost estimate (diagnostics)
    trace: bool = False        # collect one dict per growth step on the state

    def __post_init__(self):
        for name in ("tol_feas", "tol_psd"):
            # A slack of 1 or more counts every constraint as met at x = 0.
            if not 0.0 < as_number(getattr(self, name), name) < 1.0:
                raise MalformedDocument(f"{name} must lie in (0, 1)")
        self.max_phase = as_count(self.max_phase,
                                  "max_phase must be an integer >= 1")
        if self.initial_alpha is not None and \
                not 0.0 < as_number(self.initial_alpha, "initial_alpha") < np.inf:
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

    lam = 0 trusts the suggestion fully. lam = 1 shares the growth
    uniformly, but the suggestion still caps each phase's start point and
    its advice events still split growth steps (ROADMAP item 17). The
    suggestion is never required to be feasible. Built, x_prime is finite,
    nonnegative numbers (a float array) and lam one number in [0, 1]; the
    length and the box cap are `validate_advice`'s to check.
    """

    x_prime: np.ndarray
    lam: float

    def __post_init__(self):
        self.x_prime = x = as_numbers(self.x_prime, "advice x")
        if not np.all(np.isfinite(x)):
            raise MalformedDocument("advice must be finite")
        if np.any(x < 0):
            raise NegativeAdvice("advice entries must be nonnegative")
        self.lam = as_number(self.lam, "lambda")
        if not 0.0 <= self.lam <= 1.0:
            raise LambdaOutOfRange(f"lambda {self.lam} outside [0, 1]")


# --- validation helpers -------------------------------------------------------
# Each number passes as_numbers (or as_number), each integer as_integer (a
# count, as_count) and each flag as_flag, in the constructor that takes it;
# the JSON readers only parse. Rows keep their own rule (`row_arrays`).

_BOOL_TYPES = frozenset({bool, np.bool_})
_NUMBER_TYPES = (int, float, np.integer, np.floating)


def _holds_numbers(raw) -> bool:
    """Whether raw is a number, an int or float array, or lists of these;
    a bool is no number."""
    if isinstance(raw, np.ndarray):
        return raw.dtype.kind in "iuf"
    if isinstance(raw, (list, tuple)):
        return all(map(_holds_numbers, raw))
    return isinstance(raw, _NUMBER_TYPES) and type(raw) is not bool


def as_numbers(raw, what: str) -> np.ndarray:
    """raw as a float array: a Python or numpy int or float, an int or float
    array, or (nested) lists or tuples of these. A bool, a string, None or a
    ragged list is a MalformedDocument that names what."""
    if not _holds_numbers(raw):
        raise MalformedDocument(f"{what} must be numbers, not booleans, "
                                "strings or null")
    try:
        return np.asarray(raw, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise MalformedDocument(f"{what} must be numbers: {exc}") from None


def as_number(raw, what: str) -> float:
    """raw, one number by as_numbers' rule, as a float."""
    value = as_numbers(raw, what)
    if value.ndim:
        raise MalformedDocument(f"{what} must be a number, not a list")
    return float(value)


def as_integer(raw, message: str) -> int:
    """raw as an int when it is a Python or numpy integer, not a bool;
    otherwise MalformedDocument(message)."""
    if type(raw) not in _BOOL_TYPES:
        try:
            return index(raw)
        except TypeError:
            pass
    raise MalformedDocument(message)


def as_count(raw, message: str, least: int = 1) -> int:
    """raw as an int (`as_integer`) that is at least `least`; otherwise
    MalformedDocument(message)."""
    value = as_integer(raw, message)
    if value < least:
        raise MalformedDocument(message)
    return value


def as_flag(raw, message: str) -> bool:
    """raw as a Python bool when it is a Python or numpy bool; otherwise
    MalformedDocument(message)."""
    if type(raw) not in _BOOL_TYPES:
        raise MalformedDocument(message)
    return bool(raw)


def as_vector(raw, n: int, what: str) -> np.ndarray:
    """raw as n numbers (`as_numbers`) of shape (n,), else LengthMismatch."""
    x = as_numbers(raw, what)
    if x.shape != (n,):
        raise LengthMismatch(f"{what} has wrong length {x.shape}, "
                             f"expected ({n},)")
    return x


def cost_vector(raw, n: int) -> np.ndarray:
    """The costs as n numbers (`as_vector`), finite and positive."""
    c = as_vector(raw, n, "costs")
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
        # Copies, so the Row owns its arrays and freezing them leaves the
        # caller's arrays writable.
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
    arrays. Any other row is checked entry by entry, and an error names the
    first bad entry.
    """
    if type(row) is Row and row.n <= n:
        return row.idx, row.vals
    clean = _checked_entries(row, n)
    return (np.fromiter((j for j, _ in clean), dtype=np.int64,
                        count=len(clean)),
            np.fromiter((v for _, v in clean), dtype=float, count=len(clean)))


def validate_row(row: Sequence, n: int) -> SparseRow:
    """Check one sparse row (see `row_arrays`) and return it as a list of
    (column, value) pairs."""
    idx, vals = row_arrays(row, n)
    return list(zip(idx.tolist(), vals.tolist()))


def _checked_entries(row, n: int) -> SparseRow:
    """The per-entry check behind `row_arrays`; raises on the first bad entry.

    It takes any iterable of pairs, numeric strings included.
    """
    try:
        pairs = iter(row)
    except TypeError:
        raise MalformedDocument("a row must be a list of (column, value) "
                                f"pairs, not {type(row).__name__}") from None
    clean: SparseRow = []
    seen = set()
    for pair in pairs:
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


def make_lp_instance(n, c, rows, boxed=False) -> CoveringLpInstance:
    boxed = as_flag(boxed, BOXED_FLAG)
    n = as_count(n, "n must be a positive integer")
    cv = cost_vector(c, n)
    try:
        rows = iter(rows)
    except TypeError:
        raise MalformedDocument("rows must be a list of rows") from None
    checked = [r if type(r) is Row and r.n == n else Row(*row_arrays(r, n), n)
               for r in rows]
    return CoveringLpInstance(n=n, c=cv, rows=checked, boxed=boxed)


def _document(text: str, *fields: str) -> dict:
    """The JSON object text holds, which must have every field named."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("top level must be an object")
    for name in fields:
        if name not in doc:
            raise MalformedDocument(f"missing field {name!r}")
    return doc


def parse_lp_instance(text: str) -> CoveringLpInstance:
    doc = _document(text, "n", "c", "rows")
    rows = doc["rows"]
    if not isinstance(rows, list):
        raise MalformedDocument("rows must be a list")
    return make_lp_instance(doc["n"], doc["c"], rows, doc.get("boxed", False))


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
    inst = make_lp_instance(n, c, rows, boxed=True)
    u = as_vector(u, inst.n, "upper bounds")
    if np.any(u <= 0) or not np.all(np.isfinite(u)):
        raise MalformedDocument("upper bounds must be positive and finite")
    # Scaling breaks the checked costs and rows only by an overflow or by
    # zeroing a cost or a whole row: cost_vector refuses such costs, and
    # row_arrays, called on such a row only, raises the row rule's error.
    with np.errstate(over="ignore"):
        cu = cost_vector(inst.c * u, inst.n)
        scaled = []
        for r in inst.rows:
            vals = r.vals * u[r.idx]
            if not (np.isfinite(vals).all() and vals.any()):
                row_arrays(list(zip(r.idx.tolist(), vals.tolist())), inst.n)
            scaled.append(Row(r.idx, vals, inst.n))
    return CoveringLpInstance(n=inst.n, c=cu, rows=scaled, boxed=True), u


# --- SDP ---------------------------------------------------------------------


def as_matrix(raw, d: int, what: str) -> tuple[np.ndarray, float]:
    """raw as a d x d float array (`as_numbers`) and its Frobenius norm: the
    one check of an SDP matrix input, which names what. DimensionMismatch
    unless it is exactly d x d; MalformedDocument unless its entries are
    finite, then unless its norm is."""
    m = as_numbers(raw, what)
    if m.shape != (d, d):
        raise DimensionMismatch(f"{what} is {m.shape}, expected {(d, d)}")
    norm = frobenius_norm(m)
    if not math.isfinite(norm):
        # Only a norm that is not finite can hide a non-finite entry.
        if not np.isfinite(m).all():
            raise MalformedDocument(f"{what} must be finite")
        # A floor of inf would count every matrix as PSD.
        raise MalformedDocument(f"{what} is too large: its norm overflows")
    return m, norm


def _as_psd_matrix(raw, d: int, what: str) -> tuple[np.ndarray, float]:
    """raw, d * d numbers in any nesting, as a new, exactly symmetric d x d
    matrix that passed `as_matrix`, symmetric within TOL_SYM and PSD within
    TOL_PSD; and its Frobenius norm."""
    m = as_numbers(raw, what)
    if m.size != d * d:
        raise LengthMismatch(f"{what} has {m.size} entries, expected {d * d}")
    m, norm = as_matrix(m.reshape(d, d), d, what)
    asym = float(np.max(np.abs(m - m.T)))
    if asym > TOL_SYM * max(1.0, norm):
        raise AsymmetricMatrix(f"{what} is not symmetric within tolerance")
    m = 0.5 * (m + m.T)
    if asym:
        # Only a matrix that was not exactly symmetric changes its bits.
        norm = frobenius_norm(m)
    if not psd_at_floor(m, norm, TOL_PSD * max(1.0, norm)):
        raise NotPsd(f"{what} has eigenvalue {min_eigpair(m)[0]}")
    return m, norm


def make_sdp_instance(n, d, c, A, B_stream,
                      boxed=False) -> CoveringSdpInstance:
    boxed = as_flag(boxed, BOXED_FLAG)
    n, d = (as_count(v, "n and d must be positive integers") for v in (n, d))
    cv = cost_vector(c, n)
    try:
        A, B_stream = list(A), list(B_stream)
    except TypeError:
        raise MalformedDocument("A and B must be lists of matrices") from None
    if len(A) != n:
        raise LengthMismatch(f"got {len(A)} action matrices, expected {n}")
    mats = [_as_psd_matrix(raw, d, f"A[{j}]")[0] for j, raw in enumerate(A)]
    if len(B_stream) < 1:
        raise MalformedDocument("B stream must be nonempty")
    targets = []
    prev = np.zeros((d, d))
    for i, raw in enumerate(B_stream):
        b, norm = _as_psd_matrix(raw, d, f"B[{i}]")
        # The monotone test process_matrix makes: the floor is relative to
        # the newer target's norm. Both targets are exactly symmetric and
        # of finite norm, so their difference passes is_psd's checks.
        step = b - prev
        if not psd_at_floor(step, frobenius_norm(step),
                            TOL_PSD * max(1.0, norm)):
            raise NonMonotoneB(f"B[{i}] is not >= B[{i - 1}] (eigenvalue "
                               f"{min_eigpair(step)[0]})")
        # Frozen, so solvers can keep the target without copying it.
        b.setflags(write=False)
        targets.append(b)
        prev = b
    return CoveringSdpInstance(n=n, d=d, c=cv, A=np.stack(mats),
                               B_stream=targets, boxed=boxed)


def parse_sdp_instance(text: str) -> CoveringSdpInstance:
    doc = _document(text, "n", "d", "c", "A", "B")
    return make_sdp_instance(doc["n"], doc["d"], doc["c"], doc["A"], doc["B"],
                             doc.get("boxed", False))


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
    x = as_vector(x_prime, n, "advice x")
    adv = AdviceVector(x_prime=x, lam=lam)
    if boxed and np.any(x > 1.0 + 1e-12):
        raise AdviceAboveCap("boxed advice entries must be at most 1")
    return adv


def parse_advice(text: str, n: int, boxed: bool) -> AdviceVector:
    doc = _document(text, "lambda", "x")
    return validate_advice(doc["x"], doc["lambda"], n, boxed)


def serialize_advice(adv: AdviceVector) -> str:
    return json.dumps({"lambda": adv.lam, "x": [float(v) for v in adv.x_prime]})
