"""Canonical probability distributions, Lorenz curves, and seeded samplers.

Everything downstream operates on the canonical form: entries sorted in
non-increasing order and summing to one. The permutation back to the
caller's input order is kept alongside so results can be mapped back.
Distances are l1 distances between canonical vectors (maximum 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, TypeVar, Union

import numpy as np

from .config import DEFAULT_TAU_NORM
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidDeltaError,
    NegativeEntryError,
    NotNormalizedError,
    ZeroDimensionError,
    ZeroSumError,
)

ArrayLike = Union[Sequence[float], np.ndarray]
_T = TypeVar("_T")

# Step shrink of the ball-draw rule: both samplers scale delta over a
# step's l1 width by it, and must agree bit for bit.
_BALL_SHRINK = 1.0 - 1e-12

# Entries per block of sampled rows: the pair sampler's permutations and
# the oracle's ball rows are drawn this many at a time, at most.
_BLOCK_ENTRIES = 1 << 14


def _dirichlet(rng: np.random.Generator, shape: int | tuple[int, int]) -> np.ndarray:
    """rng.dirichlet(np.ones(k), size=n) bit for bit, in the same generator state.

    All-ones alpha makes numpy's gammas standard exponentials, which it scales
    by one over their sequential sum (Devroye 1986, ch. XI). A block of rows
    sums down the columns of its transposed copy, which is sequential and
    runs across rows at once; numpy sums a single column pairwise, so one
    row keeps the running sum.
    """
    e = rng.standard_exponential(shape)
    if e.ndim == 1 or e.shape[0] == 1:
        return e * (1.0 / np.add.accumulate(e, axis=-1)[..., -1:])
    return e * (1.0 / np.add.reduce(e.T.copy(), axis=0))[:, None]


def _canonical_order(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable descending order of a finite, non-negative vector, and its values.

    Bit for bit ``order = np.argsort(-arr, kind="stable")`` and ``arr[order]``
    (``-0.0`` sorts as ``0.0``), from one SIMD sort of packed uint64 keys
    instead of an index argsort. A key is the complement of the value's
    bits with the sign bit set, so larger values come first, with its low
    ceil(log2 k) bits replaced by the input index, so equal values keep
    input order; the order is the sorted keys masked to those bits. Values
    that differ only in the dropped bits share a block of equal high key
    bits and come out in index order; one stable argsort by value of the
    entries of every block that came out misordered puts them right, since
    blocks hold disjoint value ranges in descending order. The gathered
    values are a new array the caller may write.
    """
    k = arr.size
    sign = np.uint64(1 << 63)
    low = np.uint64((1 << (k - 1).bit_length()) - 1)
    keys = np.invert(arr.view(np.uint64))
    keys |= sign
    keys &= ~low
    keys |= np.arange(k, dtype=np.uint64)
    keys.sort()
    keys &= low
    order = np.asarray(keys.view(np.int64), dtype=np.intp)
    s = arr[order]
    bad = np.flatnonzero(s[1:] > s[:-1])
    if bad.size:
        # each block holds the values whose bits agree above `low`: from
        # bits & ~low up to bits | low, found in the ascending view of s
        bits = s[bad].view(np.uint64) & ~(sign | low)
        first = np.ones(bits.size, dtype=bool)
        np.not_equal(bits[1:], bits[:-1], out=first[1:])
        bits = bits[first]
        ascending = s[::-1]
        head = k - np.searchsorted(ascending, (bits | low).view(np.float64), "right")
        size = k - np.searchsorted(ascending, bits.view(np.float64), "left") - head
        at = np.repeat(head - np.cumsum(size) + size, size)
        at += np.arange(at.size)
        fix = at[np.argsort(-s[at], kind="stable")]
        order[at] = order[fix]
        s[at] = s[fix]
    return order, s


def check_delta(delta: float) -> float:
    """Validate a smoothing radius against [0, 2] and return it as float."""
    delta = float(delta)
    if not (0.0 <= delta <= 2.0):
        raise InvalidDeltaError(f"delta must lie in [0, 2], got {delta}")
    return delta


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector in canonical (non-increasing) order.

    Attributes
    ----------
    values : ndarray
        Probabilities sorted non-increasingly; nonnegative, sum within
        1e-7 of one.
    perm : ndarray
        Maps canonical index to the position the entry occupied in the
        caller's original vector: ``values[i] == original[perm[i]]``.
    """

    values: np.ndarray
    perm: np.ndarray

    def __post_init__(self) -> None:
        # copies: the caller's arrays stay writable and cannot change ours
        values = np.array(self.values, dtype=np.float64)
        perm = np.array(self.perm)
        if values.ndim != 1 or values.size == 0:
            raise EmptyInputError("distribution needs at least one entry")
        if not np.all(np.isfinite(values)):  # a lone NaN has no order pair to fail
            raise ValueError("values must be finite")
        if values[-1] < 0.0 or not np.all(values[:-1] >= values[1:]):
            raise ValueError("values must be non-increasing and nonnegative")
        # the public sum slack: only objects a caller builds reach this
        # check; objects the library builds are wrapped by _trusted
        if abs(float(values.sum()) - 1.0) > DEFAULT_TAU_NORM:
            raise NotNormalizedError(f"values sum to {values.sum()!r}")
        # dtype first: the intp cast would truncate a float or boolean perm
        if perm.dtype.kind not in "iu" or perm.shape != values.shape or not np.array_equal(
            np.sort(perm), np.arange(values.size)
        ):
            raise ValueError("perm is not a permutation of 0..k-1")
        perm = np.ascontiguousarray(perm, dtype=np.intp)
        values.setflags(write=False)
        perm.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "perm", perm)

    @property
    def k(self) -> int:
        return self.values.size

    @cached_property
    def _memo(self) -> dict:
        """What the library derived from values, kept for repeat calls.

        "lorenz" holds lorenz's curve; "steepest" and "flattest" the last
        SmoothedResult of each kind (smoothing._extremal); "gap" the worst
        prefix gap against its last, weakly held, partner (order._max_gap).
        Not a field, so not compared, pickled or copied.
        """
        return {}

    def __reduce__(self):
        # pickles and copies are rebuilt through the validator: new
        # write-locked arrays and nothing kept
        return (Distribution, (self.values, self.perm))

    def to_original_order(self) -> np.ndarray:
        """Return the entries permuted back to the caller's input order."""
        out = np.empty(self.k)
        out[self.perm] = self.values
        return out


def _trusted(cls: type[_T], **fields: object) -> _T:
    """Set library-built values as cls's fields, unchecked; freeze the arrays.

    Values from a caller are checked (Distribution, LorenzCurve,
    make_distribution, TTransform, TransferPlan); values the library
    builds are valid by construction. Callers pass contiguous float64
    values and intp perms:
    make_distribution its checked input in _canonical_order, divided by
    its finite sum; uniform and point_mass closed forms; the samplers
    clamped convex combinations of distributions, sorted by
    _canonical_order or a stable argsort (sample_delta_ball composes
    that sort with p's perm); steepest and flattest sorted,
    mass-keeping edits of p with p's perm; lorenz the prefix sums from 0
    of a canonical vector, and lorenz_steepest a copy of them shifted by
    delta/2 and capped at 1. transfer_plan passes Python int endpoints
    i < j < k, a t it has range-checked, and a tuple of such steps. Kept
    objects are shared by every later caller, so the write lock is what
    keeps them valid.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # plain fields: as object.__setattr__ would store them
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return obj


@dataclass(frozen=True, eq=False)
class LorenzCurve:
    """Prefix-sum polyline of a canonical distribution.

    ``cumulative[l]`` is the mass of the l largest entries, for
    l = 0..k; the origin point (0, 0) is always included.
    """

    cumulative: np.ndarray

    def __post_init__(self) -> None:
        cum = np.array(self.cumulative, dtype=np.float64)  # a copy, as in Distribution
        if not np.all(np.isfinite(cum)):  # NaN fails every check below
            raise ValueError("curve entries must be finite")
        if cum.ndim != 1 or cum.size < 2:
            raise EmptyInputError("curve needs at least the origin and one point")
        if cum[0] != 0.0:
            raise ValueError("curve must start at (0, 0)")
        steps = np.diff(cum)
        if np.any(steps < -1e-12):
            raise ValueError("cumulative mass must be non-decreasing")
        # concavity comes for free from sortedness; slack covers cumsum noise
        if np.any(np.diff(steps) > 1e-9):
            raise ValueError("increments must be non-increasing")
        if abs(float(cum[-1]) - 1.0) > DEFAULT_TAU_NORM:  # as in Distribution
            raise NotNormalizedError(f"curve ends at {cum[-1]!r}, expected 1")
        cum.setflags(write=False)
        object.__setattr__(self, "cumulative", cum)

    @property
    def k(self) -> int:
        return self.cumulative.size - 1

    def __reduce__(self):
        return (LorenzCurve, (self.cumulative,))

    @property
    def points(self) -> list[tuple[int, float]]:
        return [(l, float(c)) for l, c in enumerate(self.cumulative)]


def make_distribution(
    raw: ArrayLike,
    policy: str = "reject",
    *,
    tau_norm: float = DEFAULT_TAU_NORM,
) -> Distribution:
    """Build a canonical distribution from an arbitrary probability vector.

    Parameters
    ----------
    raw : array-like
        Finite, nonnegative entries (``-0.0`` allowed); values in
        [-tau_norm, 0) are treated as float noise and clamped to zero.
    policy : {"reject", "renormalize"}
        "reject" fails unless the sum is within `tau_norm` of one;
        "renormalize" divides by the sum.
    tau_norm : float
        Acceptance tolerance for the reject policy and the negative-entry
        clamp.

    Returns
    -------
    Distribution
        Stably sorted in descending order; ties keep input order, so the
        recorded permutation is deterministic and equals
        ``np.argsort(-x, kind="stable")`` bit for bit. Stored values are
        divided by the sum, so they sum to one at float precision.

    Raises
    ------
    EmptyInputError, NegativeEntryError, NotNormalizedError, ZeroSumError
    """
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except OverflowError:  # an integer beyond the float64 range
        raise ValueError("entries must be finite") from None
    if arr.ndim != 1:
        raise ValueError("expected a flat vector of probabilities")
    if arr.size == 0:
        raise EmptyInputError("empty probability vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    lowest = float(arr.min())
    if lowest < -tau_norm:
        raise NegativeEntryError(f"entry {lowest} below -{tau_norm}")
    if lowest < 0.0:
        arr = np.where(arr > 0.0, arr, 0.0)
    with np.errstate(over="ignore"):  # an infinite sum is rejected below
        total = float(arr.sum())
    if policy == "reject":
        if abs(total - 1.0) > tau_norm:
            raise NotNormalizedError(f"sum {total} not within {tau_norm} of 1")
    elif policy == "renormalize":
        if total <= 0.0:
            raise ZeroSumError("cannot renormalize a zero vector")
        if np.isinf(total):
            raise NotNormalizedError(f"sum {total} overflows")
    else:
        raise ValueError(f"unknown policy: {policy!r}")
    order, values = _canonical_order(arr)
    values /= total
    return _trusted(Distribution, values=values, perm=order)


def uniform(k: int) -> Distribution:
    """The flat distribution on k outcomes."""
    if k < 1:
        raise ZeroDimensionError("k must be >= 1")
    perm = np.arange(k, dtype=np.intp)
    return _trusted(Distribution, values=np.full(k, 1.0 / k), perm=perm)


def point_mass(k: int) -> Distribution:
    """The distribution (1, 0, ..., 0) on k outcomes."""
    if k < 1:
        raise ZeroDimensionError("k must be >= 1")
    values = np.zeros(k)
    values[0] = 1.0
    return _trusted(Distribution, values=values, perm=np.arange(k, dtype=np.intp))


def l1_distance(p: Distribution, q: Distribution) -> float:
    """l1 distance between canonical (sorted) vectors; lies in [0, 2]."""
    if p.k != q.k:
        raise DimensionMismatchError(f"k mismatch: {p.k} vs {q.k}")
    return float(np.abs(p.values - q.values).sum())


def lorenz(p: Distribution) -> LorenzCurve:
    """Lorenz curve of p: points (l, mass of the l largest entries).

    Built on the first call and kept by p, so every later call returns
    the same read-only curve; steepest, flattest's upper level and
    lorenz_steepest read p's prefix sums from it. It costs one extra
    vector of size k + 1.
    """
    curve = p._memo.get("lorenz")
    if curve is None:
        cum = np.empty(p.k + 1)
        cum[0] = 0.0
        np.cumsum(p.values, out=cum[1:])
        curve = p._memo["lorenz"] = _trusted(LorenzCurve, cumulative=cum)
    return curve


def sample_delta_ball(
    p: Distribution, delta: float, seed: int | np.random.Generator
) -> Distribution:
    """Draw a distribution within l1 distance `delta` of p.

    The sample is ``p + t * (u - p)`` for a random distribution u, with the
    step size t chosen so the l1 move is at most delta; sorting to canonical
    form can only shrink the distance further. The perm maps back to the
    caller's order of p. `seed` is anything np.random.default_rng accepts:
    a fixed integer gives a fixed draw, and a Generator is advanced in place.
    """
    delta = check_delta(delta)
    rng = np.random.default_rng(seed)
    vals = _ball_point(p.values, _dirichlet(rng, p.k) - p.values, delta)
    # timsort, not _canonical_order: at the small k this sampler serves it
    # takes about 0.9 us at k <= 8 against about 7.7 us for the packed sort
    # (_ball_rows keeps no perm, so its value sort needs no stability)
    order = (-vals).argsort(kind="stable")
    # vals is in p's canonical coordinates; p.perm maps them to the caller's
    return _trusted(Distribution, values=vals[order], perm=p.perm[order])


def _ball_point(base: np.ndarray, step: np.ndarray, delta: float) -> np.ndarray:
    """base + t * step moved at most delta in l1, clamped at 0: both samplers' draw rule.

    t is 1 if the step fits, else delta over its l1 width times _BALL_SHRINK.
    Rounding can still overshoot by ulps, so t is rescaled against the
    measured move up to four times, then the draw falls back to base; the
    clamp and any later sort only shrink the move.
    """
    width = float(np.abs(step).sum())
    t = 1.0 if width <= delta else (delta / width) * _BALL_SHRINK
    vals = base + t * step
    for _ in range(4):
        moved = float(np.abs(vals - base).sum())
        if moved <= delta:
            break
        t *= (delta / moved) * _BALL_SHRINK
        vals = base + t * step
    else:
        vals = base.copy()
    vals[vals <= 0.0] = 0.0
    return vals


def _ball_rows(p: Distribution, delta: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Values of n draws of sample_delta_ball(p, delta, rng) as one (n, k) block.

    Row r holds the canonical values of the r-th of n sequential calls on
    the same generator, bit for bit, and the generator is left in the same
    state: the Dirichlet draws come from one call in the same order, and
    every other step is the per-call arithmetic row by row. The rows carry
    no perm; the block is read-only. `delta` must already be checked.
    """
    base = p.values
    step = _dirichlet(rng, (n, p.k)) - base
    width = np.abs(step).sum(axis=1)
    inside = width <= delta
    t = np.ones(n)
    t[~inside] = (delta / width[~inside]) * _BALL_SHRINK
    vals = base + t[:, None] * step
    # rows that rounding leaves over budget redo the draw as one call would
    for r in np.flatnonzero(np.abs(vals - base).sum(axis=1) > delta):
        vals[r] = _ball_point(base, step[r], delta)
    vals[vals <= 0.0] = 0.0
    # every zero is +0.0, so ascending order reversed is the descending one
    vals.sort(axis=1)
    vals = vals[:, ::-1].copy()
    vals.setflags(write=False)
    return vals


def sample_majorized_pair(
    k: int, seed: int | np.random.Generator
) -> tuple[Distribution, Distribution]:
    """Draw (p, q) with q a doubly-stochastic image of p, so p majorizes q.

    q is a probabilistic mixture of random permutations of p (the identity
    is always one component), which is exactly the Hardy-Littlewood-Polya
    characterization of the pairs below p in the majorization order.
    q's perm maps back to the caller's order of p's draw, as p's does.

    The k permutations are drawn in blocks of at most _BLOCK_ENTRIES
    entries, each one rng.permuted call along its rows, which is the
    stream of as many rng.permutation(k) calls. Row 0 of a block holds
    the running sum, and one reduce down each column adds the weighted
    rows below it left to right, as one sum per permutation would.
    """
    if k < 1:
        raise ZeroDimensionError("k must be >= 1")
    rng = np.random.default_rng(seed)
    order, values = _canonical_order(_dirichlet(rng, k))
    p = _trusted(Distribution, values=values, perm=order)

    weights = _dirichlet(rng, k + 1)
    rows = min(k, max(1, _BLOCK_ENTRIES // k))
    block = np.empty((rows + 1, k))
    perms = np.empty((rows, k), dtype=np.intp)
    np.multiply(weights[0], values, out=block[0])
    for start in range(1, k + 1, rows):
        m = min(rows, k + 1 - start)
        # shuffled in place: permuted's own copy of a broadcast row is
        # column-major, and each row's shuffle then strides across the block
        perm = perms[:m]
        perm[:] = np.arange(k)
        rng.permuted(perm, axis=1, out=perm)
        np.multiply(values[perm], weights[start : start + m, None], out=block[1 : m + 1])
        block[0] = np.add.reduce(block[: m + 1], axis=0)
    order, values = _canonical_order(block[0])
    # the mixture is in p's canonical coordinates; p.perm maps them to the caller's
    return p, _trusted(Distribution, values=values, perm=p.perm[order])
