"""Majorization predicates, the majorization distance, and transfer plans."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_TAU, check_tolerance
from .distribution import ArrayLike, Distribution, _trusted
from .errors import DimensionMismatchError, NotMajorizedError


def _prefix_gap(p: Distribution, q: Distribution) -> np.ndarray:
    """Running deficit of p against q: entry l-1 is sum(q[:l]) - sum(p[:l]).

    The one prefix-sum kernel behind every order predicate and the
    distance; p majorizes q at tolerance tau exactly when no entry
    exceeds tau.
    """
    if p.k != q.k:
        raise DimensionMismatchError(f"k mismatch: {p.k} vs {q.k}")
    gap = q.values - p.values
    return np.cumsum(gap, out=gap)


def _max_gap(p: Distribution, q: Distribution) -> float:
    """The largest entry of _prefix_gap(p, q), kept by both objects.

    One prefix sum serves both directions: q's gap against p is its exact
    negation (only the signs of zeros differ), so p keeps max(gap) beside
    a weak reference to q and q keeps -min(gap) beside one to p. q is
    stored first so that p against itself keeps the max; a dropped
    object's reference reads None and matches no later one.
    """
    kept = p._memo.get("gap")
    if kept is not None and kept[0]() is q:
        return kept[1]
    gap = _prefix_gap(p, q)
    q._memo["gap"] = (weakref.ref(p), -float(gap.min()))
    worst = float(gap.max())
    p._memo["gap"] = (weakref.ref(q), worst)
    return worst


def majorizes(p: Distribution, q: Distribution, *, tau: float = DEFAULT_TAU) -> bool:
    """True when every prefix sum of p dominates the same prefix of q.

    The one place a pair is decided; first_failing_prefix and
    transfer_plan read it. It reads the worst prefix gap the pair keeps,
    so a later call in either order, at any tau, or the distance takes no
    prefix sum. The final prefixes agree by normalization.
    """
    return _max_gap(p, q) <= check_tolerance("tau", tau)


def first_failing_prefix(
    p: Distribution, q: Distribution, *, tau: float = DEFAULT_TAU
) -> int | None:
    """Smallest prefix length (1-based) where dominance of p over q fails.

    None exactly when majorizes(p, q, tau=tau) holds; only a failing pair
    builds its gap array.
    """
    if majorizes(p, q, tau=tau):
        return None
    return int(np.argmax(_prefix_gap(p, q) > tau)) + 1


def majorization_distance(p: Distribution, q: Distribution) -> float:
    """Least delta such that some delta-perturbation of p majorizes q.

    Equals twice the worst prefix-sum deficit of p against q, clamped at
    zero; it is also the least delta such that p majorizes some
    delta-perturbation of q, and it never exceeds 2. The deficit is the
    one majorizes(p, q) reads; max(0.0, -0.0) keeps a zero positive.
    """
    return max(0.0, 2.0 * _max_gap(p, q))


def _mix(values, i: int, j: int, t: float) -> None:
    """Replace entries i and j of values, in place, by their t-interpolations.

    The one two-entry kernel behind every T-transform: on a vector it moves
    mass t * (values[i] - values[j]) from i to j, and on a matrix it mixes
    rows i and j. Both new entries are computed before either is stored.
    """
    ci, cj = values[i], values[j]
    values[i], values[j] = (1.0 - t) * ci + t * cj, t * ci + (1.0 - t) * cj


@dataclass(frozen=True)
class TTransform:
    """One Robin Hood step: move mass t * (c[i] - c[j]) from entry i to j.

    Equivalent to replacing (c[i], c[j]) with their t-interpolation toward
    the common mean. The validator checks that i and j are distinct
    integers and t lies in [0, 1]; plans use t <= 1/2, so the pair keeps
    its order.
    """

    i: int
    j: int
    t: float

    def __post_init__(self) -> None:
        if not all(isinstance(x, (int, np.integer)) for x in (self.i, self.j)):
            raise ValueError(f"transfer endpoints must be integers: {self.i!r}, {self.j!r}")
        if self.i == self.j:
            raise ValueError("transfer endpoints must differ")
        if not (0.0 <= self.t <= 1.0):
            raise ValueError(f"t must lie in [0, 1], got {self.t}")


@dataclass(frozen=True)
class TransferPlan:
    """A sequence of T-transforms on k coordinates carrying p onto q.

    The steps are the plan: apply runs them in O(k + steps). Their product
    matrix, doubly stochastic by construction, is built on first read.
    """

    steps: tuple[TTransform, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"plan needs an integer k >= 1, got {self.k!r}")
        for s in self.steps:
            if not (0 <= s.i < self.k and 0 <= s.j < self.k):
                raise ValueError(f"step ({s.i}, {s.j}) out of range for k={self.k}")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The k x k product of the steps, write-locked; O(k^2) memory."""
        m = np.eye(self.k)
        for s in self.steps:
            _mix(m, s.i, s.j, s.t)
        m.setflags(write=False)
        return m

    def apply(self, values: ArrayLike) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (self.k,):
            raise DimensionMismatchError(f"expected {self.k} values, got shape {arr.shape}")
        out = arr.tolist()
        for s in self.steps:
            _mix(out, s.i, s.j, s.t)
        return np.array(out)


def transfer_plan(
    p: Distribution, q: Distribution, *, tau: float = DEFAULT_TAU
) -> TransferPlan:
    """Construct at most k-1 T-transforms carrying p onto q, in O(k).

    Classic Robin Hood argument: while the current vector differs from q,
    transfer mass from the first coordinate holding surplus to the first
    holding deficit, sized to finish one of the two exactly. Prefix
    dominance puts the first surplus before the first deficit, each step
    fixes at least one coordinate for good, and finished coordinates are
    never touched again, which bounds the step count by k - 1.

    A step changes only its two coordinates, in place, and pins one of
    them, so the surplus and deficit cursors only move forward: one pass
    after the majorizes gate. The gate bounds every prefix gap by tau, so
    every deficit ahead of the first surplus is float noise and is passed
    over; the final 1e-9 reach check bounds what it leaves.

    Raises NotMajorizedError unless p majorizes q at tolerance tau.
    """
    if not majorizes(p, q, tau=tau):
        raise NotMajorizedError("p does not majorize q")

    k = p.k
    # Python floats: the sweep touches single entries, where list indexing
    # beats numpy scalars, and the float arithmetic is the same
    current = p.values.tolist()
    target = q.values.tolist()
    steps: list[TTransform] = []
    # residual differences below this are float noise, not real mass
    eps = 1e-12
    i = j = 0

    for _ in range(k - 1):
        while i < k and current[i] - target[i] <= eps:
            i += 1
        # every deficit ahead of the first surplus is within tau: skip it
        while j < k and (current[j] - target[j] >= -eps or j < i):
            j += 1
        if j == k:
            break
        give = current[i] - target[i]
        need = target[j] - current[j]
        amount = min(give, need)
        gap = current[i] - current[j]
        # gap >= amount > 0: prefix dominance keeps donor above recipient
        t = min(amount / gap, 0.5)
        if not t >= 0.0:  # TTransform's range check; i < j < k by the cursors
            raise ValueError(f"t must lie in [0, 1], got {t}")
        steps.append(_trusted(TTransform, i=i, j=j, t=t))
        _mix(current, i, j, t)
        # pin the finished coordinate to kill accumulated rounding
        if give <= need:
            current[i] = target[i]
        if need <= give:
            current[j] = target[j]

    if float(np.abs(np.array(current) - q.values).max()) > 1e-9:
        raise NotMajorizedError("transfer plan failed to reach the target")
    return _trusted(TransferPlan, steps=tuple(steps), k=k)
