"""Majorization predicates, the majorization distance, and transfer plans."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TAU
from .distribution import ArrayLike, Distribution
from .errors import DimensionMismatchError, EmptyInputError, NotMajorizedError


def _sorted_desc(values: ArrayLike) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInputError("expected a nonempty vector")
    return -np.sort(-arr)


def _prefix_gap(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Running deficit of p against q: entry l-1 is sum(q[:l]) - sum(p[:l]).

    The one prefix-sum kernel behind every order predicate and the
    distance; p majorizes q at tolerance tau exactly when no entry
    exceeds tau.
    """
    if p.size != q.size:
        raise DimensionMismatchError(f"k mismatch: {p.size} vs {q.size}")
    return np.cumsum(q - p)


def weakly_majorizes(p: ArrayLike, q: ArrayLike, *, tau: float = DEFAULT_TAU) -> bool:
    """Prefix-sum dominance of sorted p over sorted q, up to tau per prefix.

    Works on raw vectors (they are sorted here) and does not require the
    totals to match, so it applies to subprobability vectors too.
    """
    return bool(_prefix_gap(_sorted_desc(p), _sorted_desc(q)).max() <= tau)


def majorizes(p: Distribution, q: Distribution, *, tau: float = DEFAULT_TAU) -> bool:
    """True when every prefix sum of p dominates the same prefix of q.

    Both arguments are already canonical, so this is a single prefix-gap
    scan; the final prefixes agree by normalization.
    """
    return bool(_prefix_gap(p.values, q.values).max() <= tau)


def first_failing_prefix(
    p: Distribution, q: Distribution, *, tau: float = DEFAULT_TAU
) -> int | None:
    """Smallest prefix length (1-based) where dominance of p over q fails.

    Returns None when p majorizes q at tolerance tau.
    """
    bad = _prefix_gap(p.values, q.values) > tau
    if not bad.any():
        return None
    return int(np.argmax(bad)) + 1


def majorization_distance(p: Distribution, q: Distribution) -> float:
    """Least delta such that some delta-perturbation of p majorizes q.

    Equals twice the worst prefix-sum deficit of p against q, clamped at
    zero; it is also the least delta such that p majorizes some
    delta-perturbation of q, and it never exceeds 2.
    """
    return max(0.0, 2.0 * float(_prefix_gap(p.values, q.values).max()))


@dataclass(frozen=True)
class TTransform:
    """One Robin Hood step: move mass t * (c[i] - c[j]) from entry i to j.

    Equivalent to replacing (c[i], c[j]) with their t-interpolation toward
    the common mean; t lies in [0, 1/2] so the pair keeps its order.
    """

    i: int
    j: int
    t: float

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError("transfer endpoints must differ")
        if not (0.0 <= self.t <= 1.0):
            raise ValueError(f"t must lie in [0, 1], got {self.t}")

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = values.copy()
        ci, cj = out[self.i], out[self.j]
        out[self.i] = (1.0 - self.t) * ci + self.t * cj
        out[self.j] = self.t * ci + (1.0 - self.t) * cj
        return out

    def matrix(self, k: int) -> np.ndarray:
        m = np.eye(k)
        m[self.i, self.i] = m[self.j, self.j] = 1.0 - self.t
        m[self.i, self.j] = m[self.j, self.i] = self.t
        return m


@dataclass(frozen=True)
class TransferPlan:
    """A sequence of T-transforms carrying p onto q, with their product.

    The product matrix is doubly stochastic; validation allows slack 1e-9
    on row and column sums.
    """

    steps: tuple[TTransform, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if m.size == 0:
            raise EmptyInputError("matrix must be nonempty")
        if float(m.min()) < -1e-9:
            raise ValueError("matrix entries must be nonnegative")
        if np.abs(m.sum(axis=0) - 1.0).max() > 1e-9 or (
            np.abs(m.sum(axis=1) - 1.0).max() > 1e-9
        ):
            raise ValueError("matrix must be doubly stochastic")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(values, dtype=np.float64)


def transfer_plan(
    p: Distribution, q: Distribution, *, tau: float = DEFAULT_TAU
) -> TransferPlan:
    """Construct at most k-1 T-transforms carrying p onto q, in O(k^2).

    Classic Robin Hood argument: while the current vector differs from q,
    transfer mass from the first coordinate holding surplus to the first
    holding deficit, sized to finish one of the two exactly. Prefix
    dominance puts the first surplus before the first deficit, each step
    fixes at least one coordinate for good, and finished coordinates are
    never touched again, which bounds the step count by k - 1.

    A step changes only its two coordinates and pins one of them, so the
    surplus and deficit cursors only move forward, and it changes only two
    rows of the product matrix: O(k) per step. A deficit ahead of the first
    surplus whose prefix gap is within tau is float noise that majorizes
    accepted, so it is passed over; the final 1e-9 reach check bounds what
    it leaves.

    Raises NotMajorizedError unless p majorizes q at tolerance tau.
    """
    if not majorizes(p, q, tau=tau):
        raise NotMajorizedError("p does not majorize q")

    k = p.k
    current = p.values.copy()
    target = q.values
    steps: list[TTransform] = []
    matrix = np.eye(k)
    # residual differences below this are float noise, not real mass
    eps = 1e-12
    # a deficit ahead of the first surplus is float noise when its prefix
    # gap is within tau, the slack majorizes granted
    noise = _prefix_gap(p.values, target) <= tau
    i = j = 0

    for _ in range(k - 1):
        while i < k and current[i] - target[i] <= eps:
            i += 1
        while j < k and (current[j] - target[j] >= -eps or (j < i and noise[j])):
            j += 1
        if j < i:
            # dominance puts every real deficit after the first surplus
            raise NotMajorizedError("deficit precedes surplus; p !>= q")
        if j == k:
            break
        give = current[i] - target[i]
        need = target[j] - current[j]
        amount = min(give, need)
        gap = current[i] - current[j]
        # gap >= amount > 0: prefix dominance keeps donor above recipient
        t = amount / gap
        step = TTransform(i, j, float(min(t, 0.5)))
        steps.append(step)
        current = step.apply(current)
        # pin the finished coordinate to kill accumulated rounding
        if give <= need:
            current[i] = target[i]
        if need <= give:
            current[j] = target[j]
        row_i = matrix[i].copy()
        matrix[i] = (1.0 - step.t) * row_i + step.t * matrix[j]
        matrix[j] = step.t * row_i + (1.0 - step.t) * matrix[j]

    if float(np.abs(current - target).max()) > 1e-9:
        raise NotMajorizedError("transfer plan failed to reach the target")
    return TransferPlan(tuple(steps), matrix)
