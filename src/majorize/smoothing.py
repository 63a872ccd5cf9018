"""Extremal perturbations of a distribution within an l1 budget.

Two constructions, both operating on the canonical sorted vector:

* steepest: the most concentrated distribution reachable by moving at
  most `delta` of mass; it majorizes everything else in the budget ball.
* flattest: the most spread-out one; everything else in the ball
  majorizes it.

Both report the construction internals (cut position, water-filling
levels, block boundaries); steepest also has a closed-form Lorenz curve.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TAU
from .distribution import (
    Distribution,
    LorenzCurve,
    _trusted,
    check_delta,
    lorenz,
    point_mass,
    uniform,
)


@dataclass(frozen=True)
class SteepestMeta:
    """Construction internals of a steepest result.

    head_count is the number of leading entries that survive the tail
    cut (the first of them enlarged by delta/2); tail_value is the
    remainder mass placed right after them (0 when nothing remains).
    """

    head_count: int
    tail_value: float


@dataclass(frozen=True)
class FlattestMeta:
    """Construction internals of a flattest result.

    Entries at or above upper_level are cut down to it; entries at or
    below lower_level are raised up to it. upper_count is the size of
    the leveled top block, lower_start the 1-based canonical index where
    the raised bottom block begins; both count the entries within
    DEFAULT_TAU (1e-9) of a level as members of its block.
    """

    upper_level: float
    lower_level: float
    upper_count: int
    lower_start: int


@dataclass(frozen=True, eq=False)
class SmoothedResult:
    """An extremal perturbation plus how it was built.

    meta holds the construction internals of the matching `kind`, and is
    None on a clamped result: one where the budget already covered the
    distance to the absolute extreme (point mass or uniform), which is
    returned with p's perm, like every other result.
    """

    result: Distribution
    kind: str
    delta: float
    meta: SteepestMeta | FlattestMeta | None = None

    def __post_init__(self) -> None:
        meta_type = {"steepest": SteepestMeta, "flattest": FlattestMeta}.get(self.kind)
        if meta_type is None:
            raise ValueError(f"unknown kind: {self.kind!r}")
        if not (self.meta is None or isinstance(self.meta, meta_type)):
            raise TypeError(f"{self.kind} meta must be {meta_type.__name__} or None")

    @property
    def clamped(self) -> bool:
        return self.meta is None


def steepest(p: Distribution, delta: float) -> SmoothedResult:
    """Most concentrated distribution within l1 distance delta of p.

    Adds delta/2 to the largest entry and removes delta/2 from the end
    of the sorted vector: entries whose running total fits under 1 stay,
    the next entry receives the remainder, the rest become 0. If the
    point mass (1, 0, ..., 0) is already within delta, it is returned
    with p's perm and clamped=True. The result majorizes every
    distribution within delta of p.

    p keeps its last steepest result, so a repeat call at the same delta
    (here or inside smooth_max, smooth_min, extremal_point and
    brute_force_extremum) returns the same SmoothedResult; that costs at
    most one extra vector of size k. The cut reads p's kept Lorenz curve
    (see lorenz).
    """
    return _extremal(p, check_delta(delta), "steepest")


def _steepest_point(p: Distribution, delta: float) -> tuple[Distribution, SteepestMeta | None]:
    """Build steepest(p, delta): its result and meta, None when clamped."""
    k = p.k
    # l1 distance to the point mass, summed as l1_distance sums it
    gap = p.values.copy()
    gap[0] = 1.0 - gap[0]
    if float(gap.sum()) <= delta:
        return point_mass(k), None
    if delta == 0.0:
        return p, SteepestMeta(k, 0.0)
    half = delta / 2.0
    prefix = lorenz(p).cumulative[1:]
    # ulp slack keeps exact-boundary cuts (prefix + half == 1) inclusive;
    # the prefix sums of non-negative entries never decrease
    head = int(np.searchsorted(prefix, 1.0 - half + 1e-12, "right"))
    if head == 0:
        # float disagreement between the distance check and p1 + half >= 1;
        # only reachable within ulps of the clamp boundary
        return point_mass(k), None
    kept = float(prefix[head - 1])
    vals = gap  # the check's copy of p takes the result; only its first entry changed
    vals[0] = p.values[0] + half
    vals[head:] = 0.0
    if head < k:
        tail = 1.0 - (kept + half)
        # mathematically 0 <= tail <= next entry; clamp off float noise
        tail = min(max(tail, 0.0), float(p.values[head]))
        vals[head] = tail
    else:
        # delta below the float resolution of the prefix sums: take the
        # overshoot out of the last entry instead of a nonexistent slot
        tail = 0.0
        vals[-1] = max(vals[-1] - half, 0.0)
    return _trusted(Distribution, values=vals, perm=p.perm), SteepestMeta(head, float(tail))


def flattest(p: Distribution, delta: float) -> SmoothedResult:
    """Most spread-out distribution within l1 distance delta of p.

    Levels the largest entries down to an upper water level and the
    smallest up to a lower one, each side spending delta/2, leaving the
    middle untouched. If the uniform distribution is already within
    delta, it is returned with p's perm and clamped=True. Every
    distribution within delta of p majorizes the result.

    p keeps its last flattest result, so a repeat call at the same delta
    (here, in lorenz_flattest, smooth_max, smooth_min, extremal_point and
    brute_force_extremum) returns the same SmoothedResult; that costs at
    most one extra vector of size k. The upper level reads p's kept
    Lorenz curve (see lorenz).
    """
    return _extremal(p, check_delta(delta), "flattest")


def _flattest_point(p: Distribution, delta: float) -> tuple[Distribution, FlattestMeta | None]:
    """Build flattest(p, delta): its result and meta, None when clamped."""
    k = p.k
    # one buffer: the spread to uniform, the lower level's prefix sums, the result
    buf = p.values - 1.0 / k
    if float(np.abs(buf, out=buf).sum()) <= delta:
        return uniform(k), None
    half = delta / 2.0
    v = p.values
    upper_level = _water_level(v, lorenz(p).cumulative[1:], half, from_above=True)
    w = v[::-1]
    lower_level = _water_level(w, np.cumsum(w, out=buf), half, from_above=False)
    if upper_level <= lower_level:
        # only reachable within ulps of the uniform clamp boundary, or at
        # budget 0 on an all-equal vector whose sum is off 1 by float slack
        return uniform(k), None
    # the block counts search the ascending view w, which needs no copy
    meta = FlattestMeta(
        upper_level,
        lower_level,
        upper_count=k - int(np.searchsorted(w, upper_level - DEFAULT_TAU, "left")),
        lower_start=k - int(np.searchsorted(w, lower_level + DEFAULT_TAU, "right")) + 1,
    )
    vals = np.clip(v, lower_level, upper_level, out=buf)
    return _trusted(Distribution, values=vals, perm=p.perm), meta


def _extremal(p: Distribution, delta: float, kind: str) -> SmoothedResult:
    """The `kind` SmoothedResult of p at the checked delta.

    p._memo maps each kind to the last result built from p, so each
    kind holds one slot and a call at the same delta returns that very
    object. The match is on the float's bits, sign included: 0.0 and -0.0
    compare equal but can round a level differently. steepest(p, 0)
    is p itself and is not kept, or p would hold a reference to itself.
    A slot is replaced whole, so concurrent callers can at worst build a
    result twice, never read one built for another delta.
    """
    memo = p._memo
    hit = memo.get(kind)
    if hit is not None and hit.delta == delta and (delta != 0.0 or hit.delta.hex() == delta.hex()):
        return hit
    build = _steepest_point if kind == "steepest" else _flattest_point
    point, meta = build(p, delta)
    if meta is None:  # the closed-form extreme, placed in p's coordinates
        point = _trusted(Distribution, values=point.values, perm=p.perm)
    sr = SmoothedResult(point, kind, delta, meta)
    if point is not p:
        memo[kind] = sr
    return sr


def _water_level(w: np.ndarray, c: np.ndarray, budget: float, from_above: bool) -> float:
    """Water level x: leveling the leading entries of the monotone w to x moves budget.

    From above (w non-increasing) the top entries are cut down to x, from
    below (w non-decreasing) the bottom ones raised up to it. With the
    first m+1 entries leveled, x = (c[m] -/+ budget)/(m+1) for the
    sequential prefix sums c of w (np.cumsum), which the caller passes and
    the solve never writes (from above they are p's kept Lorenz curve);
    the segment is the first m whose x does not pass w[m+1] (x >= w[m+1]
    from above, <= from below), or else the last m. A bisection over that
    float predicate. Rounded, it can flip along a tie run (True, False,
    True on the renormalized [0.6, 0.7, 0.7] from below at budget 0.05),
    so a vectorized pass over the prefix before the bisected m takes the
    first passing m, as a full scan would, bit for bit (_first_passing).

    The pass runs only when the failed probe at hi - 1 missed w[hi] by at
    most 16u*M, for u = 2**-53 and M = max(c[hi-1], budget, 2**-1022);
    a wider miss proves that no earlier m passes. Let g_m be the exact
    gap of the computed c: x_m - w[m+1] from above, w[m+1] - x_m from
    below, with x_m = (c[m] -/+ budget)/(m+1) unrounded, so m passes
    when g_m >= 0. The sum c[m+1] = c[m] + w[m+1] - e rounds once, with
    |e| <= u*c[m+1] <= u*M for m + 1 <= hi - 1, and w is monotone, so
        g_m <= g_{m+1} + (g_{m+1} + |e|)/(m+1).
    Hence g_{m+1} <= -u*M gives g_m <= g_{m+1}: from g_{hi-1} down,
    every earlier gap is at least as negative. A probe rounds the sum
    with the budget (at most u*|c[m] -/+ budget| <= 2u*M) and the
    quotient (u relative, plus 2**-1075 below the normal range, which
    the 2**-1022 floor of M keeps under u*M), so its level is off by
    at most r = 5u*M + O(u^2). A computed miss above 16u*M is an exact
    miss above 16u*M/(1+u) > 2r, so g_{hi-1} < -r <= -u*M, every
    earlier g_m < -r, and every earlier probe fails as computed.

    Budget 0 returns w[0] exactly. The budget must not level past the
    far end of w; the one caller, _flattest_point, passes delta/2 only
    when the distance to uniform exceeds delta, and that keeps it below
    both the mass above 1/k and the deficit below it.
    """
    shift = -budget if from_above else budget
    passes = operator.ge if from_above else operator.le
    lo, hi = 0, w.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if passes((c.item(mid) + shift) / (mid + 1), w.item(mid + 1)):
            hi = mid
        else:
            lo = mid + 1
    if hi > 1:  # hi - 1 failed its probe; an earlier m may still pass
        scale = max(c.item(hi - 1), budget, 2.0**-1022)
        miss = (c.item(hi - 1) + shift) / hi - w.item(hi)
        if abs(miss) * 2.0**49 <= scale:  # |miss| <= 16u*M, exactly
            level = _first_passing(w, c, shift, hi - 1, passes)
            if level is not None:
                return level
    return (c.item(hi) + shift) / (hi + 1)


def _first_passing(w: np.ndarray, c: np.ndarray, shift: float, n: int, passes) -> float | None:
    """The level of the first m < n whose probe passes, as _water_level probes; else None.

    One vectorized pass over the first n prefix sums.
    """
    head = c[:n] + shift
    head /= np.arange(1.0, n + 1)
    ok = passes(head, w[1 : n + 1])
    first = int(ok.argmax())
    return head.item(first) if ok[first] else None


def lorenz_steepest(p: Distribution, delta: float) -> LorenzCurve:
    """Lorenz curve of steepest(p, delta), in closed form from lorenz(p).

    Every prefix sum of p's kept curve shifts up by delta/2, capped at 1,
    in one new vector and with no prefix sum of its own; agrees pointwise
    with lorenz() of the constructed result, clamped cases included.
    """
    delta = check_delta(delta)
    cum = lorenz(p).cumulative + delta / 2.0
    np.minimum(cum, 1.0, out=cum)
    cum[0] = 0.0
    return _trusted(LorenzCurve, cumulative=cum)


def lorenz_flattest(p: Distribution, delta: float) -> LorenzCurve:
    """Lorenz curve of flattest(p, delta).

    lorenz of the flattest point p keeps (see flattest), which keeps the
    curve in turn, so after a flattest call at the same delta this builds
    no point, and a repeat call returns the same curve.
    """
    return lorenz(flattest(p, delta).result)
