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
    cut (the first of them enlarged by delta/2); tail_value is what the
    next entry keeps, its suffix sum less delta/2; the rest become 0.
    At delta 0 (or a budget whose half underflows) head_count is k - 1
    and tail_value p's last entry, so the values are p's own.
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
    of the sorted vector: the last entry whose suffix sum (it and all
    after it) reaches delta/2 keeps that sum less delta/2, the entries
    after it become 0, and the result keeps p's own float mass. When the
    entries after the first hold at most delta/2 (p's kept suffix sum
    over them), the point mass (1, 0, ..., 0) is within delta and is
    returned with p's perm and clamped=True; that is the one clamp test.
    The result majorizes every distribution within delta of p.

    p keeps its last steepest result, so a repeat call at the same delta
    (here or inside smooth_max, smooth_min, extremal_point and
    brute_force_extremum) returns the same SmoothedResult; that costs at
    most one extra vector of size k. Its cut reads p's kept suffix sums.
    """
    return _extremal(p, check_delta(delta), "steepest")


def _steepest_point(p: Distribution, delta: float) -> tuple[np.ndarray, SteepestMeta | None]:
    """Build steepest(p, delta): its values and meta, None when clamped."""
    k = p.k
    half = delta / 2.0
    suffix = _suffix_sums(p)
    # the point mass is within delta when the entries after the first hold at most half
    if k == 1 or suffix.item(k - 2) <= half:
        return point_mass(k).values, None
    # the cut: the last entry whose suffix sum (never decreasing) reaches half
    head = k - 1 - int(np.searchsorted(suffix, half, "left"))
    # rounding can lift the cut entry's share an ulp above the entry itself
    tail = min(suffix.item(k - 1 - head) - half, p.values.item(head))
    vals = p.values.copy()
    vals[0] += half
    vals[head] = tail
    vals[head + 1 :] = 0.0
    return vals, SteepestMeta(head, tail)


def _suffix_sums(p: Distribution) -> np.ndarray:
    """p's ascending suffix sums np.cumsum(p.values[::-1]), kept write-locked in p._memo."""
    suffix = p._memo.get("suffix")
    if suffix is None:
        suffix = p._memo["suffix"] = np.cumsum(p.values[::-1])
        suffix.setflags(write=False)
    return suffix


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
    most one extra vector of size k. The levels read p's kept Lorenz
    curve and suffix sums, so the result keeps p's own float mass.
    """
    return _extremal(p, check_delta(delta), "flattest")


def _flattest_point(p: Distribution, delta: float) -> tuple[np.ndarray, FlattestMeta | None]:
    """Build flattest(p, delta): its values and meta, None when clamped."""
    k = p.k
    # one buffer: the spread to uniform, then the result
    buf = p.values - 1.0 / k
    if float(np.abs(buf, out=buf).sum()) <= delta:
        return uniform(k).values, None
    half = delta / 2.0
    v = p.values
    upper_level = _water_level(v, lorenz(p).cumulative[1:], half, from_above=True)
    w = v[::-1]
    lower_level = _water_level(w, _suffix_sums(p), half, from_above=False)
    if upper_level <= lower_level:
        # only reachable within ulps of the uniform clamp boundary, or at
        # budget 0 on an all-equal vector whose sum is off 1 by float slack
        return uniform(k).values, None
    # the block counts search the ascending view w, which needs no copy
    meta = FlattestMeta(
        upper_level,
        lower_level,
        upper_count=k - int(np.searchsorted(w, upper_level - DEFAULT_TAU, "left")),
        lower_start=k - int(np.searchsorted(w, lower_level + DEFAULT_TAU, "right")) + 1,
    )
    return np.clip(v, lower_level, upper_level, out=buf), meta


def _extremal(p: Distribution, delta: float, kind: str) -> SmoothedResult:
    """The `kind` SmoothedResult of p at the checked delta.

    p._memo maps each kind to the last result built from p, so each
    kind holds one slot and a call at the same delta returns that very
    object. The match is on the float's bits, sign included: 0.0 and -0.0
    compare equal but can round a level differently. The builders return
    values and meta (None when clamped), and every point, the point mass
    and uniform included, is wrapped here with p's perm. Its values are a
    new vector, p's own copied at delta 0, so no slot refers to p. A slot
    is replaced whole, so concurrent callers can at worst build a result
    twice, never read one built for another delta.
    """
    memo = p._memo
    hit = memo.get(kind)
    if hit is not None and hit.delta == delta and (delta != 0.0 or hit.delta.hex() == delta.hex()):
        return hit
    build = _steepest_point if kind == "steepest" else _flattest_point
    values, meta = build(p, delta)
    sr = SmoothedResult(_trusted(Distribution, values=values, perm=p.perm), kind, delta, meta)
    memo[kind] = sr
    return sr


def _water_level(w: np.ndarray, c: np.ndarray, budget: float, from_above: bool) -> float:
    """Water level x: leveling the leading entries of the monotone w to x moves budget.

    From above (w non-increasing) the top entries are cut down to x, from
    below (w non-decreasing) the bottom ones raised up to it. With the
    first m+1 entries leveled, x = (c[m] -/+ budget)/(m+1) for the
    sequential prefix sums c of w (np.cumsum), which the caller passes and
    the solve never writes (p's kept Lorenz curve or suffix sums);
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

    Every prefix sum of p's kept curve shifts up by delta/2, capped at
    p's kept mass (the curve's last point), in one new vector and with no
    prefix sum of its own. An unclamped steepest point keeps p's float
    mass, so this agrees with lorenz() of the built result up to rounding;
    a clamped one is the point mass, whose curve ends at 1.
    """
    curve = lorenz(p).cumulative
    cum = curve + check_delta(delta) / 2.0
    np.minimum(cum, curve[-1], out=cum)
    cum[0] = 0.0
    return _trusted(LorenzCurve, cumulative=cum)


def lorenz_flattest(p: Distribution, delta: float) -> LorenzCurve:
    """Lorenz curve of flattest(p, delta).

    lorenz of the flattest point p keeps (see flattest), which keeps the
    curve in turn, so after a flattest call at the same delta this builds
    no point, and a repeat call returns the same curve.
    """
    return lorenz(flattest(p, delta).result)
