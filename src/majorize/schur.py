"""Order-monotone functionals and their exact extrema over l1 balls.

A Schur-convex function grows along the majorization order, a
Schur-concave one shrinks; either way its maximum and minimum over the
ball of radius delta around p are attained at the two extremal
perturbations, so smooth_max/smooth_min are single evaluations rather
than searches. A sampling oracle is included for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import check_base
from .distribution import _BLOCK_ENTRIES, Distribution, _ball_rows, check_delta
from .errors import AlphaOutOfRangeError, NegativeAlphaError, UnknownFunctionError
from .smoothing import _extremal

SCHUR_CONVEX = "schur_convex"
SCHUR_CONCAVE = "schur_concave"

# Oracle samples per vectorized block, fewer where k * 64 would pass
# _BLOCK_ENTRIES. Blocks capped by _BLOCK_ENTRIES alone took 1.06-1.75 against
# 0.96-1.03 ms per certify-size oracle call (2-core host), and more memory.
_ORACLE_BLOCK = 64


@dataclass(frozen=True)
class SchurFunction:
    """A named functional with its declared monotonicity direction.

    `fn` is one kernel over arrays: it takes canonical (sorted,
    normalized) values of shape (..., k) and reduces over the last axis,
    so f(p) is fn(p.values) and one call scores an (n, k) block of rows.

    The direction is trusted metadata, checked statistically on random
    ordered pairs in the test suite, not proven here.
    """

    name: str
    direction: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if self.direction not in (SCHUR_CONVEX, SCHUR_CONCAVE):
            raise ValueError(f"unknown direction: {self.direction!r}")

    def __call__(self, p: Distribution) -> float:
        return float(self.fn(p.values))


def _log(x: np.ndarray | float) -> np.ndarray | float:
    # math.log per row, since np.log rounds differently on some inputs; one
    # row's scalar skips the object-array round trip
    return math.log(x) if np.ndim(x) == 0 else np.frompyfunc(math.log, 1, 1)(x).astype(float)


def shannon(base: float = 2.0) -> SchurFunction:
    """Shannon entropy; zero entries contribute nothing (0 log 0 = 0)."""
    log_base = math.log(check_base(base))

    def fn(v: np.ndarray) -> np.ndarray:
        t = np.where(v > 0.0, v, 1.0)
        return -(t * np.log(t)).sum(axis=-1) / log_base

    return SchurFunction("shannon", SCHUR_CONCAVE, fn)


def renyi_entropy(alpha: float, base: float = 2.0) -> SchurFunction:
    """The one-parameter entropy family, Schur-concave for every alpha.

    alpha=0 counts the support, the entries above exactly 0 (a count of
    entries above a positive threshold is not Schur-concave; tail cuts
    and the samplers write exact zeros); alpha=1 and anything within
    1e-6 of it routes to the Shannon formula to avoid the 1/(1-alpha)
    blowup; alpha=inf is -log of the largest entry, and so is any alpha past
    float max / |log(smallest subnormal)|, where alpha * log(p1) can
    overflow and the value rounds to the alpha=inf one.
    """
    alpha = float(alpha)
    if alpha < 0.0 or math.isnan(alpha):
        raise NegativeAlphaError(f"alpha must be >= 0, got {alpha}")
    log_base = math.log(check_base(base))
    name = "renyi:inf" if math.isinf(alpha) else f"renyi:{alpha:g}"

    if alpha > np.finfo(float).max / -math.log(np.finfo(float).smallest_subnormal):

        def fn(v: np.ndarray) -> np.ndarray:
            return -_log(v[..., 0]) / log_base

    elif alpha == 0.0:

        def fn(v: np.ndarray) -> np.ndarray:
            return _log(np.count_nonzero(v > 0.0, axis=-1)) / log_base

    elif abs(alpha - 1.0) <= 1e-6:
        return SchurFunction(name, SCHUR_CONCAVE, shannon(base).fn)

    else:

        def fn(v: np.ndarray) -> np.ndarray:
            # factor out the largest entry so p**alpha cannot underflow to 0
            ratio_sum = np.power(v / v[..., :1], alpha).sum(axis=-1)
            return (alpha * _log(v[..., 0]) + _log(ratio_sum)) / (1.0 - alpha) / log_base

    return SchurFunction(name, SCHUR_CONCAVE, fn)


def sum_of_powers(alpha: float) -> SchurFunction:
    """p -> sum of p_i^alpha, Schur-convex for alpha > 1."""
    alpha = float(alpha)
    if not alpha > 1.0:
        raise AlphaOutOfRangeError(f"alpha must exceed 1, got {alpha}")

    def fn(v: np.ndarray) -> np.ndarray:
        return np.power(v, alpha).sum(axis=-1)

    return SchurFunction(f"sum_powers:{alpha:g}", SCHUR_CONVEX, fn)


def extremal_point(
    f: SchurFunction, p: Distribution, delta: float, mode: str
) -> tuple[str, Distribution]:
    """The ball element where f attains its `mode` extremum, with its kind."""
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    # growing functions peak at the concentrated end, shrinking ones at
    # the flat end; minima swap the two
    kind = "steepest" if (f.direction == SCHUR_CONVEX) == (mode == "max") else "flattest"
    return kind, _extremal(p, check_delta(delta), kind).result


def smooth_max(f: SchurFunction, p: Distribution, delta: float) -> float:
    """Exact maximum of f over distributions within l1 distance delta of p."""
    return f(extremal_point(f, p, delta, "max")[1])


def smooth_min(f: SchurFunction, p: Distribution, delta: float) -> float:
    """Exact minimum of f over distributions within l1 distance delta of p."""
    return f(extremal_point(f, p, delta, "min")[1])


def brute_force_extremum(
    f: SchurFunction,
    p: Distribution,
    delta: float,
    n: int,
    seed: int | np.random.Generator,
    mode: str,
) -> float:
    """Extremum of f over n ball samples plus both extremal perturbations.

    Independent check of smooth_max/smooth_min: sampling alone can only
    fall short of the true extremum, but the extremal points are in the
    candidate set, so the result is never less extreme than the closed
    form. It can pass it by rounding (ROADMAP B4): a sampled row whose
    float mass is off 1 by an ulp, or whose score rounds one ulp past
    the extremal point's, can win, so the two agree to float precision,
    not always bit for bit.

    The samples are drawn and scored in blocks of at most 64 rows and,
    above k = 256, at most 2**14 entries (one row at least): each block
    is one (n, k) array of canonical values, bit-identical to as many
    sample_delta_ball calls on the same generator, reduced by one f.fn
    call, so fixed-seed results are those of per-call sampling at any
    block size.
    """
    delta = check_delta(delta)
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    pick = max if mode == "max" else min
    rng = np.random.default_rng(seed)
    best = []
    rows = max(1, min(_ORACLE_BLOCK, _BLOCK_ENTRIES // p.k))
    for start in range(0, n, rows):
        scores = f.fn(_ball_rows(p, delta, rng, min(rows, n - start)))
        best.append(pick(scores.tolist()))
    for kind in ("steepest", "flattest"):
        best.append(f(_extremal(p, delta, kind).result))
    return pick(best)


def parse_function_spec(spec: str, base: float = 2.0) -> SchurFunction:
    """Build a registered function from a CLI spec string.

    Accepted forms: "shannon", "renyi:<alpha>" (with "inf" allowed),
    "sum_powers:<alpha>".
    """
    spec = spec.strip()
    if spec == "shannon":
        return shannon(base)
    head, sep, arg = spec.partition(":")
    if not sep:
        raise UnknownFunctionError(f"unknown function: {spec!r}")
    try:
        alpha = math.inf if arg.lower() in ("inf", "infinity") else float(arg)
    except ValueError:
        raise UnknownFunctionError(f"bad alpha in function spec: {spec!r}") from None
    if head == "renyi":
        return renyi_entropy(alpha, base)
    if head == "sum_powers":
        return sum_of_powers(alpha)
    raise UnknownFunctionError(f"unknown function: {spec!r}")


def default_functions(base: float = 2.0) -> tuple[SchurFunction, ...]:
    """The stock registry: Shannon, a spread of Renyi orders, one convex."""
    return (
        shannon(base),
        renyi_entropy(0.0, base),
        renyi_entropy(0.5, base),
        renyi_entropy(2.0, base),
        renyi_entropy(math.inf, base),
        sum_of_powers(2.0),
    )
