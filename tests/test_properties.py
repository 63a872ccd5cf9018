import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majorize as mj
from majorize.io import format_float, round_float


@st.composite
def distributions(draw, kmin=1, kmax=8):
    k = draw(st.integers(kmin, kmax))
    head = draw(st.floats(min_value=1e-3, max_value=1.0, allow_nan=False))
    rest = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=k - 1,
            max_size=k - 1,
        )
    )
    return mj.make_distribution([head] + rest, "renormalize")


@st.composite
def majorized_pairs(draw, kmin=2, kmax=8):
    # any mixture of permutations of p is majorized by p
    p = draw(distributions(kmin=kmin, kmax=kmax))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.dirichlet(np.ones(4))
    vals = weights[0] * p.values
    for w in weights[1:]:
        vals = vals + w * p.values[rng.permutation(p.k)]
    return p, mj.make_distribution(vals, "renormalize")


deltas = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
seeds = st.integers(0, 2**32 - 1)


@settings(deadline=None)
@given(distributions())
def test_canonicalization_contract(p):
    assert np.all(np.diff(p.values) <= 0)
    assert np.all(p.values >= 0)
    assert abs(float(p.values.sum()) - 1.0) <= 1e-7
    assert sorted(p.perm.tolist()) == list(range(p.k))
    original = p.to_original_order()
    assert np.array_equal(np.sort(original)[::-1], np.sort(p.values)[::-1])


@settings(deadline=None)
@given(distributions(), deltas)
def test_perturbations_bracket_the_source(p, delta):
    up = mj.steepest(p, delta)
    down = mj.flattest(p, delta)
    assert mj.majorizes(up.result, p)
    assert mj.majorizes(p, down.result)
    for sr in (up, down):
        v = sr.result.values
        assert np.all(np.diff(v) <= 1e-15)
        assert abs(float(v.sum()) - 1.0) <= 1e-9
        if sr.clamped:
            assert mj.l1_distance(p, sr.result) <= delta + 1e-9
        else:
            assert mj.l1_distance(p, sr.result) == pytest.approx(delta, abs=1e-9)


@settings(deadline=None)
@given(distributions(), deltas, seeds)
def test_ball_samples_stay_between_extremes(p, delta, seed):
    sample = mj.sample_delta_ball(p, delta, seed)
    assert mj.l1_distance(p, sample) <= delta
    assert mj.majorizes(mj.steepest(p, delta).result, sample)
    assert mj.majorizes(sample, mj.flattest(p, delta).result)


@settings(deadline=None)
@given(distributions(), deltas, seeds)
def test_results_stay_within_delta_in_the_callers_order(p, delta, seed):
    # each result maps back through its own perm, clamped ones included
    # (ROADMAP direction 9), and moves the caller's vector by at most delta
    original = p.to_original_order()
    for r in (
        mj.steepest(p, delta).result,
        mj.flattest(p, delta).result,
        mj.sample_delta_ball(p, delta, seed),
    ):
        moved = float(np.abs(r.to_original_order() - original).sum())
        assert moved <= delta + 4 * p.k * np.finfo(float).eps


@settings(deadline=None)
@given(distributions(), deltas, deltas)
def test_bigger_budget_reaches_further(p, d1, d2):
    small, big = sorted((d1, d2))
    assert mj.majorizes(mj.steepest(p, big).result, mj.steepest(p, small).result)
    assert mj.majorizes(mj.flattest(p, small).result, mj.flattest(p, big).result)


@st.composite
def split_budgets(draw):
    # two budgets whose sum is a valid budget: b <= 2 - a rounds a + b to at most 2
    a = draw(deltas)
    return a, draw(st.floats(min_value=0.0, max_value=2.0 - a, allow_nan=False))


@settings(deadline=None)
@given(distributions(), split_budgets())
def test_flattest_composes_in_delta(p, budgets):
    # ROADMAP direction 6; steepest's composition fails near a zero tail
    # (test_steepest_composes_in_delta_near_a_zero_tail)
    a, b = budgets
    twice = mj.flattest(mj.flattest(p, a).result, b).result
    once = mj.flattest(p, a + b).result
    gap = np.abs(mj.lorenz(twice).cumulative - mj.lorenz(once).cumulative).max()
    assert gap <= 4 * p.k * np.finfo(float).eps


@settings(deadline=None)
@given(distributions(), deltas)
def test_closed_form_lorenz_matches_construction(p, delta):
    up = mj.lorenz(mj.steepest(p, delta).result).cumulative
    down = mj.lorenz(mj.flattest(p, delta).result).cumulative
    assert mj.lorenz_steepest(p, delta).cumulative == pytest.approx(up, abs=1e-9)
    assert mj.lorenz_flattest(p, delta).cumulative == pytest.approx(down, abs=1e-9)


@settings(deadline=None)
@given(distributions())
def test_order_is_reflexive_and_bounded_by_extremes(p):
    assert mj.majorizes(p, p)
    assert mj.majorizes(mj.point_mass(p.k), p)
    assert mj.majorizes(p, mj.uniform(p.k))


@settings(deadline=None)
@given(distributions(kmin=2), distributions(kmin=2))
def test_antisymmetry_within_tolerance(p, q):
    if p.k != q.k:
        return
    if mj.majorizes(p, q) and mj.majorizes(q, p):
        gap = np.abs(np.cumsum(p.values) - np.cumsum(q.values)).max()
        assert gap <= 2e-9


@settings(deadline=None)
@given(majorized_pairs(), deltas)
def test_transitive_through_a_flattening(pair, delta):
    p, q = pair
    r = mj.flattest(q, delta).result
    assert mj.majorizes(p, r)


@settings(deadline=None)
@given(majorized_pairs())
def test_distance_is_zero_exactly_on_ordered_pairs(pair):
    p, q = pair
    # mixing permutations leaves ulp-level noise in the prefix sums
    assert mj.majorization_distance(p, q) <= 2e-9
    # and in general the predicate holds iff the distance vanishes
    d_back = mj.majorization_distance(q, p)
    assert mj.majorizes(q, p, tau=1e-9) == (d_back <= 2e-9)


@settings(deadline=None)
@given(distributions(kmin=2), distributions(kmin=2))
def test_distance_witnesses(p, q):
    if p.k != q.k:
        return
    d = mj.majorization_distance(p, q)
    assert 0.0 <= d <= 2.0
    assert mj.majorizes(mj.steepest(p, d).result, q)
    assert mj.majorizes(p, mj.flattest(q, d).result)


@st.composite
def triples(draw, kmax=8):
    k = draw(st.integers(1, kmax))
    return tuple(draw(distributions(kmin=k, kmax=k)) for _ in range(3))


@settings(deadline=None)
@given(triples())
def test_distance_obeys_the_triangle_inequality(triple):
    p, q, r = triple
    d = mj.majorization_distance
    pq, qr, pr = d(p, q), d(q, r), d(p, r)
    # each distance is twice a running sum of k differences whose sizes add
    # to at most 2, so it is within about 2k eps of exact: 6k eps for the
    # three, and the bound allows twice that
    assert pr <= pq + qr + 12 * p.k * np.finfo(float).eps
    # p now keeps its gap against r; q's is recomputed, not r's returned
    assert d(p, q) == pq and d(p, r) == pr


@settings(deadline=None, max_examples=60)
@given(majorized_pairs())
def test_transfer_plans_reach_the_target(pair):
    p, q = pair
    plan = mj.transfer_plan(p, q)
    assert len(plan.steps) <= p.k - 1
    assert np.abs(plan.apply(p.values) - q.values).max() <= 1e-9
    assert np.abs(plan.matrix.sum(axis=0) - 1).max() <= 1e-9
    assert np.abs(plan.matrix.sum(axis=1) - 1).max() <= 1e-9
    assert plan.matrix.min() >= -1e-9


@settings(deadline=None)
@given(distributions())
def test_lorenz_curves_are_concave_and_complete(p):
    curve = mj.lorenz(p)
    steps = np.diff(curve.cumulative)
    assert np.all(np.diff(steps) <= 1e-9)
    assert curve.cumulative[0] == 0.0
    assert curve.cumulative[-1] == pytest.approx(1.0, abs=1e-7)


@settings(deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_formatting_round_trip_is_idempotent(x):
    once = round_float(x)
    assert round_float(once) == once
    assert format_float(x) != "-0"


@settings(deadline=None, max_examples=60)
@given(distributions(kmin=2), deltas, st.sampled_from(["max", "min"]))
def test_smoothed_values_match_the_oracle(p, delta, mode):
    f = mj.renyi_entropy(2.0)
    closed = mj.smooth_max(f, p, delta) if mode == "max" else mj.smooth_min(f, p, delta)
    assert closed == mj.brute_force_extremum(f, p, delta, n=5, seed=3, mode=mode)
