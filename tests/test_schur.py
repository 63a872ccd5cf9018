import math

import numpy as np
import pytest

import majorize as mj
from majorize import distribution
from majorize.distribution import _ball_rows
from majorize.errors import (
    AlphaOutOfRangeError,
    InvalidDeltaError,
    NegativeAlphaError,
    UnknownFunctionError,
)

from conftest import ball_bases, random_distribution


P = mj.make_distribution([0.6, 0.3, 0.1])


def direction_violations(f: mj.SchurFunction, trials: int, seed: int) -> int:
    """Count declared-direction failures on random ordered pairs.

    Draws p majorizing q with k in 2..8 and checks f moves the declared
    way (slack DEFAULT_TAU); a nonzero count means the declared direction
    is wrong.
    """
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(trials):
        k = int(rng.integers(2, 9))
        p, q = mj.sample_majorized_pair(k, rng)
        fp, fq = f(p), f(q)
        if f.direction == mj.SCHUR_CONVEX:
            bad += fp < fq - mj.DEFAULT_TAU
        else:
            bad += fp > fq + mj.DEFAULT_TAU
    return bad


# brute_force_extremum(f, ball_bases(k)[base], delta, n=100, seed=i, mode)
# of the i-th entry, as float.hex, recorded from the per-row oracle that the
# block-scored one must reproduce
FROZEN_ORACLE = [
    ("shannon", "max", 1, "random", 0.0, "-0x0.0p+0"),
    ("renyi:0", "max", 1, "random", 1e-13, "0x0.0p+0"),
    ("renyi:0.5", "max", 1, "random", 0.4, "0x0.0p+0"),
    ("renyi:2", "max", 1, "random", 2.0, "0x1.71547652b82fep-52"),
    ("renyi:inf", "max", 2, "random", 0.0, "0x1.aad429aa45297p-3"),
    ("sum_powers:2", "max", 2, "tied", 0.0, "0x1.0000000000000p-1"),
    ("shannon", "min", 2, "random", 1e-13, "0x1.23ad3649c01ecp-1"),
    ("renyi:0", "min", 2, "tied", 1e-13, "0x1.0000000000000p+0"),
    ("renyi:0.5", "min", 2, "random", 0.4, "0x0.0p+0"),
    ("renyi:2", "min", 2, "tied", 0.4, "0x1.925e3bc77e8b2p-1"),
    ("renyi:inf", "min", 2, "random", 2.0, "-0x0.0p+0"),
    ("sum_powers:2", "min", 2, "tied", 2.0, "0x1.0000000000000p-1"),
    ("shannon", "max", 8, "random", 0.0, "0x1.4dd3231fa2f53p+1"),
    ("renyi:0", "max", 8, "tied", 0.0, "0x1.4ae00d1cfdeb4p+1"),
    ("renyi:0.5", "max", 8, "random", 1e-13, "0x1.627ed2dc0c6edp+1"),
    ("renyi:2", "max", 8, "tied", 1e-13, "0x1.2ef2b9317e340p+1"),
    ("renyi:inf", "max", 8, "random", 0.4, "0x1.517bd0070ceb1p+1"),
    ("sum_powers:2", "max", 8, "tied", 0.4, "0x1.2714456197edap-2"),
    ("shannon", "min", 8, "random", 2.0, "-0x0.0p+0"),
    ("renyi:0", "min", 8, "tied", 2.0, "0x0.0p+0"),
    ("renyi:0.5", "min", 128, "random", 0.0, "0x1.b391707497888p+2"),
    ("renyi:2", "min", 128, "tied", 0.0, "0x1.97795c98bf0eep+2"),
    ("renyi:inf", "min", 128, "random", 1e-13, "0x1.4e2b81a06090fp+2"),
    ("sum_powers:2", "min", 128, "tied", 1e-13, "0x1.8d0fac687d322p-7"),
    ("shannon", "max", 128, "random", 0.4, "0x1.bec8f3a7b5f00p+2"),
    ("renyi:0", "max", 128, "tied", 0.4, "0x1.c000000000000p+2"),
    ("renyi:0.5", "max", 128, "random", 2.0, "0x1.c000000000000p+2"),
    ("renyi:2", "max", 128, "tied", 2.0, "0x1.c000000000000p+2"),
]


class TestEntropyFamilies:
    def test_alpha_one_is_shannon(self):
        f = mj.renyi_entropy(1.0)
        assert f(mj.uniform(4)) == pytest.approx(2.0, abs=1e-12)
        g = mj.shannon()
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = random_distribution(rng)
            assert f(p) == pytest.approx(g(p), abs=1e-12)

    def test_near_one_routes_to_shannon(self):
        g = mj.shannon()
        for alpha in (1.0 - 5e-7, 1.0 + 5e-7):
            f = mj.renyi_entropy(alpha)
            assert f(P) == g(P)

    def test_alpha_inf_is_min_entropy(self):
        f = mj.renyi_entropy(math.inf)
        assert f(P) == pytest.approx(-math.log2(0.6), abs=1e-9)
        assert f.name == "renyi:inf"

    def test_alpha_zero_counts_support(self):
        f = mj.renyi_entropy(0.0)
        assert f(mj.make_distribution([0.8, 0.2, 0.0])) == pytest.approx(1.0, abs=1e-12)
        assert f(mj.uniform(8)) == pytest.approx(3.0, abs=1e-12)

    def test_alpha_zero_counts_entries_below_tau(self):
        # all entries but the first lie below 1e-9, in p and in its flattest
        # point; counting only entries above 1e-9 read 0 bits for both, while
        # the oracle's ball rows read 1 bit
        f = mj.renyi_entropy(0.0)
        p = mj.make_distribution([1 - 7.6e-12, 3.7e-12, 2.9e-12, 9.9e-13])
        assert f(p) == 2.0
        assert mj.smooth_max(f, p, 3.6e-9) == 2.0
        assert mj.brute_force_extremum(f, p, 3.6e-9, n=5, seed=3, mode="max") == 2.0

    def test_generic_alpha(self):
        f = mj.renyi_entropy(2.0)
        # -log2(0.25 + 0.25) on uniform(2)
        assert f(mj.uniform(2)) == pytest.approx(1.0, abs=1e-12)

    def test_base_e_gives_nats(self):
        f = mj.shannon(base=math.e)
        assert f(mj.uniform(2)) == pytest.approx(math.log(2), abs=1e-12)
        g = mj.renyi_entropy(2.0, base=math.e)
        assert g(mj.uniform(2)) == pytest.approx(math.log(2), abs=1e-12)

    def test_shannon_ignores_zero_entries(self):
        f = mj.shannon()
        assert f(mj.point_mass(5)) == 0.0

    def test_ordering_in_alpha(self):
        values = [mj.renyi_entropy(a)(P) for a in (0.0, 0.5, 1.0, 2.0, math.inf)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_large_alpha_does_not_underflow(self):
        # 0.2**2000 underflows to 0; the order-2000 value is still finite
        p = mj.make_distribution([0.5, 0.3, 0.2])
        value = mj.renyi_entropy(2000.0)(p)
        assert math.isfinite(value)
        assert mj.renyi_entropy(math.inf)(p) <= value <= mj.renyi_entropy(2.0)(p)
        # (2000 * log2(0.5) + log2(1 + 0.6**2000 + 0.4**2000)) / (1 - 2000)
        assert value == pytest.approx(2000.0 / 1999.0, rel=1e-12)
        # past max / |log(smallest subnormal)|, about 2.41e305, alpha * log(p1)
        # can overflow; such orders round to the alpha=inf value, log2(10) here
        huge, top = mj.renyi_entropy(1e308), mj.renyi_entropy(math.inf)
        assert huge.name == "renyi:1e+308"
        assert huge(mj.uniform(10)) == top(mj.uniform(10)) == pytest.approx(math.log2(10))
        block = np.vstack([p.values, [0.6, 0.3, 0.1]])
        assert huge.fn(block).tolist() == top.fn(block).tolist()

    def test_outer_logs_are_math_log(self):
        # np.log rounds this p1 one ulp away from math.log on common builds;
        # f(p) and each block row must keep the math.log value
        x = 0.8124704808339918
        p = mj.Distribution(np.array([x, 1.0 - x]), np.array([0, 1]))
        f = mj.renyi_entropy(math.inf)
        want = -math.log(x) / math.log(2.0)
        assert f(p) == want
        assert f.fn(np.vstack([p.values, p.values])).tolist() == [want, want]

    def test_negative_alpha_rejected(self):
        with pytest.raises(NegativeAlphaError):
            mj.renyi_entropy(-0.5)
        with pytest.raises(NegativeAlphaError):
            mj.renyi_entropy(float("nan"))

    @pytest.mark.parametrize("base", [1.0, 0.5, math.nan, math.inf])
    def test_bad_base_rejected(self, base):
        with pytest.raises(ValueError):
            mj.shannon(base=base)
        with pytest.raises(ValueError):
            mj.renyi_entropy(2.0, base=base)
        with pytest.raises(ValueError):
            mj.Config(base=base)


class TestSumOfPowers:
    def test_values(self):
        f = mj.sum_of_powers(2.0)
        assert f(mj.uniform(2)) == pytest.approx(0.5, abs=1e-12)
        assert f(mj.point_mass(2)) == pytest.approx(1.0, abs=1e-12)
        assert f(mj.make_distribution([0.8, 0.2, 0.0])) == pytest.approx(0.68, abs=1e-12)

    def test_alpha_must_exceed_one(self):
        for bad in (1.0, 0.5, -2.0):
            with pytest.raises(AlphaOutOfRangeError):
                mj.sum_of_powers(bad)


class TestSchurFunctionType:
    def test_direction_validated(self):
        with pytest.raises(ValueError):
            mj.SchurFunction("f", "sideways", lambda p: 0.0)

    def test_declared_directions_hold_on_random_pairs(self):
        for f in mj.default_functions():
            assert direction_violations(f, 1000, seed=17) == 0


class TestSmoothExtrema:
    def test_shannon_max_known_value(self):
        f = mj.shannon()
        want = f(mj.make_distribution([0.4, 0.3, 0.3]))
        assert mj.smooth_max(f, P, 0.4) == pytest.approx(want, abs=1e-12)
        assert mj.smooth_max(f, P, 0.4) == pytest.approx(1.571, abs=1e-3)

    def test_support_entropy_max_known_value(self):
        f = mj.renyi_entropy(0.0)
        assert mj.smooth_max(f, P, 0.4) == pytest.approx(math.log2(3), abs=1e-9)

    def test_min_entropy_min_known_value(self):
        f = mj.renyi_entropy(math.inf)
        assert mj.smooth_min(f, P, 0.4) == pytest.approx(-math.log2(0.8), abs=1e-9)

    def test_convex_min_known_value(self):
        f = mj.sum_of_powers(2.0)
        assert mj.smooth_min(f, P, 0.4) == pytest.approx(0.34, abs=1e-9)

    def test_zero_delta_is_plain_evaluation(self):
        for f in mj.default_functions():
            assert mj.smooth_max(f, P, 0.0) == pytest.approx(f(P), abs=1e-12)
            assert mj.smooth_min(f, P, 0.0) == pytest.approx(f(P), abs=1e-12)

    def test_max_at_least_min(self):
        rng = np.random.default_rng(2)
        for f in mj.default_functions():
            for _ in range(30):
                p = random_distribution(rng)
                delta = float(rng.uniform(0, 2))
                assert mj.smooth_max(f, p, delta) >= mj.smooth_min(f, p, delta) - 1e-12

    def test_extremal_point_dispatch(self):
        convex = mj.sum_of_powers(2.0)
        concave = mj.shannon()
        assert mj.extremal_point(convex, P, 0.4, "max")[0] == "steepest"
        assert mj.extremal_point(convex, P, 0.4, "min")[0] == "flattest"
        assert mj.extremal_point(concave, P, 0.4, "max")[0] == "flattest"
        assert mj.extremal_point(concave, P, 0.4, "min")[0] == "steepest"
        with pytest.raises(ValueError):
            mj.extremal_point(convex, P, 0.4, "argmax")

    def test_monotone_under_majorization(self):
        # smoothing preserves the order: comparing two ordered inputs at
        # the same budget keeps the convex max/min ordered the same way
        rng = np.random.default_rng(3)
        convex = mj.sum_of_powers(2.0)
        concave = mj.shannon()
        for _ in range(100):
            k = int(rng.integers(2, 9))
            p, q = mj.sample_majorized_pair(k, rng)
            delta = float(rng.uniform(0, 2))
            assert mj.smooth_max(convex, p, delta) >= mj.smooth_max(convex, q, delta) - 1e-9
            assert mj.smooth_min(convex, p, delta) >= mj.smooth_min(convex, q, delta) - 1e-9
            assert mj.smooth_max(concave, p, delta) <= mj.smooth_max(concave, q, delta) + 1e-9
            assert mj.smooth_min(concave, p, delta) <= mj.smooth_min(concave, q, delta) + 1e-9

    def test_bad_delta(self):
        f = mj.shannon()
        with pytest.raises(InvalidDeltaError):
            mj.smooth_max(f, P, -0.1)
        with pytest.raises(InvalidDeltaError):
            mj.smooth_min(f, P, 2.5)


class TestBruteForceOracle:
    def test_tight_even_with_one_sample(self):
        f = mj.shannon()
        got = mj.brute_force_extremum(f, P, 0.4, n=1, seed=0, mode="max")
        assert got == mj.smooth_max(f, P, 0.4)

    def test_shannon_large_sample(self):
        f = mj.shannon()
        got = mj.brute_force_extremum(f, P, 0.4, n=2000, seed=0, mode="max")
        assert got == pytest.approx(1.571, abs=1e-3)
        assert got == mj.smooth_max(f, P, 0.4)

    def test_zero_delta(self):
        f = mj.sum_of_powers(2.0)
        for mode in ("max", "min"):
            got = mj.brute_force_extremum(f, P, 0.0, n=5, seed=1, mode=mode)
            assert got == pytest.approx(f(P), abs=1e-12)

    def test_matches_closed_form_for_all_registered(self):
        rng = np.random.default_rng(4)
        for f in mj.default_functions():
            for _ in range(5):
                p = random_distribution(rng)
                delta = float(rng.uniform(0, 2))
                seed = int(rng.integers(0, 2**31))
                assert (
                    mj.brute_force_extremum(f, p, delta, n=50, seed=seed, mode="max")
                    == mj.smooth_max(f, p, delta)
                )
                assert (
                    mj.brute_force_extremum(f, p, delta, n=50, seed=seed, mode="min")
                    == mj.smooth_min(f, p, delta)
                )

    def test_numpy_integer_seed_matches_int_seed(self):
        # an np.int64 builds the int's generator; a Generator is used as is
        # and advanced in place by the same draws
        f = mj.shannon()
        for seed in (3, 2**40):
            want = mj.brute_force_extremum(f, P, 0.4, n=100, seed=seed, mode="min")
            got = mj.brute_force_extremum(f, P, 0.4, n=100, seed=np.int64(seed), mode="min")
            assert got == want
            rng = np.random.default_rng(seed)
            got = mj.brute_force_extremum(f, P, 0.4, n=100, seed=rng, mode="min")
            assert got == want
            ref = np.random.default_rng(seed)
            _ball_rows(P, 0.4, ref, 64)
            _ball_rows(P, 0.4, ref, 36)
            assert rng.random() == ref.random()

    def test_misdeclared_direction_shows_against_the_closed_form(self):
        # Shannon declared convex: smooth_max evaluates the steepest point,
        # but the flattest point in the oracle's candidates scores higher
        f = mj.SchurFunction("x", mj.SCHUR_CONVEX, mj.shannon().fn)
        got = mj.brute_force_extremum(f, P, 0.4, n=50, seed=0, mode="max")
        assert got == f(mj.flattest(P, 0.4).result)
        assert got > mj.smooth_max(f, P, 0.4)

    def test_frozen_values(self):
        fns = {f.name: f for f in mj.default_functions()}
        for i, (name, mode, k, base, delta, want) in enumerate(FROZEN_ORACLE):
            p = ball_bases(k)[base]
            got = mj.brute_force_extremum(fns[name], p, delta, n=100, seed=i, mode=mode)
            assert got.hex() == want, (i, name, mode, k, base, delta)

    def test_large_k_blocks_are_bounded_by_entries(self, peak_traced_mb):
        # at k=10**5 a block holds one row, not 64 (whose block peaked near
        # 200 MB traced); values are those the 64-row blocks gave
        p = random_distribution(np.random.default_rng(0), k=10**5)
        for f, mode, want in (
            (mj.shannon(), "max", "0x1.09034e52b52d7p+4"),
            (mj.sum_of_powers(2.0), "min", "0x1.65c308978a474p-17"),
        ):
            assert mj.brute_force_extremum(f, p, 0.3, 64, 5, mode).hex() == want
        assert peak_traced_mb() < 16

    def test_certify_sized_rows_fit_their_budget_in_one_step(self, call_counter):
        # at the certify benchmark's sizes every ball row fits its budget
        # after the block's vectorized step size; only budgets near float
        # resolution hand rows to the per-draw rule
        calls = call_counter(distribution, "_ball_point")
        f, rng = mj.shannon(), np.random.default_rng(8)
        for k in range(8, 129):
            p = mj.sample_majorized_pair(k, k)[0]
            mj.brute_force_extremum(f, p, float(rng.uniform(0.01, 1.0)), 500, k, "max")
        assert calls["calls"] == 0
        mj.brute_force_extremum(f, p, 1e-13, 500, 0, "max")
        assert calls["calls"] > 0

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 64, 129])
    def test_block_scores_equal_per_row_calls(self, k):
        # one fn call over a block scores each row as f does on that row alone
        rng = np.random.default_rng(k)
        for p in ball_bases(k).values():
            for delta in (0.0, 1e-13, 0.4, 2.0):
                block = _ball_rows(p, delta, rng, 65)
                for f in mj.default_functions():
                    scores = f.fn(block)
                    assert scores.shape == (65,)
                    for r, row in enumerate(block):
                        d = mj.Distribution(row.copy(), np.arange(k))
                        assert f(d) == scores[r], (f.name, delta, r)

    def test_argument_validation(self):
        f = mj.shannon()
        with pytest.raises(ValueError):
            mj.brute_force_extremum(f, P, 0.4, n=0, seed=0, mode="max")
        with pytest.raises(ValueError):
            mj.brute_force_extremum(f, P, 0.4, n=1, seed=0, mode="extreme")
        with pytest.raises(InvalidDeltaError):
            mj.brute_force_extremum(f, P, -1.0, n=1, seed=0, mode="max")

    # Hypothesis found these; pinned here, they fail in every checkout,
    # whatever its example database holds
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP B4: a sampled ball row whose float mass or score rounds "
        "past the extremal point's beats the closed form by ulps",
    )
    @pytest.mark.parametrize(
        "values, delta",
        [([0.5, 0.5], 1e-12), ([2 / 3, 1 / 3], 1.3377693852074827e-11)],
        ids=["half-half", "two-thirds"],
    )
    def test_oracle_equals_renyi2_maximum(self, values, delta):
        f, p = mj.renyi_entropy(2.0), mj.make_distribution(values)
        assert mj.smooth_max(f, p, delta) == mj.brute_force_extremum(f, p, delta, 5, 3, "max")


class TestParseFunctionSpec:
    def test_accepted_forms(self):
        assert mj.parse_function_spec("shannon").name == "shannon"
        assert mj.parse_function_spec("renyi:2").name == "renyi:2"
        assert mj.parse_function_spec("renyi:0.5").name == "renyi:0.5"
        assert mj.parse_function_spec("renyi:inf").name == "renyi:inf"
        assert mj.parse_function_spec("renyi:Infinity").name == "renyi:inf"
        assert mj.parse_function_spec("sum_powers:2").name == "sum_powers:2"

    def test_base_is_forwarded(self):
        f = mj.parse_function_spec("shannon", base=math.e)
        assert f(mj.uniform(2)) == pytest.approx(math.log(2), abs=1e-12)

    def test_rejected_forms(self):
        for bad in ("renyi", "renyl:2", "renyi:two", "sum_powers:", ""):
            with pytest.raises(UnknownFunctionError):
                mj.parse_function_spec(bad)
        with pytest.raises(NegativeAlphaError):
            mj.parse_function_spec("renyi:-1")
        with pytest.raises(AlphaOutOfRangeError):
            mj.parse_function_spec("sum_powers:1")


def test_default_registry_contents():
    names = [f.name for f in mj.default_functions()]
    assert names == [
        "shannon",
        "renyi:0",
        "renyi:0.5",
        "renyi:2",
        "renyi:inf",
        "sum_powers:2",
    ]
