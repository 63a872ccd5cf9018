import numpy as np
import pytest

import majorize as mj
from majorize.errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidDeltaError,
    NegativeEntryError,
    NotNormalizedError,
    ZeroDimensionError,
    ZeroSumError,
)
from majorize.distribution import _ball_rows, _dirichlet

from conftest import ball_bases, random_distribution

TIE_CLASSES = (
    "random", "half_zeros", "ninety_pct_zeros", "all_equal", "sorted",
    "one_decimal", "negative_zero", "subnormal", "tiny_negative", "near_tie",
    "zero_block",
)
TIE_CASES = [
    (k, case, policy)
    for k in (1, 2, 3, 8, 64, 1000, 10**5)
    for case in TIE_CLASSES
    for policy in ("reject", "renormalize")
] + [(10**6, case, "reject") for case in ("half_zeros", "random", "all_colliding")]


def _tie_class_input(case: str, k: int, rng: np.random.Generator) -> np.ndarray:
    """An unnormalized vector of size k with the ties, zeros or signs of `case`."""
    x = rng.uniform(0.1, 1.0, k)
    hit = rng.random(k) < {"half_zeros": 0.5, "ninety_pct_zeros": 0.9}.get(case, 0.3)
    hit[0] = False  # one positive entry, so every class has a sum
    few = rng.integers(1, 4, k)  # a few magnitudes, so each one repeats
    if case in ("half_zeros", "ninety_pct_zeros"):
        x[hit] = 0.0
    elif case == "negative_zero":
        # both zeros, which compare equal and so share one run of ties
        x[hit] = np.where(few[hit] > 1, 0.0, -0.0)
    elif case == "subnormal":
        # still subnormal after dividing by a sum of up to 10**6
        x[hit] = 2.2e-310 * few[hit]
    elif case == "zero_block":
        # zeros of both signs and multiples of the smallest subnormal up to
        # 7, whose bits differ only below the index width once k > 4, so the
        # lowest key block mixes them (division by a large sum under
        # "reject" leaves only the zeros)
        x[hit] = np.where(few[hit] > 1, 5e-324 * rng.integers(0, 8, k)[hit], -0.0)
    elif case == "tiny_negative":
        x[hit] = -1e-12 * few[hit]
    elif case == "all_equal":
        x[:] = 0.5
    elif case == "sorted":
        x = -np.sort(-x)
    elif case == "one_decimal":
        x = np.round(x, 1)
    elif case in ("near_tie", "all_colliding"):
        # values that differ only below bit 12, under the index width of the
        # packed sort keys once k > 2**11, and some exact ties among them;
        # with a single base every entry shares one block of key bits. Bits
        # 12 to 19 of a base are all clear or all set and a fifth of the
        # patterns each are all clear or all set, so for index widths up to
        # 20 bits many unscaled entries sit at the lowest or highest value
        # of a block.
        base = rng.uniform(0.1, 1.0, 300 if case == "near_tie" else 1).view(np.uint64)
        base &= np.uint64(~0xFFFFF & (2**64 - 1))
        base[1::2] |= np.uint64(0xFF000)
        flip = rng.integers(0, 1 << 12, k, dtype=np.uint64)
        end = rng.random(k)
        flip[end < 0.2] = 0
        flip[end > 0.8] = 0xFFF
        x = (base[rng.integers(0, base.size, k)] ^ flip).view(np.float64)
    return x


class TestMakeDistribution:
    @pytest.mark.parametrize(("k", "case", "policy"), TIE_CASES)
    def test_tie_order_matches_stable_argsort(self, k, case, policy):
        x = _tie_class_input(case, k, np.random.default_rng(k))
        raw = x / x.sum() if policy == "reject" else 3.0 * x
        d = mj.make_distribution(raw, policy)
        # the contract: a stable descending argsort of the clamped input
        arr = np.where(raw > 0.0, raw, 0.0) if raw.min() < 0.0 else raw
        order = np.argsort(-arr, kind="stable")
        assert np.array_equal(d.perm, order)
        assert d.values.tobytes() == (arr[order] / arr.sum()).tobytes()

    @pytest.mark.parametrize("k", [2**12, 10**5, 2**20])
    def test_colliding_keys_at_block_ends(self, k):
        # near ties left unscaled, so each block's lowest and highest
        # values reach the sort as built
        x = _tie_class_input("near_tie", k, np.random.default_rng(k))
        d = mj.make_distribution(x, "renormalize")
        order = np.argsort(-x, kind="stable")
        assert np.array_equal(d.perm, order)
        assert d.values.tobytes() == (x[order] / x.sum()).tobytes()

    def test_sorts_descending_and_records_perm(self):
        d = mj.make_distribution([0.1, 0.6, 0.3])
        assert np.allclose(d.values, [0.6, 0.3, 0.1])
        assert d.perm.tolist() == [1, 2, 0]

    def test_single_element(self):
        d = mj.make_distribution([1.0])
        assert d.values.tolist() == [1.0]
        assert d.k == 1

    def test_renormalize_divides_by_sum(self):
        d = mj.make_distribution([2, 1, 1], "renormalize")
        assert d.values.tolist() == [0.5, 0.25, 0.25]

    def test_stable_sort_keeps_tie_order(self):
        d = mj.make_distribution([0.25, 0.5, 0.25])
        assert d.perm.tolist() == [1, 0, 2]

    def test_to_original_order_round_trips(self):
        raw = [0.1, 0.6, 0.3]
        d = mj.make_distribution(raw)
        assert np.allclose(d.to_original_order(), raw)

    def test_reject_policy_enforces_normalization(self):
        with pytest.raises(NotNormalizedError):
            mj.make_distribution([0.5, 0.6])
        # within tau_norm is accepted and rescaled to sum 1
        d = mj.make_distribution([0.5, 0.5 + 1e-8])
        assert abs(float(d.values.sum()) - 1.0) < 1e-15

    def test_tiny_negative_clamped_to_zero(self):
        d = mj.make_distribution([0.5, 0.5, -1e-9], "renormalize")
        assert d.values[-1] == 0.0

    def test_large_negative_rejected(self):
        with pytest.raises(NegativeEntryError):
            mj.make_distribution([0.6, 0.5, -0.1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            mj.make_distribution([])

    def test_zero_sum_rejected_under_renormalize(self):
        with pytest.raises(ZeroSumError):
            mj.make_distribution([0.0, 0.0], "renormalize")

    def test_overflowing_sum_rejected_under_renormalize(self):
        with pytest.raises(NotNormalizedError):
            mj.make_distribution([1e308, 1e308], "renormalize")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            mj.make_distribution([0.5, float("nan")], "renormalize")
        with pytest.raises(ValueError):
            mj.make_distribution([0.5, float("inf")], "renormalize")

    def test_oversized_integer_rejected_as_non_finite(self):
        # float64 conversion of the integer overflows, as a JSON file can hold
        with pytest.raises(ValueError, match="entries must be finite"):
            mj.make_distribution([10**400, 1], "renormalize")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            mj.make_distribution([1.0], "fix-it-for-me")

    def test_values_are_write_locked(self):
        d = mj.make_distribution([0.7, 0.3])
        with pytest.raises(ValueError):
            d.values[0] = 0.0


def test_uniform():
    assert mj.uniform(1).values.tolist() == [1.0]
    assert mj.uniform(4).values.tolist() == [0.25] * 4
    assert np.allclose(mj.uniform(3).values, 1 / 3)
    with pytest.raises(ZeroDimensionError):
        mj.uniform(0)


def test_point_mass():
    assert mj.point_mass(2).values.tolist() == [1.0, 0.0]
    assert mj.point_mass(1).values.tolist() == [1.0]
    assert mj.point_mass(3).values.tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(ZeroDimensionError):
        mj.point_mass(0)


class TestL1Distance:
    def test_zero_on_equal(self):
        p = mj.make_distribution([0.6, 0.3, 0.1])
        assert mj.l1_distance(p, p) == 0.0

    def test_against_point_mass(self):
        # |0.6-1| + 0.3 + 0.1
        p = mj.make_distribution([0.6, 0.3, 0.1])
        assert mj.l1_distance(p, mj.point_mass(3)) == pytest.approx(0.8, abs=1e-12)

    def test_against_flat_example(self):
        p = mj.make_distribution([0.6, 0.3, 0.1])
        q = mj.make_distribution([0.4, 0.3, 0.3])
        assert mj.l1_distance(p, q) == pytest.approx(0.4, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mj.l1_distance(mj.uniform(2), mj.uniform(3))


class TestLorenz:
    def test_fig_elbows(self):
        curve = mj.lorenz(mj.make_distribution([0.6, 0.3, 0.1]))
        assert curve.cumulative == pytest.approx([0, 0.6, 0.9, 1.0], abs=1e-12)
        assert curve.points[0] == (0, 0.0)
        assert curve.k == 3

    def test_uniform_is_straight(self):
        curve = mj.lorenz(mj.uniform(2))
        assert curve.cumulative.tolist() == [0.0, 0.5, 1.0]

    def test_point_mass_saturates(self):
        curve = mj.lorenz(mj.point_mass(2))
        assert curve.cumulative.tolist() == [0.0, 1.0, 1.0]

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            mj.LorenzCurve(np.array([0.1, 1.0]))  # missing origin
        with pytest.raises(ValueError):
            mj.LorenzCurve(np.array([0.0, 0.6, 0.5, 1.0]))  # decreasing
        with pytest.raises(ValueError):
            mj.LorenzCurve(np.array([0.0, 0.2, 1.0]))  # convex corner
        with pytest.raises(NotNormalizedError):
            mj.LorenzCurve(np.array([0.0, 0.5, 0.9]))


class TestSampleDeltaBall:
    def test_zero_radius_returns_p(self):
        p = mj.make_distribution([0.6, 0.3, 0.1])
        for seed in range(5):
            out = mj.sample_delta_ball(p, 0.0, seed)
            assert np.array_equal(out.values, p.values)

    def test_full_radius_from_point_mass(self):
        p = mj.point_mass(2)
        for seed in range(100):
            out = mj.sample_delta_ball(p, 2.0, seed)
            assert mj.l1_distance(p, out) <= 2.0
            assert abs(float(out.values.sum()) - 1.0) <= 1e-7

    def test_distance_bound_is_tight_with_no_slack(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            p = random_distribution(rng)
            delta = float(rng.uniform(0, 2))
            out = mj.sample_delta_ball(p, delta, rng)
            assert mj.l1_distance(p, out) <= delta

    def test_deterministic_for_fixed_seed(self):
        p = mj.make_distribution([0.6, 0.3, 0.1])
        a = mj.sample_delta_ball(p, 0.7, 123)
        b = mj.sample_delta_ball(p, 0.7, 123)
        assert np.array_equal(a.values, b.values)

    def test_bad_delta(self):
        p = mj.uniform(2)
        with pytest.raises(InvalidDeltaError):
            mj.sample_delta_ball(p, -0.5, 0)
        with pytest.raises(InvalidDeltaError):
            mj.sample_delta_ball(p, 2.5, 0)


class TestBallRows:
    @pytest.mark.parametrize("k", [1, 2, 8, 128])
    def test_rows_equal_sequential_draws(self, k):
        # the block sampler must reproduce sample_delta_ball bit for bit and
        # leave the generator where n sequential calls would leave it
        for b, p in enumerate(ball_bases(k).values()):
            for delta in (0.0, 1e-13, 0.4, 2.0):
                for n in (1, 63, 64, 65, 500):
                    seed = 1000 * k + 100 * b + n
                    block_rng = np.random.default_rng(seed)
                    rows = _ball_rows(p, delta, block_rng, n)
                    call_rng = np.random.default_rng(seed)
                    want = [mj.sample_delta_ball(p, delta, call_rng) for _ in range(n)]
                    assert rows.shape == (n, k)
                    for got, exp in zip(rows, want):
                        assert got.tobytes() == exp.values.tobytes()
                    assert block_rng.random() == call_rng.random()

    def test_block_is_write_locked(self):
        rows = _ball_rows(mj.uniform(3), 0.5, np.random.default_rng(0), 4)
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0


class TestDirichlet:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 64, 129, 1000])
    def test_matches_numpy_dirichlet_with_ones(self, k):
        # the helper leans on how numpy draws all-ones Dirichlet vectors; a
        # numpy release that changes that must fail here, not shift samples
        for n in (None, 5):
            ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
            got = _dirichlet(ours, k if n is None else (n, k))
            want = theirs.dirichlet(np.ones(k), size=n)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state


def _sweep_inputs(rng):
    # k up to 1000 with plain, tied, zero and subnormal entries
    for k in (1, 2, 3, 7, 50, 1000):
        for kind in ("plain", "ties", "zeros", "subnormal"):
            for _ in range(3):
                raw = rng.dirichlet(np.full(k, 0.5))
                if kind == "ties":
                    raw = rng.integers(1, 4, size=k).astype(float)
                elif kind == "zeros":
                    raw[1:][rng.random(k - 1) < 0.4] = 0.0
                elif kind == "subnormal":
                    tiny = rng.random(k - 1) < 0.4
                    raw[1:][tiny] = rng.choice([5e-324, 1e-310, 1e-300], tiny.sum())
                yield mj.make_distribution(raw, "renormalize")


def _sweep_deltas(p, rng):
    # zero, subnormal and tiny budgets, both clamp boundaries +-1 ulp, and 2
    out = [0.0, 5e-324, 1e-300, 1e-12, float(rng.uniform(0, 2)), 2.0]
    for edge in (mj.l1_distance(p, mj.point_mass(p.k)), mj.l1_distance(p, mj.uniform(p.k))):
        out += [edge, np.nextafter(edge, -1.0), np.nextafter(edge, 3.0)]
    return [min(max(float(d), 0.0), 2.0) for d in out]


class TestLibraryBuiltObjectsAreCanonical:
    # library results are wrapped without running the validators, so the
    # output of every function that makes one must pass them here and come
    # back write-locked
    @staticmethod
    def _check(obj):
        if isinstance(obj, mj.LorenzCurve):
            assert not obj.cumulative.flags.writeable
            mj.LorenzCurve(obj.cumulative.copy())
        else:
            assert not obj.values.flags.writeable and not obj.perm.flags.writeable
            mj.Distribution(obj.values.copy(), obj.perm.copy())

    def test_every_library_result_passes_the_public_validators(self):
        rng = np.random.default_rng(20261018)
        for p in _sweep_inputs(rng):
            k = p.k
            self._check(mj.make_distribution(p.to_original_order(), "renormalize"))
            for obj in (p, mj.uniform(k), mj.point_mass(k), mj.lorenz(p)):
                self._check(obj)
            for obj in mj.sample_majorized_pair(k, rng):
                self._check(obj)
            for delta in _sweep_deltas(p, rng):
                self._check(mj.steepest(p, delta).result)
                self._check(mj.flattest(p, delta).result)
                self._check(mj.lorenz_steepest(p, delta))
                self._check(mj.lorenz_flattest(p, delta))
                self._check(mj.sample_delta_ball(p, delta, rng))
                for row in _ball_rows(p, delta, rng, 3):
                    mj.Distribution(row.copy(), np.arange(k))


class TestSampleMajorizedPair:
    def test_pairs_always_ordered(self):
        for seed in range(1000):
            p, q = mj.sample_majorized_pair(3, seed)
            assert mj.majorizes(p, q)

    def test_various_dimensions(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(1, 10))
            p, q = mj.sample_majorized_pair(k, rng)
            assert p.k == q.k == k
            assert mj.majorizes(p, q)

    def test_zero_dimension(self):
        with pytest.raises(ZeroDimensionError):
            mj.sample_majorized_pair(0, 1)


def test_distribution_constructor_rejects_unsorted():
    with pytest.raises(ValueError):
        mj.Distribution(np.array([0.3, 0.7]), np.array([0, 1]))


def test_distribution_constructor_rejects_bad_perm():
    with pytest.raises(ValueError):
        mj.Distribution(np.array([0.7, 0.3]), np.array([0, 0]))


@pytest.mark.parametrize("perm", [[0.9, 1.7], [0.0, 1.0], [True, False]])
def test_distribution_constructor_rejects_non_integer_perm(perm):
    # casting to intp would truncate these into a valid-looking permutation
    with pytest.raises(ValueError):
        mj.Distribution(np.array([0.7, 0.3]), np.array(perm))


class TestValidatorsCopyTheCallersArrays:
    """A validated object owns its arrays: the caller's stay writable and cannot change it."""

    def test_distribution_values(self):
        base = np.array([0.6, 0.4, 9.0])
        d = mj.Distribution(base[:2], np.arange(2))
        assert base.flags.writeable
        base[0] = 0.1
        assert d.values.tolist() == [0.6, 0.4]
        assert not d.values.flags.writeable

    def test_distribution_perm(self):
        perm = np.array([1, 0], dtype=np.intp)
        d = mj.Distribution(np.array([0.6, 0.4]), perm)
        assert perm.flags.writeable
        perm[:] = 0
        assert d.perm.tolist() == [1, 0]
        assert not d.perm.flags.writeable

    def test_lorenz_cumulative(self):
        base = np.array([0.0, 0.6, 1.0, 7.0])
        curve = mj.LorenzCurve(base[:3])
        assert base.flags.writeable
        base[1] = 0.2
        assert curve.cumulative.tolist() == [0.0, 0.6, 1.0]
        assert not curve.cumulative.flags.writeable
