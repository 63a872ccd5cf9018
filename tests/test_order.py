import numpy as np
import pytest

import majorize as mj
from majorize.errors import DimensionMismatchError, NotMajorizedError

from conftest import random_distribution


P = [0.6, 0.3, 0.1]
Q = [0.4, 0.3, 0.3]


class TestMajorizes:
    def test_basic_order(self):
        p = mj.make_distribution(P)
        q = mj.make_distribution(Q)
        assert mj.majorizes(p, q)
        assert not mj.majorizes(q, p)

    def test_reflexive(self):
        p = mj.make_distribution(P)
        assert mj.majorizes(p, p)

    def test_extremes(self):
        for k in range(1, 8):
            u = mj.uniform(k)
            e = mj.point_mass(k)
            assert mj.majorizes(e, u)
            rng = np.random.default_rng(k)
            r = random_distribution(rng, k=k)
            assert mj.majorizes(e, r)
            assert mj.majorizes(r, u)

    def test_incomparable_pair(self):
        a = mj.make_distribution([0.5, 0.5, 0.0])
        b = mj.make_distribution([0.6, 0.2, 0.2])
        assert not mj.majorizes(a, b)
        assert not mj.majorizes(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mj.majorizes(mj.uniform(2), mj.uniform(3))

    def test_tolerance_absorbs_tiny_slack(self):
        p = mj.make_distribution([0.5, 0.5])
        q = mj.make_distribution([0.5 + 1e-12, 0.5 - 1e-12], "renormalize")
        assert mj.majorizes(p, q, tau=1e-9)
        assert mj.majorizes(q, p, tau=1e-9)


class TestWeaklyMajorizes:
    def test_accepts_raw_unsorted_vectors(self):
        assert mj.weakly_majorizes([0.1, 0.6, 0.3], [0.3, 0.4, 0.3])

    def test_subnormalized_vectors(self):
        # prefix dominance without the total-mass constraint
        assert mj.weakly_majorizes([0.5, 0.1], [0.3, 0.2])
        assert not mj.weakly_majorizes([0.3, 0.2], [0.5, 0.1])

    def test_matches_majorizes_on_distributions(self):
        # every predicate on the shared prefix gap agrees with majorizes,
        # on random pairs, equal pairs and pairs with tied entries
        rng = np.random.default_rng(11)
        pairs = [
            (random_distribution(rng, k=4), random_distribution(rng, k=4))
            for _ in range(200)
        ]

        def tied():
            return mj.make_distribution(rng.integers(1, 4, 4).astype(float), "renormalize")

        for p, _ in pairs[:100]:
            t = tied()
            pairs += [(p, p), (t, t), (t, tied()), (t, p), (p, t)]
        for p, q in pairs:
            expected = mj.majorizes(p, q)
            assert mj.weakly_majorizes(p.values, q.values) == expected
            assert (mj.first_failing_prefix(p, q) is None) == expected
            assert (mj.majorization_distance(p, q) <= 2 * 1e-9) == expected


class TestFirstFailingPrefix:
    def test_none_when_ordered(self):
        p = mj.make_distribution(P)
        q = mj.make_distribution(Q)
        assert mj.first_failing_prefix(p, q) is None

    def test_position_is_one_based(self):
        p = mj.make_distribution(P)
        q = mj.make_distribution(Q)
        assert mj.first_failing_prefix(q, p) == 1

    def test_later_prefix(self):
        a = mj.make_distribution([0.5, 0.5, 0.0])
        b = mj.make_distribution([0.6, 0.2, 0.2])
        assert mj.first_failing_prefix(a, b) == 1
        assert mj.first_failing_prefix(b, a) == 2


class TestMajorizationDistance:
    def test_zero_iff_majorized(self):
        p = mj.make_distribution(P)
        q = mj.make_distribution(Q)
        assert mj.majorization_distance(p, q) == 0.0
        assert mj.majorization_distance(q, p) == pytest.approx(0.4, abs=1e-12)

    def test_incomparable_pair_values(self):
        a = mj.make_distribution([0.5, 0.5, 0.0])
        b = mj.make_distribution([0.6, 0.2, 0.2])
        assert mj.majorization_distance(a, b) == pytest.approx(0.2, abs=1e-12)
        assert mj.majorization_distance(b, a) == pytest.approx(0.4, abs=1e-12)

    def test_point_mass_to_uniform(self):
        # largest prefix gap is at l = 1: 2 * (1 - 1/k) inverted direction
        for k in range(2, 7):
            d = mj.majorization_distance(mj.uniform(k), mj.point_mass(k))
            assert d == pytest.approx(2 * (1 - 1 / k), abs=1e-12)

    def test_witnesses_certify_the_distance(self):
        a = mj.make_distribution([0.5, 0.5, 0.0])
        b = mj.make_distribution([0.6, 0.2, 0.2])
        d = mj.majorization_distance(a, b)
        up = mj.steepest(a, d)
        down = mj.flattest(b, d)
        assert mj.majorizes(up.result, b)
        assert mj.majorizes(a, down.result)

    def test_cross_checked_by_bisection(self):
        a = mj.make_distribution([0.5, 0.5, 0.0])
        b = mj.make_distribution([0.6, 0.2, 0.2])
        lo, hi = 0.0, 2.0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if mj.majorizes(mj.steepest(a, mid).result, b, tau=1e-15):
                hi = mid
            else:
                lo = mid
        assert abs(hi - mj.majorization_distance(a, b)) < 1e-9


class TestTTransform:
    def test_apply_moves_mass_between_two_coordinates(self):
        x = np.array([0.7, 0.2, 0.1])
        step = mj.TTransform(0, 2, 0.5)
        out = step.apply(x)
        assert out == pytest.approx([0.4, 0.2, 0.4], abs=1e-15)
        assert x[0] == 0.7  # input untouched

    def test_matrix_agrees_with_apply(self):
        x = np.array([0.7, 0.2, 0.1])
        step = mj.TTransform(0, 2, 0.25)
        assert step.matrix(3) @ x == pytest.approx(step.apply(x), abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            mj.TTransform(1, 1, 0.5)
        with pytest.raises(ValueError):
            mj.TTransform(0, 1, 1.5)
        with pytest.raises(ValueError):
            mj.TTransform(0, 1, -0.1)


class TestTransferPlan:
    def test_two_coordinate_halving(self):
        p = mj.make_distribution([1.0, 0.0])
        q = mj.uniform(2)
        plan = mj.transfer_plan(p, q)
        assert len(plan.steps) == 1
        assert plan.steps[0].t == pytest.approx(0.5)
        assert plan.matrix == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)
        assert plan.apply(p.values) == pytest.approx(q.values, abs=1e-12)

    def test_second_known_pair(self):
        p = mj.make_distribution([0.6, 0.4])
        q = mj.uniform(2)
        plan = mj.transfer_plan(p, q)
        assert len(plan.steps) == 1
        assert plan.matrix == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)

    def test_equal_inputs_need_no_steps(self):
        p = mj.make_distribution(P)
        plan = mj.transfer_plan(p, p)
        assert plan.steps == ()
        assert plan.matrix == pytest.approx(np.eye(3), abs=1e-12)

    def test_intermediate_needs_resorting(self):
        # after the first transfer the working vector is no longer sorted;
        # the plan must still finish within k-1 steps
        p = mj.make_distribution([0.5, 0.45, 0.05])
        q = mj.make_distribution([0.45, 0.4, 0.15])
        plan = mj.transfer_plan(p, q)
        assert 1 <= len(plan.steps) <= 2
        assert plan.apply(p.values) == pytest.approx(q.values, abs=1e-9)

    def test_step_budget_and_accuracy_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            p, q = mj.sample_majorized_pair(k, rng)
            plan = mj.transfer_plan(p, q)
            assert len(plan.steps) <= k - 1
            assert np.abs(plan.apply(p.values) - q.values).max() <= 1e-9
            # the matrix is the same map as the step sequence
            assert plan.matrix @ p.values == pytest.approx(q.values, abs=1e-9)

    def test_rejects_unordered_pair(self):
        a = mj.make_distribution([0.5, 0.5, 0.0])
        b = mj.make_distribution([0.6, 0.2, 0.2])
        with pytest.raises(NotMajorizedError):
            mj.transfer_plan(a, b)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            mj.TransferPlan(steps=(), matrix=np.array([[1.0, 0.1], [0.0, 1.0]]))
