import numpy as np
import pytest

import majorize as mj
from majorize.errors import BudgetOutOfRangeError, InvalidDeltaError

from conftest import random_distribution


P = mj.make_distribution([0.6, 0.3, 0.1])


class TestSteepest:
    def test_known_three_point_case(self):
        out = mj.steepest(P, 0.4)
        assert out.result.values == pytest.approx([0.8, 0.2, 0.0], abs=1e-9)
        assert out.kind == "steepest"
        assert not out.clamped
        assert out.meta.head_count == 1
        assert out.meta.tail_value == pytest.approx(0.2, abs=1e-9)
        assert isinstance(out.meta, mj.SteepestMeta)

    def test_zero_delta_is_identity(self):
        out = mj.steepest(P, 0.0)
        assert np.array_equal(out.result.values, P.values)
        assert not out.clamped

    def test_clamps_to_point_mass(self):
        p = mj.make_distribution([0.9, 0.1])
        out = mj.steepest(p, 0.5)
        assert out.result.values.tolist() == [1.0, 0.0]
        assert out.clamped
        assert out.meta is None

    def test_four_point_cut_position(self):
        p = mj.make_distribution([0.4, 0.3, 0.2, 0.1])
        out = mj.steepest(p, 0.2)
        assert out.result.values == pytest.approx([0.5, 0.3, 0.2, 0.0], abs=1e-9)
        assert out.meta.head_count == 3
        assert out.meta.tail_value == pytest.approx(0.0, abs=1e-9)

    def test_distance_saturates_budget_when_unclamped(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = random_distribution(rng)
            delta = float(rng.uniform(0, 2))
            out = mj.steepest(p, delta)
            if out.clamped:
                assert mj.l1_distance(p, out.result) <= delta + 1e-9
            else:
                assert mj.l1_distance(p, out.result) == pytest.approx(delta, abs=1e-9)

    def test_output_sorted_at_the_cut(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            p = random_distribution(rng)
            out = mj.steepest(p, float(rng.uniform(0, 2)))
            v = out.result.values
            assert np.all(np.diff(v) <= 1e-15)
            if not out.clamped and out.meta.head_count < p.k:
                h = out.meta.head_count
                assert v[h - 1] >= v[h] - 1e-12

    def test_majorizes_source(self):
        out = mj.steepest(P, 0.3)
        assert mj.majorizes(out.result, P)

    def test_bad_delta(self):
        for bad in (-0.1, 2.0000001, float("nan")):
            with pytest.raises(InvalidDeltaError):
                mj.steepest(P, bad)


class TestFlattest:
    def test_known_three_point_case(self):
        out = mj.flattest(P, 0.4)
        assert out.result.values == pytest.approx([0.4, 0.3, 0.3], abs=1e-9)
        assert out.kind == "flattest"
        assert not out.clamped
        m = out.meta
        assert m.upper_level == pytest.approx(0.4, abs=1e-9)
        assert m.lower_level == pytest.approx(0.3, abs=1e-9)
        assert m.upper_count == 1
        assert m.lower_start == 2
        assert isinstance(out.meta, mj.FlattestMeta)

    def test_zero_delta_is_identity(self):
        out = mj.flattest(P, 0.0)
        assert np.array_equal(out.result.values, P.values)
        assert not out.clamped

    def test_uniform_input_clamps_at_any_delta(self):
        for delta in (0.1, 1.0, 2.0):
            out = mj.flattest(mj.uniform(4), delta)
            assert out.clamped
            assert out.result.values == pytest.approx([0.25] * 4, abs=1e-12)

    def test_two_sided_leveling(self):
        p = mj.make_distribution([0.7, 0.2, 0.1])
        out = mj.flattest(p, 0.2)
        assert out.result.values == pytest.approx([0.6, 0.2, 0.2], abs=1e-9)
        m = out.meta
        assert m.upper_level == pytest.approx(0.6, abs=1e-9)
        assert m.lower_level == pytest.approx(0.2, abs=1e-9)
        # mass removed above == mass added below == delta/2
        removed = float(np.maximum(p.values - m.upper_level, 0).sum())
        added = float(np.maximum(m.lower_level - p.values, 0).sum())
        assert removed == pytest.approx(0.1, abs=1e-9)
        assert added == pytest.approx(0.1, abs=1e-9)

    def test_levels_straddle_when_unclamped(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = random_distribution(rng)
            out = mj.flattest(p, float(rng.uniform(0, 2)))
            if not out.clamped:
                assert out.meta.upper_level > out.meta.lower_level

    def test_distance_saturates_budget_when_unclamped(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            p = random_distribution(rng)
            delta = float(rng.uniform(0, 2))
            out = mj.flattest(p, delta)
            if out.clamped:
                assert mj.l1_distance(p, out.result) <= delta + 1e-9
            else:
                assert mj.l1_distance(p, out.result) == pytest.approx(delta, abs=1e-9)

    def test_majorized_by_source(self):
        out = mj.flattest(P, 0.3)
        assert mj.majorizes(P, out.result)

    def test_bad_delta(self):
        for bad in (-0.1, 2.0000001, float("nan")):
            with pytest.raises(InvalidDeltaError):
                mj.flattest(P, bad)


class TestExtremality:
    # the large-scale version runs in the acceptance suite; this is a
    # quick guard on the same property
    def test_ball_samples_sit_between_the_extremes(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            p = random_distribution(rng)
            delta = float(rng.uniform(0, 2))
            up = mj.steepest(p, delta).result
            down = mj.flattest(p, delta).result
            assert mj.majorizes(up, down)
            for _ in range(20):
                sample = mj.sample_delta_ball(p, delta, rng)
                assert mj.majorizes(up, sample)
                assert mj.majorizes(sample, down)

    def test_order_preserved_under_equal_budgets(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            p, q = mj.sample_majorized_pair(k, rng)
            delta = float(rng.uniform(0, 2))
            assert mj.majorizes(mj.steepest(p, delta).result, mj.steepest(q, delta).result)
            assert mj.majorizes(mj.flattest(p, delta).result, mj.flattest(q, delta).result)


class TestSolveUpperLevel:
    def test_single_entry_segment(self):
        level, count = mj.solve_upper_level(P, 0.2)
        assert level == pytest.approx(0.4, abs=1e-9)
        assert count == 1

    def test_tied_entries_cut_together(self):
        p = mj.make_distribution([0.5, 0.5])
        level, count = mj.solve_upper_level(p, 0.2)
        assert level == pytest.approx(0.4, abs=1e-9)
        assert count == 2

    def test_tiny_budget_approaches_top_entry(self):
        level, count = mj.solve_upper_level(P, 1e-12)
        assert level == pytest.approx(float(P.values[0]), abs=1e-11)
        assert count == 1

    def test_removed_mass_matches_budget(self):
        # exercised over the full domain, past the uniform level
        rng = np.random.default_rng(27)
        for _ in range(300):
            p = random_distribution(rng)
            budget = float(rng.uniform(1e-7, 0.999))
            level, count = mj.solve_upper_level(p, budget)
            removed = float(np.maximum(p.values - level, 0).sum())
            assert removed == pytest.approx(budget, abs=1e-9)
            assert count == int(np.sum(p.values >= level - 1e-9))

    def test_budget_out_of_range(self):
        with pytest.raises(BudgetOutOfRangeError):
            mj.solve_upper_level(P, 0.0)
        with pytest.raises(BudgetOutOfRangeError):
            mj.solve_upper_level(P, -0.1)
        with pytest.raises(BudgetOutOfRangeError):
            mj.solve_upper_level(P, 1.01)  # beyond the total mass


class TestSolveLowerLevel:
    def test_two_entry_block(self):
        level, start = mj.solve_lower_level(P, 0.2)
        assert level == pytest.approx(0.3, abs=1e-9)
        assert start == 2

    def test_second_known_case(self):
        p = mj.make_distribution([0.7, 0.2, 0.1])
        level, start = mj.solve_lower_level(p, 0.1)
        assert level == pytest.approx(0.2, abs=1e-9)
        assert start == 2

    def test_tiny_budget_approaches_last_entry(self):
        level, start = mj.solve_lower_level(P, 1e-12)
        assert level == pytest.approx(float(P.values[-1]), abs=1e-11)
        assert start == 3

    def test_added_mass_matches_budget(self):
        # exercised over the full domain, past the uniform level
        rng = np.random.default_rng(28)
        for _ in range(300):
            p = random_distribution(rng)
            cap = p.k * float(p.values[0]) - 1.0
            if cap < 1e-6:
                continue
            budget = float(rng.uniform(1e-7, cap * 0.999))
            level, start = mj.solve_lower_level(p, budget)
            added = float(np.maximum(level - p.values, 0).sum())
            assert added == pytest.approx(budget, abs=1e-9)
            assert start == p.k - int(np.sum(p.values <= level + 1e-9)) + 1

    def test_budget_out_of_range(self):
        with pytest.raises(BudgetOutOfRangeError):
            mj.solve_lower_level(P, 0.0)
        cap = 3 * float(P.values[0]) - 1.0  # level cannot pass the top entry
        with pytest.raises(BudgetOutOfRangeError):
            mj.solve_lower_level(P, cap + 0.01)


class TestClosedFormLorenz:
    def test_steepest_elbows(self):
        curve = mj.lorenz_steepest(P, 0.4)
        assert curve.cumulative == pytest.approx([0, 0.8, 1.0, 1.0], abs=1e-9)

    def test_flattest_elbows(self):
        curve = mj.lorenz_flattest(P, 0.4)
        assert curve.cumulative == pytest.approx([0, 0.4, 0.7, 1.0], abs=1e-9)

    def test_zero_delta_reduces_to_plain_curve(self):
        base = mj.lorenz(P).cumulative
        assert mj.lorenz_steepest(P, 0.0).cumulative == pytest.approx(base, abs=1e-12)
        assert mj.lorenz_flattest(P, 0.0).cumulative == pytest.approx(base, abs=1e-12)

    def test_curves_bracket_the_base(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            p = random_distribution(rng)
            delta = float(rng.uniform(0, 2))
            base = mj.lorenz(p).cumulative
            up = mj.lorenz_steepest(p, delta).cumulative
            down = mj.lorenz_flattest(p, delta).cumulative
            assert np.all(up >= base - 1e-12)
            assert np.all(down <= base + 1e-12)

    def test_matches_curve_of_constructed_vector(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            p = random_distribution(rng)
            delta = float(rng.uniform(0, 2))
            built_up = mj.lorenz(mj.steepest(p, delta).result).cumulative
            built_down = mj.lorenz(mj.flattest(p, delta).result).cumulative
            assert mj.lorenz_steepest(p, delta).cumulative == pytest.approx(
                built_up, abs=1e-9
            )
            assert mj.lorenz_flattest(p, delta).cumulative == pytest.approx(
                built_down, abs=1e-9
            )

    def test_bad_delta(self):
        with pytest.raises(InvalidDeltaError):
            mj.lorenz_steepest(P, -1.0)
        with pytest.raises(InvalidDeltaError):
            mj.lorenz_flattest(P, 3.0)


class TestDeltaMonotonicity:
    def test_budget_chains_are_nested(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = random_distribution(rng)
            deltas = np.sort(rng.uniform(0, 2, size=4))
            for small, big in zip(deltas, deltas[1:]):
                up_small = mj.steepest(p, float(small)).result
                up_big = mj.steepest(p, float(big)).result
                assert mj.majorizes(up_big, up_small)
                down_small = mj.flattest(p, float(small)).result
                down_big = mj.flattest(p, float(big)).result
                assert mj.majorizes(down_small, down_big)


class TestLevelMonotonicity:
    def test_ordered_pairs_have_ordered_levels(self):
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 200:
            k = int(rng.integers(2, 9))
            p, q = mj.sample_majorized_pair(k, rng)
            delta = float(rng.uniform(0, 2))
            fp = mj.flattest(p, delta)
            fq = mj.flattest(q, delta)
            if fp.clamped or fq.clamped:
                continue
            assert fp.meta.upper_level >= fq.meta.upper_level - 1e-9
            assert fp.meta.lower_level <= fq.meta.lower_level + 1e-9
            checked += 1
