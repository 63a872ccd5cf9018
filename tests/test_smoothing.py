import dataclasses
import hashlib

import numpy as np
import pytest

import majorize as mj
from majorize.errors import BudgetOutOfRangeError, InvalidDeltaError

from conftest import ball_bases, random_distribution


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


def _argmax_water_level(v: np.ndarray, budget: float) -> float:
    """Reference upper level: the full five-pass scan, first passing segment by argmax."""
    levels = np.cumsum(v)
    levels -= budget
    levels /= np.arange(1.0, v.size + 1.0)
    ok = np.empty(v.size, dtype=bool)
    np.greater_equal(levels[:-1], v[1:], out=ok[:-1])
    ok[-1] = True
    return float(levels[np.argmax(ok)])


def _level_sweep_bases(rng: np.random.Generator, k: int) -> list[mj.Distribution]:
    """Random, one-decimal ties, a 1/T grid, half zeros and 1e-300 entries at one k."""
    grid = rng.multinomial(int(rng.choice([10, 20, 100])), np.full(k, 1.0 / k))
    half_zeros = rng.random(k)
    half_zeros[rng.random(k) < 0.5] = 0.0
    half_zeros[0] += 0.1
    tiny = rng.random(k)
    tiny[rng.random(k) < 0.5] = 1e-300
    raws = [rng.random(k), np.round(rng.random(k), 1) + 0.1, grid / grid.sum(), half_zeros, tiny]
    return [mj.make_distribution(raw, "renormalize") for raw in raws]


class TestWaterLevelFirstSegment:
    """The bisected solve picks the same segment as a full argmax scan, bit for bit."""

    def test_tie_run_where_the_predicate_is_not_monotone(self):
        # from below the segment predicate reads True, False, True here;
        # a bisection without its first-segment pass returns 0x1.6666666666668p-2
        p = mj.make_distribution([0.6, 0.7, 0.7], "renormalize")
        level, start = mj.solve_lower_level(p, 0.05)
        assert (level.hex(), start) == ((0.35000000000000003).hex(), 1)

    def test_matches_the_argmax_scan(self):
        rng = np.random.default_rng(41)
        solved = 0
        for k in range(2, 301):
            for p in _level_sweep_bases(rng, k):
                v = p.values
                for budget in (1e-13, 1e-3, 0.1, 0.3):
                    try:
                        upper, _ = mj.solve_upper_level(p, budget)
                    except BudgetOutOfRangeError:
                        pass
                    else:
                        assert upper.hex() == _argmax_water_level(v, budget).hex()
                        solved += 1
                    try:
                        lower, _ = mj.solve_lower_level(p, budget)
                    except BudgetOutOfRangeError:
                        pass
                    else:
                        assert lower.hex() == (-_argmax_water_level(-v[::-1], budget)).hex()
                        solved += 1
        assert solved > 11000


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


# sha256 digests (first 16 hex digits) of the large-k kernels on
# ball_bases(k), one per (k, base, kernel) over all of _frozen_budgets,
# recorded before the in-place passes and the packed-key canonical sort:
# values and perms as bytes, floats as hex, counts and flags as text.
FROZEN_LARGE_K = [
    (10**3, "random", "steepest", "791d3ba6c4291e81"),
    (10**3, "random", "flattest", "4c17dfd8c4860930"),
    (10**3, "random", "lorenz_steepest", "84613bf050078532"),
    (10**3, "random", "lorenz_flattest", "a5c38ffa2ec79dab"),
    (10**3, "random", "solve_upper_level", "17d409297d6166db"),
    (10**3, "random", "solve_lower_level", "336c0d571bbcd177"),
    (10**3, "random", "majorization_distance", "69b320554aaa9fdf"),
    (10**3, "tied", "steepest", "a4da79cd2f3d12d8"),
    (10**3, "tied", "flattest", "2aefa9ff4705efd6"),
    (10**3, "tied", "lorenz_steepest", "f5d45be0fea872b0"),
    (10**3, "tied", "lorenz_flattest", "d2dc7282cc6e2d9c"),
    (10**3, "tied", "solve_upper_level", "e579640ee04af130"),
    (10**3, "tied", "solve_lower_level", "2aac01d0ed018e4b"),
    (10**3, "tied", "majorization_distance", "607e46292cee715b"),
    (10**5, "random", "steepest", "48a0f8596faa75ba"),
    (10**5, "random", "flattest", "41d030aac822de1d"),
    (10**5, "random", "lorenz_steepest", "45b603ebbe3b05f7"),
    (10**5, "random", "lorenz_flattest", "feb13c57c0273a5c"),
    (10**5, "random", "solve_upper_level", "a73dc47809ed0d87"),
    (10**5, "random", "solve_lower_level", "e1dcd785b5ad76cf"),
    (10**5, "random", "majorization_distance", "09ae633a3e3df9f9"),
    (10**5, "tied", "steepest", "04fc63d0f93be185"),
    (10**5, "tied", "flattest", "6329c48cda6c5da6"),
    (10**5, "tied", "lorenz_steepest", "4c83121cfba34938"),
    (10**5, "tied", "lorenz_flattest", "8a64ab4701ebd9c1"),
    (10**5, "tied", "solve_upper_level", "6ceb1843a992e836"),
    (10**5, "tied", "solve_lower_level", "082d3e1f1756990d"),
    (10**5, "tied", "majorization_distance", "20abdeca789a21cb"),
]


def _frozen_budgets(p: mj.Distribution) -> list[float]:
    """Both clamp boundaries +-1 ulp, sub-resolution budgets and one random."""
    steep = p.values.copy()
    steep[0] = 1.0 - steep[0]
    flat = np.abs(p.values - 1.0 / p.k)
    drawn = float(np.random.default_rng(p.k).uniform(0.0, 2.0))
    budgets = [0.0, 5e-324, 1e-13, 1e-12, 2e-12, drawn, 2.0]
    for edge in (float(steep.sum()), float(flat.sum())):
        budgets += [float(np.nextafter(edge, 0.0)), edge, float(np.nextafter(edge, 3.0))]
    return [d for d in budgets if d <= 2.0]


def _frozen_record(out) -> str:
    """Text of a kernel output: floats as hex, arrays as their bytes' digest."""
    if isinstance(out, (tuple, list)):
        return "(" + ",".join(_frozen_record(x) for x in out) + ")"
    if isinstance(out, np.ndarray):
        return hashlib.sha256(out.tobytes()).hexdigest()
    if isinstance(out, float):
        return out.hex()
    return repr(out)


def _smoothed_record(sr) -> tuple:
    meta = None if sr.meta is None else dataclasses.astuple(sr.meta)
    perm = sr.result.perm.astype(np.int64)
    return (sr.result.values, perm, sr.clamped, meta)


def _large_k_records(k: int, name: str) -> dict[str, str]:
    p = ball_bases(k)[name]
    q = random_distribution(np.random.default_rng(k + 1), k=k)
    records = {
        "steepest": [], "flattest": [], "lorenz_steepest": [], "lorenz_flattest": [],
        "solve_upper_level": [], "solve_lower_level": [],
        "majorization_distance": [mj.majorization_distance(a, b) for a, b in ((p, q), (q, p))],
    }
    for delta in _frozen_budgets(p):
        s, f = mj.steepest(p, delta), mj.flattest(p, delta)
        records["steepest"].append(_smoothed_record(s))
        records["flattest"].append(_smoothed_record(f))
        records["lorenz_steepest"].append(mj.lorenz_steepest(p, delta).cumulative)
        records["lorenz_flattest"].append(mj.lorenz_flattest(p, delta).cumulative)
        for solver in (mj.solve_upper_level, mj.solve_lower_level):
            try:
                out = solver(p, delta / 2.0)
            except BudgetOutOfRangeError:
                out = "out of range"
            records[solver.__name__].append(out)
        records["majorization_distance"] += [
            mj.majorization_distance(p, s.result), mj.majorization_distance(f.result, p)
        ]
    return {
        kernel: hashlib.sha256(_frozen_record(out).encode()).hexdigest()[:16]
        for kernel, out in records.items()
    }


class TestFrozenLargeK:
    @pytest.mark.parametrize("k", [10**3, 10**5])
    @pytest.mark.parametrize("name", ["random", "tied"])
    def test_kernels_match_frozen_digests(self, k, name):
        want = {kern: dig for kk, nn, kern, dig in FROZEN_LARGE_K if (kk, nn) == (k, name)}
        assert _large_k_records(k, name) == want
