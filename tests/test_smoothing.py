import collections
import dataclasses
import fractions
import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

import majorize as mj
from majorize.errors import InvalidDeltaError
from majorize import smoothing
from majorize.smoothing import _water_level

from conftest import ball_bases, random_distribution


P = mj.make_distribution([0.6, 0.3, 0.1])


class TestSmoothedResult:
    def test_meta_must_match_the_kind(self):
        # the removed form passed a clamped flag where meta now goes
        with pytest.raises(TypeError):
            mj.SmoothedResult(P, "flattest", 0.1, False)
        with pytest.raises(TypeError):
            mj.SmoothedResult(P, "flattest", 0.4, mj.SteepestMeta(1, 0.2))
        with pytest.raises(ValueError):
            mj.SmoothedResult(P, "sideways", 0.1)


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

    def test_float_cut_before_the_first_entry_clamps(self):
        # inside the 1e-7 mass slack p1 + delta/2 passes 1, while the float
        # distance to the point mass (0.79999995) still exceeds delta
        p = mj.Distribution(np.array([0.6 + 5e-8, 0.4]), np.arange(2))
        delta = 0.8 - 6e-8
        assert mj.l1_distance(p, mj.point_mass(2)) > delta
        out = mj.steepest(p, delta)
        assert out.result.values.tolist() == [1.0, 0.0]
        assert out.clamped

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

    @pytest.mark.parametrize("delta", [0.0, 5e-324])  # 5e-324 / 2 underflows to 0
    @pytest.mark.parametrize("p, meta", [
        (P, (0.6000000000000001, 0.10000000000000002, 1, 3)),
        (mj.make_distribution([3, 3, 1, 0], "renormalize"), (0.42857142857142855, 0.0, 2, 4)),
    ], ids=["P", "tied"])
    def test_zero_delta_is_identity(self, p, meta, delta):
        out = mj.flattest(p, delta)
        assert out.result.values.tobytes() == p.values.tobytes()
        assert not out.clamped
        assert dataclasses.astuple(out.meta) == meta

    def test_tied_top_entries_are_cut_together(self):
        p = mj.make_distribution([0.4, 0.4, 0.2])
        m = mj.flattest(p, 0.2).meta
        assert (m.upper_level, m.lower_level) == (0.35000000000000003, 0.30000000000000004)
        assert (m.upper_count, m.lower_start) == (2, 3)

    def test_tiny_budget_levels_sit_at_the_end_entries(self):
        m = mj.flattest(P, 2e-12).meta
        assert m.upper_level == pytest.approx(float(P.values[0]), abs=1e-11)
        assert m.lower_level == pytest.approx(float(P.values[-1]), abs=1e-11)
        assert (m.upper_count, m.lower_start) == (1, 3)

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
        assert (m.upper_count, m.lower_start) == (1, 2)
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

    def test_each_side_moves_half_the_budget(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            p = random_distribution(rng)
            delta = float(rng.uniform(1e-7, 2.0))
            out = mj.flattest(p, delta)
            if out.clamped:
                continue
            m, v = out.meta, p.values
            removed = float(np.maximum(v - m.upper_level, 0).sum())
            added = float(np.maximum(m.lower_level - v, 0).sum())
            assert removed == pytest.approx(delta / 2, abs=1e-9)
            assert added == pytest.approx(delta / 2, abs=1e-9)
            assert m.upper_count == int(np.sum(v >= m.upper_level - 1e-9))
            assert m.lower_start == p.k - int(np.sum(v <= m.lower_level + 1e-9)) + 1

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


EPS = np.finfo(float).eps


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 1: steepest's absolute 1e-12 cut keeps every entry "
    "when delta < 2e-12 and takes delta/2 from a zero last entry",
)
@pytest.mark.parametrize(
    "values, delta",
    [([0.5, 0.3, 0.2, 0.0, 0.0], 1e-12), ([0.5, 0.3, 0.2, 0.0], 2e-12)],
    ids=["k5", "k4"],
)
def test_steepest_near_a_zero_tail_keeps_exact_mass(values, delta):
    p = mj.make_distribution(values)
    mass = sum(map(fractions.Fraction, mj.steepest(p, delta).result.values.tolist()))
    assert abs(mass - 1) <= 4 * p.k * EPS


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 1: the zero-tail cut breaks steepest's composition "
    "in delta, by 183 k eps here",
)
def test_steepest_composes_in_delta_near_a_zero_tail():
    raw = [0, 0, 0, 0.211840339102855, 0.12922714526182666]
    p = mj.make_distribution(raw, "renormalize")
    a, b = 6.896695048539657e-12, 4.0594487136295144e-13
    twice = mj.steepest(mj.steepest(p, a).result, b).result
    once = mj.steepest(p, a + b).result
    gap = np.abs(mj.lorenz(twice).cumulative - mj.lorenz(once).cumulative).max()
    assert gap <= 4 * p.k * EPS


CALLER_ORDER = mj.make_distribution([0.1, 0.9])  # perm [1, 0]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 9: a clamped steepest result carries the identity "
    "perm, not p's",
)
def test_clamped_steepest_maps_to_the_callers_order():
    out = mj.steepest(CALLER_ORDER, 0.2).result.to_original_order()
    assert out.tolist() == [0.0, 1.0]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 9: a clamped flattest result carries the identity "
    "perm, not p's",
)
def test_clamped_flattest_keeps_the_callers_perm():
    assert np.array_equal(mj.flattest(CALLER_ORDER, 1.0).result.perm, CALLER_ORDER.perm)


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
        w = p.values[::-1]
        level = _water_level(w, w.cumsum(), 0.05, from_above=False)
        assert level.hex() == (0.35000000000000003).hex()

    def test_matches_the_argmax_scan(self):
        rng = np.random.default_rng(41)
        solved = 0
        for k in range(2, 301):
            for p in _level_sweep_bases(rng, k):
                v = p.values
                # budgets that level at most the whole vector, tau slack
                mass = float(v.sum()) + 1e-9
                deficit = k * float(v[0]) - float(v.sum()) + 1e-9
                for budget in (1e-13, 1e-3, 0.1, 0.3):
                    if budget <= mass:
                        upper = _water_level(v, v.cumsum(), budget, from_above=True)
                        assert upper.hex() == _argmax_water_level(v, budget).hex()
                        solved += 1
                    if budget <= deficit:
                        w = v[::-1]
                        lower = _water_level(w, w.cumsum(), budget, from_above=False)
                        assert lower.hex() == (-_argmax_water_level(-w, budget)).hex()
                        solved += 1
        assert solved > 11000

    def test_reads_write_locked_prefix_sums_and_leaves_them_unchanged(self):
        # flattest passes p's kept Lorenz curve, which every later caller shares;
        # both budgets level enough entries to reach the first-segment pass
        p = mj.make_distribution(np.random.default_rng(43).random(50), "renormalize")
        v, w = p.values, p.values[::-1]
        for x, c, from_above in ((v, mj.lorenz(p).cumulative[1:], True), (w, w.cumsum(), False)):
            c.setflags(write=False)
            before = c.tobytes()
            for budget in (0.05, 0.2):
                level = _water_level(x, c, budget, from_above)
                assert level.hex() == _water_level(x, x.cumsum(), budget, from_above).hex()
            assert c.tobytes() == before


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
    (10**3, "random", "majorization_distance", "69b320554aaa9fdf"),
    (10**3, "tied", "steepest", "a4da79cd2f3d12d8"),
    (10**3, "tied", "flattest", "2aefa9ff4705efd6"),
    (10**3, "tied", "lorenz_steepest", "f5d45be0fea872b0"),
    (10**3, "tied", "lorenz_flattest", "d2dc7282cc6e2d9c"),
    (10**3, "tied", "majorization_distance", "607e46292cee715b"),
    (10**5, "random", "steepest", "48a0f8596faa75ba"),
    (10**5, "random", "flattest", "41d030aac822de1d"),
    (10**5, "random", "lorenz_steepest", "45b603ebbe3b05f7"),
    (10**5, "random", "lorenz_flattest", "feb13c57c0273a5c"),
    (10**5, "random", "majorization_distance", "09ae633a3e3df9f9"),
    (10**5, "tied", "steepest", "04fc63d0f93be185"),
    (10**5, "tied", "flattest", "6329c48cda6c5da6"),
    (10**5, "tied", "lorenz_steepest", "4c83121cfba34938"),
    (10**5, "tied", "lorenz_flattest", "8a64ab4701ebd9c1"),
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
        "majorization_distance": [mj.majorization_distance(a, b) for a, b in ((p, q), (q, p))],
    }
    for delta in _frozen_budgets(p):
        s, f = mj.steepest(p, delta), mj.flattest(p, delta)
        records["steepest"].append(_smoothed_record(s))
        records["flattest"].append(_smoothed_record(f))
        records["lorenz_steepest"].append(mj.lorenz_steepest(p, delta).cumulative)
        records["lorenz_flattest"].append(mj.lorenz_flattest(p, delta).cumulative)
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


# sha256 digest (first 16 hex digits) of flattest over _small_k_sweep,
# recorded before flattest called the water-level kernel directly: 20 draws
# of _level_sweep_bases at each k in [2, 64], budgets 0, 5e-324, 1e-13, one
# random and the uniform clamp boundary -4..+2 ulps.
FROZEN_SMALL_K_FLATTEST = "af11690dc143e5a3"


def _small_k_sweep():
    for k in range(2, 65):
        rng = np.random.default_rng(k)
        for _ in range(20):
            for p in _level_sweep_bases(rng, k):
                edge = float(np.abs(p.values - 1.0 / k).sum())
                for _ in range(4):
                    edge = float(np.nextafter(edge, -1.0))
                budgets = [0.0, 5e-324, 1e-13, float(rng.uniform(0.0, 2.0))]
                for _ in range(7):
                    budgets.append(edge)
                    edge = float(np.nextafter(edge, 3.0))
                for delta in budgets:
                    if 0.0 <= delta <= 2.0:
                        yield p, delta


class TestFrozenSmallK:
    def test_flattest_matches_frozen_digest(self):
        digest = hashlib.sha256()
        cases = clamped = 0
        for p, delta in _small_k_sweep():
            sr = mj.flattest(p, delta)
            digest.update(_frozen_record(_smoothed_record(sr)).encode())
            cases += 1
            clamped += sr.clamped
        # the sweep reaches both sides of the uniform clamp
        assert cases > 60000 and 0 < clamped < cases
        assert digest.hexdigest()[:16] == FROZEN_SMALL_K_FLATTEST


def _fresh(p: mj.Distribution) -> mj.Distribution:
    """An equal distribution that has built no extremal point yet."""
    return mj.Distribution(p.values.copy(), p.perm.copy())


def _record(sr) -> str:
    return _frozen_record(_smoothed_record(sr))


MEMO_BASES = {
    **{f"{name}_{k}": p for k in (8, 1000) for name, p in ball_bases(k).items()},
    "negative_zero": mj.make_distribution([0.5, 0.3, 0.2, -0.0]),
    "uniform": mj.uniform(5),
    "point_mass": mj.point_mass(3),
}


@pytest.fixture
def builds(monkeypatch):
    """Count the builds of each kind of extremal point."""
    counts = collections.Counter()
    for kind in ("steepest", "flattest"):
        name = f"_{kind}_point"

        def counted(p, delta, build=getattr(smoothing, name), kind=kind):
            counts[kind] += 1
            return build(p, delta)

        monkeypatch.setattr(smoothing, name, counted)
    return counts


class TestExtremalPointMemo:
    @pytest.mark.parametrize("name", sorted(MEMO_BASES))
    def test_repeated_and_interleaved_calls_match_fresh_builds(self, name):
        p = MEMO_BASES[name]
        fns = mj.default_functions()
        for delta in (0.3, 1e-13, 0.3, 0.05, 0.0, 0.05, 2.0, 0.3):
            for _ in range(2):
                assert _record(mj.steepest(p, delta)) == _record(mj.steepest(_fresh(p), delta))
                assert _record(mj.flattest(p, delta)) == _record(mj.flattest(_fresh(p), delta))
                for curve in (mj.lorenz_steepest, mj.lorenz_flattest):
                    got = curve(p, delta).cumulative
                    assert got.tobytes() == curve(_fresh(p), delta).cumulative.tobytes()
                assert mj.lorenz(p).cumulative.tobytes() == mj.lorenz(_fresh(p)).cumulative.tobytes()
                for g in fns:
                    for smooth in (mj.smooth_max, mj.smooth_min):
                        want = smooth(g, _fresh(p), delta)
                        assert smooth(g, p, delta).hex() == want.hex()

    @pytest.mark.parametrize("kind", ["steepest", "flattest"])
    def test_alternating_budgets_never_return_a_stale_point(self, kind):
        fn = getattr(mj, kind)
        p = MEMO_BASES["random_8"]
        first, second, again = fn(p, 0.2), fn(p, 0.4), fn(p, 0.2)
        assert _record(first) != _record(second)
        assert _record(again) == _record(first) == _record(fn(_fresh(p), 0.2))
        assert fn(p, 0.2).result is again.result is not second.result
        assert fn(p, 0.2) is again

    def test_flattest_counts_its_blocks_at_the_default_tau(self, builds):
        # the top two entries level to 0.29745, more than 1e-9 above the third
        p = mj.make_distribution([0.3, 0.2999, 0.297, 0.1031], "renormalize")
        meta = mj.flattest(p, 0.01).meta
        assert mj.flattest(p, 0.01).meta is meta
        assert builds["flattest"] == 1
        assert meta == mj.flattest(_fresh(p), 0.01).meta
        assert meta.upper_count == 2

    def test_each_result_reports_the_callers_signed_zero(self):
        # the lower level of the -0.0 entry keeps the budget's sign, so the
        # two zeros are different keys
        p = MEMO_BASES["negative_zero"]
        for delta in (0.0, -0.0, 0.0, -0.0):
            for fn in (mj.steepest, mj.flattest):
                sr = fn(p, delta)
                assert math.copysign(1.0, sr.delta) == math.copysign(1.0, delta)
                assert _record(sr) == _record(fn(_fresh(p), delta))

    def test_steepest_at_zero_leaves_no_reference_cycle(self):
        p = mj.make_distribution([0.6, 0.4])
        ref = weakref.ref(p)
        gc.disable()
        try:
            assert mj.steepest(p, 0.0).result is p
            mj.flattest(p, 0.0)
            del p
            assert ref() is None
        finally:
            gc.enable()

    def test_lorenz_is_kept_and_write_locked(self):
        p = _fresh(MEMO_BASES["random_1000"])
        curve = mj.lorenz(p)
        assert mj.lorenz(p) is curve
        assert not curve.cumulative.flags.writeable
        with pytest.raises(ValueError):
            curve.cumulative[1] = 0.5
        # the builders that read the kept curve leave it as it was
        want = mj.lorenz(_fresh(p)).cumulative.tobytes()
        for delta in (0.3, 1e-13, 0.05):
            mj.steepest(p, delta), mj.flattest(p, delta), mj.lorenz_steepest(p, delta)
        assert mj.lorenz(p) is curve and curve.cumulative.tobytes() == want

    def test_lorenz_steepest_is_the_shifted_curve(self):
        # the closed form on its own prefix sums, bit for bit
        for p in MEMO_BASES.values():
            for delta in (0.0, -0.0, 1e-13, 0.05, 0.3, 2.0):
                want = np.zeros(p.k + 1)
                want[1:] = np.minimum(np.cumsum(p.values) + delta / 2.0, 1.0)
                assert mj.lorenz_steepest(p, delta).cumulative.tobytes() == want.tobytes()

    def test_large_k_op_takes_each_prefix_sum_once(self, cumsum_calls):
        # p's curve, the lower level, the pair's gap and the flattest point's curve;
        # a repeat op on the same objects takes none
        rng = np.random.default_rng(6)
        p, q = (mj.make_distribution(rng.standard_exponential(1000), "renormalize") for _ in "pq")
        g = mj.default_functions()[0]
        for _ in range(2):
            mj.steepest(p, 0.3), mj.flattest(p, 0.3)
            mj.lorenz_steepest(p, 0.3), mj.lorenz_flattest(p, 0.3)
            mj.majorizes(p, q), mj.majorization_distance(p, q)
            mj.smooth_max(g, p, 0.3), mj.smooth_min(g, p, 0.3)
            assert cumsum_calls == {1000: 4}

    def test_large_k_op_builds_each_point_once(self, builds):
        rng = np.random.default_rng(5)
        for g in mj.default_functions():
            p = mj.make_distribution(rng.standard_exponential(1000), "renormalize")
            delta = float(rng.uniform(0.05, 0.6))
            mj.steepest(p, delta)
            mj.flattest(p, delta)
            mj.lorenz_steepest(p, delta)
            mj.lorenz_flattest(p, delta)
            mj.smooth_max(g, p, delta)
            mj.smooth_min(g, p, delta)
            mj.brute_force_extremum(g, p, delta, 3, 0, "max")
        assert builds == {"steepest": 6, "flattest": 6}

    def test_delta_sweep_revisit_rebuilds(self, builds):
        p = MEMO_BASES["random_8"]
        fns = mj.default_functions()
        deltas = np.geomspace(1e-3, 1.5, 8).tolist()
        for op in range(2):
            for j, delta in enumerate(deltas):
                mj.steepest(p, delta)
                mj.flattest(p, delta)
                mj.smooth_max(fns[j % len(fns)], p, delta)
                mj.smooth_min(fns[j % len(fns)], p, delta)
                mj.lorenz_flattest(p, delta)
            # the second pass starts at the first budget while each slot
            # holds the last, so every point is built again
            assert builds == {"steepest": 8 * (op + 1), "flattest": 8 * (op + 1)}
