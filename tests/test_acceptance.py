"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single summary line on success and pins its own
tolerances and runtime budget; random workloads use fixed seeds so
reruns are bit-identical.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import majorize as mj
import golden

TAU = 1e-9


def _random_distribution(rng, k):
    return mj.make_distribution(rng.dirichlet(np.ones(k)), "renormalize")


@pytest.fixture(scope="module")
def ordered_pairs():
    # shared by criteria 3 and 4, which must see the same pairs
    rng = np.random.default_rng(303)
    pairs = []
    for _ in range(500):
        k = int(rng.integers(2, 9))
        p, q = mj.sample_majorized_pair(k, rng)
        deltas = rng.uniform(0.0, 2.0, size=5)
        pairs.append((p, q, deltas))
    return pairs


def test_criterion_1_known_three_point_case():
    start = time.perf_counter()
    p = mj.make_distribution([0.6, 0.3, 0.1])
    up = mj.steepest(p, 0.4).result
    down = mj.flattest(p, 0.4).result
    assert up.values == pytest.approx([0.8, 0.2, 0.0], abs=TAU)
    assert down.values == pytest.approx([0.4, 0.3, 0.3], abs=TAU)
    assert mj.lorenz(p).cumulative == pytest.approx([0, 0.6, 0.9, 1.0], abs=TAU)
    assert mj.lorenz_steepest(p, 0.4).cumulative == pytest.approx(
        [0, 0.8, 1.0, 1.0], abs=TAU
    )
    assert mj.lorenz_flattest(p, 0.4).cumulative == pytest.approx(
        [0, 0.4, 0.7, 1.0], abs=TAU
    )
    assert mj.lorenz(up).cumulative == pytest.approx([0, 0.8, 1.0, 1.0], abs=TAU)
    assert mj.lorenz(down).cumulative == pytest.approx([0, 0.4, 0.7, 1.0], abs=TAU)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion 1 PASS: reference 3-point case reproduced to 1e-9 "
        f"in {elapsed:.3f}s"
    )


def test_criterion_2_extremality_of_the_perturbations():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    violations = 0
    checked = 0
    for _ in range(200):
        k = int(rng.integers(2, 9))
        p = _random_distribution(rng, k)
        for _ in range(5):
            delta = float(rng.uniform(0.0, 2.0))
            up = mj.steepest(p, delta).result
            down = mj.flattest(p, delta).result
            up_cum = np.cumsum(up.values)
            down_cum = np.cumsum(down.values)
            samples = [up, down]  # the extremal points count as samples
            for _ in range(1000):
                samples.append(mj.sample_delta_ball(p, delta, rng))
            for s in samples:
                cs = np.cumsum(s.values)
                if np.any(up_cum < cs - TAU) or np.any(cs < down_cum - TAU):
                    violations += 1
                checked += 1
            samples.clear()
    elapsed = time.perf_counter() - start
    assert checked == 200 * 5 * 1002
    assert violations == 0
    assert elapsed < 60.0
    print(
        f"criterion 2 PASS: {checked} ball samples between the extremes "
        f"at tau=1e-9, 0 violations, {elapsed:.1f}s"
    )


def test_criterion_3_order_preservation(ordered_pairs):
    start = time.perf_counter()
    for p, q, deltas in ordered_pairs:
        for delta in deltas:
            delta = float(delta)
            assert mj.majorizes(
                mj.steepest(p, delta).result, mj.steepest(q, delta).result
            )
            assert mj.majorizes(
                mj.flattest(p, delta).result, mj.flattest(q, delta).result
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 3 PASS: order preserved on {len(ordered_pairs)} pairs "
        f"x 5 budgets, {elapsed:.1f}s"
    )


def test_criterion_4_level_monotonicity(ordered_pairs):
    checked = 0
    for p, q, deltas in ordered_pairs:
        for delta in deltas:
            fp = mj.flattest(p, float(delta))
            fq = mj.flattest(q, float(delta))
            if fp.clamped or fq.clamped:
                continue
            mp, mq = fp.meta, fq.meta
            assert mp.upper_level >= mq.upper_level - 1e-9
            assert mp.lower_level <= mq.lower_level + 1e-9
            checked += 1
    assert checked > 0
    print(
        f"criterion 4 PASS: water levels monotone on {checked} unclamped "
        f"cases from the same pairs"
    )


def test_criterion_5_distance_formula_against_bisection():
    rng = np.random.default_rng(505)
    pairs = []
    while len(pairs) < 500:
        k = int(rng.integers(3, 9))
        p = _random_distribution(rng, k)
        q = _random_distribution(rng, k)
        if mj.majorizes(p, q) or mj.majorizes(q, p):
            continue
        # the delta*-1e-6 assertion needs room below the distance
        if mj.majorization_distance(p, q) < 1e-4:
            continue
        pairs.append((p, q))
    worst = 0.0
    for p, q in pairs:
        d = mj.majorization_distance(p, q)
        lo, hi = 0.0, 2.0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if mj.majorizes(mj.steepest(p, mid).result, q, tau=1e-15):
                hi = mid
            else:
                lo = mid
        worst = max(worst, abs(hi - d))
        assert abs(hi - d) <= 1e-9
        assert mj.majorizes(mj.steepest(p, d).result, q)
        assert mj.majorizes(p, mj.flattest(q, d).result)
        assert not mj.majorizes(mj.steepest(p, d - 1e-6).result, q)
        assert not mj.majorizes(p, mj.flattest(q, d - 1e-6).result)
    print(
        f"criterion 5 PASS: formula vs bisection within 1e-9 on 500 "
        f"incomparable pairs (worst gap {worst:.2e}); witnesses flip at "
        f"delta* - 1e-6"
    )


def test_criterion_6_smoothed_extrema_match_the_oracle():
    functions = (
        mj.shannon(),
        mj.renyi_entropy(0.0),
        mj.renyi_entropy(0.5),
        mj.renyi_entropy(2.0),
        mj.renyi_entropy(math.inf),
        mj.sum_of_powers(2.0),
    )
    rng = np.random.default_rng(606)
    for case in range(100):
        k = int(rng.integers(2, 9))
        p = _random_distribution(rng, k)
        delta = float(rng.uniform(0.0, 2.0))
        seed = int(rng.integers(0, 2**31))
        sample_rng = np.random.default_rng(seed)
        samples = [mj.sample_delta_ball(p, delta, sample_rng) for _ in range(2000)]
        up = mj.steepest(p, delta).result
        down = mj.flattest(p, delta).result
        for f in functions:
            sampled = [f(s) for s in samples]
            at_extremes = (f(up), f(down))
            oracle_max = max(max(sampled), *at_extremes)
            oracle_min = min(min(sampled), *at_extremes)
            closed_max = mj.smooth_max(f, p, delta)
            closed_min = mj.smooth_min(f, p, delta)
            assert closed_max == oracle_max
            assert closed_min == oracle_min
            # the closed form dominates sampling alone
            assert max(sampled) <= closed_max
            assert min(sampled) >= closed_min
        # tie the shared sample pass to the library oracle bit for bit,
        # rotating through the registry
        f = functions[case % len(functions)]
        direct = mj.brute_force_extremum(f, p, delta, n=2000, seed=seed, mode="max")
        assert direct == mj.smooth_max(f, p, delta)
    print(
        "criterion 6 PASS: smooth_max/min equal the extremal-inclusive "
        "2000-sample oracle exactly and dominate sampling alone on "
        "100 cases x 6 functions"
    )


def test_criterion_7_transfer_plans():
    rng = np.random.default_rng(707)
    for _ in range(500):
        k = int(rng.integers(2, 9))
        p, q = mj.sample_majorized_pair(k, rng)
        plan = mj.transfer_plan(p, q)
        assert len(plan.steps) <= k - 1
        m = plan.matrix
        assert np.abs(m.sum(axis=0) - 1.0).max() <= 1e-9
        assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.abs(m @ p.values - q.values).max() <= 1e-9
        assert np.abs(plan.apply(p.values) - q.values).max() <= 1e-9
    print(
        "criterion 7 PASS: 500 doubly-stochastic transfer plans reach the "
        "target within 1e-9 in at most k-1 steps"
    )


def test_criterion_8_distance_saturation_and_clamping():
    rng = np.random.default_rng(808)
    clamped_seen = {"steepest": 0, "flattest": 0}
    cases = [(_random_distribution(rng, int(rng.integers(2, 9))),
              float(rng.uniform(0.0, 2.0))) for _ in range(300)]
    # budget 2 always clamps: force both branches into the sample
    cases.append((mj.make_distribution([0.6, 0.3, 0.1]), 2.0))
    for p, delta in cases:
        for build, target in (
            (mj.steepest, mj.point_mass(p.k)),
            (mj.flattest, mj.uniform(p.k)),
        ):
            sr = build(p, delta)
            if sr.clamped:
                assert np.array_equal(sr.result.values, target.values)
                clamped_seen[sr.kind] += 1
            else:
                assert mj.l1_distance(p, sr.result) == pytest.approx(delta, abs=TAU)
    assert clamped_seen["steepest"] > 0 and clamped_seen["flattest"] > 0
    for bad in (-0.1, -1e-9, 2.0 + 1e-9, 3.0, float("nan"), float("inf")):
        for build in (mj.steepest, mj.flattest):
            with pytest.raises(mj.InvalidDeltaError):
                build(mj.uniform(3), bad)
    print(
        f"criterion 8 PASS: budget saturated within 1e-9 when unclamped; "
        f"{clamped_seen['steepest']}/{clamped_seen['flattest']} clamped cases "
        f"returned the exact extremes; out-of-range budgets rejected"
    )


def _run_cli(args, tmp_path):
    # Put the directory holding the imported package first on the child's
    # path, so the child runs the code under test even when the parent's
    # PYTHONPATH is relative (it would resolve against cwd=tmp_path).
    package_root = str(Path(mj.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join(filter(None, [package_root, inherited]))
    env = dict(os.environ, MAJORIZE_SEED="0", PYTHONPATH=pythonpath)
    return subprocess.run(
        [sys.executable, "-m", "majorize", *args],
        capture_output=True,
        cwd=tmp_path,
        env=env,
    )


def _stderr(res):
    return "child stderr:\n" + res.stderr.decode(errors="replace")


def test_criterion_9_cli_golden_outputs(tmp_path):
    paths = golden.write_inputs(tmp_path)
    p, q = paths["p.json"], paths["q.json"]
    a, b = paths["a.csv"], paths["b.csv"]
    script = [
        (["check", p, q], golden.CHECK_P_Q, 0),
        (["check", a, b], golden.CHECK_A_B, 1),
        (["approx", p, "--delta", "0.4", "--kind", "steepest"],
         golden.APPROX_STEEPEST, 0),
        (["approx", p, "--delta", "0.4", "--kind", "flattest"],
         golden.APPROX_FLATTEST, 0),
        (["distance", a, b], golden.DISTANCE_A_B, 0),
        (["distance", p, q], golden.DISTANCE_P_Q, 0),
        (["smooth", p, "--function", "shannon", "--mode", "max",
          "--delta", "0.4", "--verify", "50"], golden.SMOOTH_SHANNON_MAX, 0),
        (["smooth", p, "--function", "renyi:inf", "--mode", "min",
          "--delta", "0.4"], golden.SMOOTH_RENYI_INF_MIN, 0),
        (["lorenz", p], golden.LORENZ_PLAIN, 0),
        (["lorenz", p, "--delta", "0.4"], golden.LORENZ_TABLE, 0),
    ]
    for args, expected, code in script:
        first = _run_cli(args, tmp_path)
        second = _run_cli(args, tmp_path)
        assert first.stdout == second.stdout, (
            f"non-deterministic: {args}\n{_stderr(first)}\n{_stderr(second)}"
        )
        assert first.stdout == expected.encode(), (
            f"golden mismatch: {args}\n{_stderr(first)}"
        )
        assert first.returncode == second.returncode == code, (
            f"exit code: {args}\n{_stderr(first)}\n{_stderr(second)}"
        )

    out_json = tmp_path / "r.json"
    out_csv = tmp_path / "r.csv"
    for _ in range(2):
        res = _run_cli(
            ["approx", p, "--delta", "0.4", "--kind", "steepest",
             "--out", str(out_json), "--lorenz-out", str(out_csv)],
            tmp_path,
        )
        assert res.returncode == 0, _stderr(res)
        assert out_json.read_text() == golden.APPROX_STEEPEST_JSON
        assert out_csv.read_text() == golden.APPROX_STEEPEST_LORENZ

    bad = tmp_path / "bad.csv"
    bad.write_text("0.5\n0.6\n")
    errors = [
        ["approx", p, "--delta", "3", "--kind", "steepest"],
        ["check", str(bad), str(bad)],
        ["smooth", p, "--function", "nope", "--mode", "max", "--delta", "0.1"],
        ["check", str(tmp_path / "missing.json"), q],
    ]
    for args in errors:
        res = _run_cli(args, tmp_path)
        assert res.returncode == 2, f"expected exit 2: {args}\n{_stderr(res)}"
    print(
        "criterion 9 PASS: five subcommands byte-identical across runs and "
        "matching frozen goldens; exit codes 0/1/2 as documented"
    )
