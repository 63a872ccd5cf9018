"""The public surface: what `majorize` exports and what the benchmark harness wraps."""

import copy
import pickle
from pathlib import Path

import pytest

import majorize as mj

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

REMOVED = (
    "solve_upper_level",
    "solve_lower_level",
    "BudgetOutOfRangeError",
    "weakly_majorizes",
    "direction_violations",
)


def test_all_names_resolve_once():
    assert len(set(mj.__all__)) == len(mj.__all__)
    missing = [name for name in mj.__all__ if not hasattr(mj, name)]
    assert missing == []


def test_removed_names_are_gone():
    assert [name for name in REMOVED if hasattr(mj, name)] == []


def test_benchmark_harness_builds(monkeypatch):
    # the harness imports its modules by bare name from perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from spans import Recorder

    plain = workloads.make_lib()
    traced = workloads.make_lib(Recorder())
    for lib in (plain, traced):
        assert set(vars(lib)) == set(workloads.SPANS)
        assert all(callable(fn) for fn in vars(lib).values())


# the exported names, pinned so a change to the public surface is deliberate
PUBLIC = (
    "AlphaOutOfRangeError", "Config", "DEFAULT_TAU", "DEFAULT_TAU_NORM",
    "DimensionMismatchError", "Distribution", "EmptyInputError", "FileFormatError",
    "FlattestMeta", "InvalidDeltaError", "LorenzCurve", "MajorizeError",
    "NegativeAlphaError", "NegativeEntryError", "NotMajorizedError",
    "NotNormalizedError", "SCHUR_CONCAVE", "SCHUR_CONVEX", "SchurFunction",
    "SmoothedResult", "SteepestMeta", "TTransform", "TransferPlan",
    "UnknownFunctionError", "ZeroDimensionError", "ZeroSumError",
    "brute_force_extremum", "check_delta", "default_functions", "extremal_point",
    "first_failing_prefix", "flattest", "l1_distance", "lorenz", "lorenz_flattest",
    "lorenz_steepest", "majorization_distance", "majorizes", "make_distribution",
    "parse_function_spec", "point_mass", "renyi_entropy", "sample_delta_ball",
    "sample_majorized_pair", "shannon", "smooth_max", "smooth_min", "steepest",
    "sum_of_powers", "transfer_plan", "uniform",
)


def test_public_names_are_pinned():
    assert sorted(mj.__all__) == sorted(PUBLIC)


def test_pickle_keeps_the_fields_and_drops_the_extremal_points():
    p = mj.make_distribution([0.1, 0.5, 0.25, 0.15])
    fresh = pickle.dumps(p)
    q = pickle.loads(fresh)
    assert q.values.tobytes() == p.values.tobytes()
    assert q.perm.tolist() == p.perm.tolist()
    mj.steepest(p, 0.3)
    mj.flattest(p, 0.3)
    assert len(pickle.dumps(p)) == len(fresh)
    # a copy starts without the points and builds its own
    assert mj.flattest(pickle.loads(pickle.dumps(p)), 0.3).result is not mj.flattest(p, 0.3).result
    # pickles and deep copies are rebuilt through the validators: same
    # bytes, new write-locked arrays
    sr = mj.flattest(p, 0.3)
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        c, curve, csr = clone(p), clone(mj.lorenz(p)), clone(sr)
        pairs = [(c.values, p.values), (c.perm, p.perm),
                 (curve.cumulative, mj.lorenz(p).cumulative),
                 (csr.result.values, sr.result.values), (csr.result.perm, sr.result.perm)]
        for got, want in pairs:
            assert got is not want and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
    cls, (values, perm) = p.__reduce__()
    with pytest.raises(ValueError):
        cls(values[::-1], perm)
    cls, (cumulative,) = mj.lorenz(p).__reduce__()
    with pytest.raises(ValueError):
        cls(cumulative[::-1])
