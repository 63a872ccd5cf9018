"""The public surface: what `majorize` exports and what the benchmark harness wraps."""

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import majorize as mj

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src"

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


def test_cli_import_leaves_numpy_random_unloaded():
    # only the samplers and the oracle draw; numpy 1.x imports numpy.random
    # itself, so the check is against numpy's own state
    code = (
        "import sys, numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "import majorize.cli\n"
        "print(before, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    before, after = proc.stdout.split()
    assert after == before


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


# parameters and defaults of every public function and class constructor
# (exceptions keep Exception's), pinned so a new knob is deliberate
SIGNATURES = {
    "Config": "(tau=1e-09, tau_norm=1e-07, base=2.0, input_policy='reject')",
    "Distribution": "(values, perm)",
    "FlattestMeta": "(upper_level, lower_level, upper_count, lower_start)",
    "LorenzCurve": "(cumulative)",
    "SchurFunction": "(name, direction, fn)",
    "SmoothedResult": "(result, kind, delta, meta=None)",
    "SteepestMeta": "(head_count, tail_value)",
    "TTransform": "(i, j, t)",
    "TransferPlan": "(steps, k)",
    "brute_force_extremum": "(f, p, delta, n, seed, mode)",
    "check_delta": "(delta)",
    "default_functions": "(base=2.0)",
    "extremal_point": "(f, p, delta, mode)",
    "first_failing_prefix": "(p, q, *, tau=1e-09)",
    "flattest": "(p, delta)",
    "l1_distance": "(p, q)",
    "lorenz": "(p)",
    "lorenz_flattest": "(p, delta)",
    "lorenz_steepest": "(p, delta)",
    "majorization_distance": "(p, q)",
    "majorizes": "(p, q, *, tau=1e-09)",
    "make_distribution": "(raw, policy='reject', *, tau_norm=1e-07)",
    "parse_function_spec": "(spec, base=2.0)",
    "point_mass": "(k)",
    "renyi_entropy": "(alpha, base=2.0)",
    "sample_delta_ball": "(p, delta, seed)",
    "sample_majorized_pair": "(k, seed)",
    "shannon": "(base=2.0)",
    "smooth_max": "(f, p, delta)",
    "smooth_min": "(f, p, delta)",
    "steepest": "(p, delta)",
    "sum_of_powers": "(alpha)",
    "transfer_plan": "(p, q, *, tau=1e-09)",
    "uniform": "(k)",
}


def _bare_signature(obj) -> str:
    sig = inspect.signature(obj)
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty))


def test_public_signatures_are_pinned():
    callables = {
        name for name in mj.__all__
        if callable(obj := getattr(mj, name))
        and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert callables == set(SIGNATURES)
    got = {name: _bare_signature(getattr(mj, name)) for name in callables}
    assert got == SIGNATURES


# public methods and properties of every exported class (their fields are
# pinned by SIGNATURES), so adding or removing one is deliberate
MEMBERS = {
    "Config": (),
    "Distribution": ("k", "to_original_order"),
    "FlattestMeta": (),
    "LorenzCurve": ("k", "points"),
    "SchurFunction": (),
    "SmoothedResult": ("clamped",),
    "SteepestMeta": (),
    "TTransform": (),
    "TransferPlan": ("apply", "matrix"),
}


def test_public_class_members_are_pinned():
    got = {}
    for name in mj.__all__:
        cls = getattr(mj, name)
        if isinstance(cls, type) and not issubclass(cls, Exception):
            fields = {f.name for f in dataclasses.fields(cls)}
            got[name] = tuple(sorted(m for m in vars(cls) if m[0] != "_" and m not in fields))
    assert got == MEMBERS


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
