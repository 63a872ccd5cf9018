"""The public surface: what `majorize` exports and what the benchmark harness wraps."""

from pathlib import Path

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
