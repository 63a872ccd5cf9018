"""Smoke test of the accuracy ledger in tools/, run on this checkout."""

import json
import subprocess
import sys
from pathlib import Path

import majorize as mj

REPO = Path(__file__).resolve().parents[1]


def test_accuracy_ledger_runs_on_this_checkout():
    # a short sweep, so a renamed name the ledger reads fails here
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "accuracy.py"), "--draws", "30"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    out = json.loads(proc.stdout)
    assert set(out) == {"ledger_host", "sweep", "by_checkout"}
    assert list(out["by_checkout"]) == ["this"]
    ledger = out["by_checkout"]["this"]
    assert set(ledger) == {"oracle_leads", "mass_minus_one_keps", "budget", "clamp_edges"}
    assert ledger["oracle_leads"]["cases"] == 30 * 2 * len(mj.default_functions())
    for kind in ("steepest", "flattest"):
        edges = ledger["clamp_edges"][kind]
        assert set(edges) == {
            "clamped_move_minus_delta_keps", "unclamped_mass_minus_p_keps",
            "unclamped_move_minus_delta_keps",
        }
        # the edges reach both sides of the clamp, and every result stays within 4 k eps
        assert edges["clamped_move_minus_delta_keps"]["n"] > 0
        assert edges["unclamped_move_minus_delta_keps"]["n"] > 0
        assert all(spread["beyond_4"] == 0 for spread in edges.values())
