"""Accuracy ledger: how far the extremal points and closed-form extrema round.

Run from anywhere, with numpy installed:

    python3 tools/accuracy.py [--draws N] [--seed S] [--out FILE] [NAME=SRC ...]

Each NAME=SRC names the ``src`` directory of a checkout (default: this
checkout's, as ``this``). The sweep runs in a new process per checkout,
on the same inputs: draw i takes the accuracy class ACCURACY_CLASSES[i % 5]
of tests/tie_inputs.py (random, one-decimal ties, zero tails, 1e-300
entries, near point masses) at k uniform in 2..8, renormalized by
make_distribution, and a budget log-uniform on [2**-60, 2] (70 %) or
uniform on [0, 2], all from default_rng(seed). Per checkout it records:

- oracle_leads: every default function in both modes, where
  brute_force_extremum(f, p, delta, n=5, seed=i, mode) beats smooth_max
  or smooth_min, counted by lead in ulps (1, 2-3, 4-100, above 100; the
  distance between the two floats' bit patterns), by function and mode,
  and by the kind of extremal point the closed form evaluates. The oracle
  draws both extremal points among its candidates, so any lead is float
  rounding of a row's mass or score, or of the point itself.
- mass: the exact (fractions.Fraction) mass of steepest(p, delta) and
  flattest(p, delta) less 1, in units of k*eps (eps = 2**-52), clamped
  and unclamped results apart.
- budget: for unclamped results, the exact l1 move from p less delta, in
  units of k*eps; for clamped ones, how many move more than delta by over
  4*k*eps.
- clamp_edges: steepest and flattest on the same p at the clamp edges,
  each +-2 ulps: the float l1 distances to the point mass and to uniform,
  and twice the suffix sum past the first entry (steepest's clamp test).
  In units of k*eps: for clamped results, the exact move less delta
  (beyond_4 counts those that pass delta by over 4*k*eps); for unclamped
  ones, the exact mass off p's and the exact move off delta. These calls
  come after the others, so the sections above are as they would be
  without it.

The results are printed as JSON, and with --out merged into FILE's
top-level object under "ledger_host", "sweep" and "by_checkout" (whose
entries for other checkouts are kept).
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
EPS = Fraction(1, 2**52)
LEAD_BUCKETS = ((1, "1"), (3, "2-3"), (100, "4-100"), (float("inf"), ">100"))
KEPS_BUCKETS = ((1, "<=1"), (4, "1-4"), (100, "4-100"), (float("inf"), ">100"))


def _ordinal(x: float) -> int:
    """x's place in the ordered floats: adjacent floats differ by 1, both zeros are 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _bucket(value: float, buckets) -> str:
    return next(name for top, name in buckets if value <= top)


def _draws(seed: int, draws: int):
    """The sweep's (index, class, raw input, delta), the same for every checkout."""
    sys.path.insert(0, str(REPO / "tests"))
    from tie_inputs import ACCURACY_CLASSES, accuracy_class_input

    rng = np.random.default_rng(seed)
    for i in range(draws):
        case = ACCURACY_CLASSES[i % len(ACCURACY_CLASSES)]
        raw = accuracy_class_input(case, int(rng.integers(2, 9)), rng)
        if rng.random() < 0.7:
            delta = float(2.0 ** rng.uniform(-60.0, 1.0))
        else:
            delta = float(rng.uniform(0.0, 2.0))
        yield i, case, raw, delta


def _edge_budgets(values: np.ndarray) -> list[float]:
    """The clamp edges of a canonical vector, each +-2 ulps, within [0, 2]."""
    gap = values.copy()
    gap[0] = 1.0 - gap[0]
    edges = (float(gap.sum()), float(np.abs(values - 1.0 / values.size).sum()),
             2.0 * float(np.cumsum(values[::-1])[-2]))
    budgets = []
    for edge in edges:
        for _ in range(2):
            edge = float(np.nextafter(edge, -1.0))
        for _ in range(5):
            budgets.append(edge)
            edge = float(np.nextafter(edge, 3.0))
    return [d for d in budgets if 0.0 <= d <= 2.0]


class _Spread:
    """Counts by bucket, count beyond 4, and the largest value, in units of k*eps."""

    def __init__(self) -> None:
        self.n, self.beyond_4, self.worst = 0, 0, 0.0
        self.buckets = collections.Counter()

    def add(self, value: float) -> None:
        self.n += 1
        self.beyond_4 += value > 4
        self.worst = max(self.worst, value)
        self.buckets[_bucket(value, KEPS_BUCKETS)] += 1

    def record(self) -> dict:
        return {"n": self.n, "beyond_4": self.beyond_4, "worst": self.worst,
                "buckets": dict(sorted(self.buckets.items()))}


def _child(src: str, seed: int, draws: int) -> dict:
    """The ledger of the majorize package under src."""
    sys.path.insert(0, src)
    import majorize as mj

    fns = mj.default_functions()
    leads = collections.Counter()
    by_fn = collections.defaultdict(collections.Counter)
    by_kind = collections.defaultdict(collections.Counter)
    worst = {"ulps": 0}
    cases = 0
    mass = {kind: {"clamped": _Spread(), "unclamped": _Spread()} for kind in ("steepest", "flattest")}
    move = {kind: _Spread() for kind in ("steepest", "flattest")}
    clamped_over = collections.Counter()
    edge_keys = ("clamped_move_minus_delta", "unclamped_mass_minus_p", "unclamped_move_minus_delta")
    edges = {kind: {key: _Spread() for key in edge_keys} for kind in ("steepest", "flattest")}
    for i, case, raw, delta in _draws(seed, draws):
        p = mj.make_distribution(raw, "renormalize")
        base = [Fraction(x) for x in p.values.tolist()]
        keps = p.k * EPS
        for kind in ("steepest", "flattest"):
            sr = getattr(mj, kind)(p, delta)
            got = [Fraction(x) for x in sr.result.values.tolist()]
            state = "clamped" if sr.clamped else "unclamped"
            mass[kind][state].add(float(abs(sum(got) - 1) / keps))
            moved = sum(abs(a - b) for a, b in zip(got, base)) - Fraction(delta)
            if sr.clamped:
                clamped_over[kind] += moved > 4 * keps
            else:
                move[kind].add(float(abs(moved) / keps))
        for f in fns:
            for mode in ("max", "min"):
                cases += 1
                closed = (mj.smooth_max if mode == "max" else mj.smooth_min)(f, p, delta)
                oracle = mj.brute_force_extremum(f, p, delta, n=5, seed=i, mode=mode)
                if (oracle > closed) if mode == "max" else (oracle < closed):
                    ulps = abs(_ordinal(oracle) - _ordinal(closed))
                    convex = f.direction == mj.SCHUR_CONVEX
                    kind = "steepest" if (mode == "max") == convex else "flattest"
                    bucket = _bucket(ulps, LEAD_BUCKETS)
                    leads[bucket] += 1
                    by_fn[f"{f.name} {mode}"][bucket] += 1
                    by_kind[kind][bucket] += 1
                    if ulps > worst["ulps"]:
                        worst = {"ulps": ulps, "function": f.name, "mode": mode, "kind": kind,
                                 "class": case, "k": p.k, "p1": float(p.values[0]),
                                 "delta": delta.hex(), "draw": i}
        for edge in _edge_budgets(p.values):
            for kind in ("steepest", "flattest"):
                sr = getattr(mj, kind)(p, edge)
                got = [Fraction(x) for x in sr.result.values.tolist()]
                moved = (sum(abs(a - b) for a, b in zip(got, base)) - Fraction(edge)) / keps
                if sr.clamped:
                    edges[kind]["clamped_move_minus_delta"].add(float(moved))
                else:
                    edges[kind]["unclamped_mass_minus_p"].add(float(abs(sum(got) - sum(base)) / keps))
                    edges[kind]["unclamped_move_minus_delta"].add(float(abs(moved)))
    return {
        "oracle_leads": {
            "cases": cases,
            "leads": sum(leads.values()),
            "by_ulps": {name: leads[name] for _, name in LEAD_BUCKETS},
            "by_kind": {kind: {name: c[name] for _, name in LEAD_BUCKETS}
                        for kind, c in sorted(by_kind.items())},
            "above_3_ulps_by_kind": {kind: c["4-100"] + c[">100"] for kind, c in sorted(by_kind.items())},
            "by_function_and_mode": {key: dict(sorted(c.items())) for key, c in sorted(by_fn.items())},
            "worst": worst,
        },
        "mass_minus_one_keps": {kind: {state: s.record() for state, s in per.items()}
                                for kind, per in mass.items()},
        "budget": {
            kind: {"unclamped_move_minus_delta_keps": move[kind].record(),
                   "clamped_moving_past_delta_by_4_keps": clamped_over[kind]}
            for kind in move
        },
        "clamp_edges": {kind: {f"{key}_keps": s.record() for key, s in per.items()}
                        for kind, per in edges.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", metavar="NAME=SRC")
    parser.add_argument("--draws", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    srcs = dict(c.split("=", 1) for c in args.checkouts) or {"this": str(REPO / "src")}

    by_checkout = {}
    for name, src in srcs.items():
        out = subprocess.run(
            [sys.executable, __file__, "--child", src, str(args.seed), str(args.draws)],
            check=True, capture_output=True, text=True,
        ).stdout
        by_checkout[name] = json.loads(out)
    result = {
        "ledger_host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__},
        "sweep": {"seed": args.seed, "draws": args.draws, "k": [2, 8],
                  "delta": "2**uniform(-60, 1) with probability 0.7, else uniform(0, 2)",
                  "oracle": "brute_force_extremum(f, p, delta, n=5, seed=draw, mode)",
                  "clamp_edges": "float l1 distance to the point mass and to uniform, and "
                                 "2*suffix[k-2], each +-2 ulps"},
        "by_checkout": by_checkout,
    }
    if args.out:
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        by_checkout = {**merged.get("by_checkout", {}), **by_checkout}
        merged.update(result, by_checkout=by_checkout)
        args.out.write_text(json.dumps(merged, indent=1) + "\n")
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--child":
        print(json.dumps(_child(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))))
    else:
        main()
