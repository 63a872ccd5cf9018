"""Per-call timings of the canonical sort, and a digest of what it builds.

Run from anywhere, with numpy installed:

    python3 tools/sort_probe.py [--rounds N] [--out FILE] [NAME=SRC ...]

Each NAME=SRC names the ``src`` directory of a checkout (default: this
checkout's, as ``this``). Every measurement runs in a new process per
checkout, so two checkouts never share an interpreter:

- per_call_canonical_order_us: in each round every checkout times
  distribution._canonical_order on default_rng(k).random(k) at each k in
  SIZES, as the min of 7 single calls after one warm-up call; the order
  of the checkouts alternates from round to round.
- packed_size_choice: in each checkout that has _PACKED_SIZE, the stable
  argsort and the packed-key regimes are forced in turn (by setting
  _PACKED_SIZE to k + 1 or to 0) and timed the same way at each k in
  CHOICE_SIZES, one process per round, alternating which regime runs
  first.
- bit_identity: sha256 of make_distribution's perm (as int64) and values
  bytes for every tie class of tests/tie_inputs.py plus all_colliding,
  under both policies, built as test_tie_order_matches_stable_argsort
  builds them, at k = _PACKED_SIZE +- 1, 2**18 +- 1 and 10**6 (the sizes
  come from this checkout). "combined_sha256" is the sha256 of the case
  digests' hex strings joined in (k, class, policy) loop order.

The results are printed as JSON, and with --out merged into FILE's
top-level object under those three keys and "probe_host".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
SIZES = (8, 128, 600, 1000, 10**5, 2**18, 10**6)
CHOICE_SIZES = (256, 512, 600, 700, 768, 800, 832, 864, 896, 928, 960, 1000, 1024, 1500, 2000)
POLICIES = ("reject", "renormalize")


def _best_us(fn, x: np.ndarray) -> float:
    """Min of 7 timed calls of fn(x) after one untimed call, in microseconds."""
    fn(x)
    best = []
    for _ in range(7):
        t = time.perf_counter_ns()
        fn(x)
        best.append(time.perf_counter_ns() - t)
    return min(best) / 1e3


def _child(task: str, src: str, arg: str) -> object:
    """One measurement in this process, on the majorize package under src.

    arg is a comma-separated list of sizes. The regime tasks,
    "argsort-first" and "packed-first", name the order the two regimes run
    in at each size; on a checkout without _PACKED_SIZE they time nothing.
    """
    sys.path.insert(0, src)
    from majorize import distribution

    sizes = [int(k) for k in arg.split(",")]
    if task == "timings":
        return {k: _best_us(distribution._canonical_order, np.random.default_rng(k).random(k))
                for k in sizes}
    if task in ("argsort-first", "packed-first"):
        if not hasattr(distribution, "_PACKED_SIZE"):
            return {}
        regimes = ("argsort", "packed") if task == "argsort-first" else ("packed", "argsort")
        out = {}
        for k in sizes:
            x = np.random.default_rng(k).random(k)
            out[k] = {}
            for regime in regimes:
                distribution._PACKED_SIZE = k + 1 if regime == "argsort" else 0
                out[k][regime] = _best_us(distribution._canonical_order, x)
        return out
    if task == "digest":
        sys.path.insert(0, str(REPO / "tests"))
        from tie_inputs import TIE_CLASSES, tie_class_input
        import majorize as mj

        digests = []
        for k in sizes:
            for case in (*TIE_CLASSES, "all_colliding"):
                for policy in POLICIES:
                    x = tie_class_input(case, k, np.random.default_rng(k))
                    raw = x / x.sum() if policy == "reject" else 3.0 * x
                    d = mj.make_distribution(raw, policy)
                    h = hashlib.sha256(d.perm.astype(np.int64).tobytes())
                    h.update(d.values.tobytes())
                    digests.append(h.hexdigest())
        return {
            "cases": len(digests),
            "combined_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        }
    raise ValueError(f"unknown task: {task}")


def _run(task: str, src: str, arg: str) -> object:
    out = subprocess.run(
        [sys.executable, __file__, "--child", task, src, arg],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def _summary(runs: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3),
            "runs": [round(r, 3) for r in runs]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", metavar="NAME=SRC")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    srcs = dict(c.split("=", 1) for c in args.checkouts) or {"this": str(REPO / "src")}

    sys.path.insert(0, str(REPO / "src"))
    from majorize.distribution import _PACKED_SIZE, _SPLIT_SIZE

    sizes = ",".join(map(str, SIZES))
    timings = {name: {k: [] for k in SIZES} for name in srcs}
    for r in range(args.rounds):
        names = list(srcs) if r % 2 == 0 else list(srcs)[::-1]
        for name in names:
            for k, us in _run("timings", srcs[name], sizes).items():
                timings[name][int(k)].append(us)

    choice = {}
    choice_sizes = ",".join(map(str, CHOICE_SIZES))
    for name, src in srcs.items():
        rounds = [_run("argsort-first" if r % 2 == 0 else "packed-first", src, choice_sizes)
                  for r in range(args.rounds)]
        if not rounds[0]:
            continue  # a checkout without _PACKED_SIZE has one regime
        per_k = {k: {regime: [got[str(k)][regime] for got in rounds]
                     for regime in ("argsort", "packed")}
                 for k in CHOICE_SIZES}
        choice[name] = {
            "us_by_round": per_k,
            "sizes_where_packed_won_every_round": [
                k for k, t in per_k.items() if all(map(float.__lt__, t["packed"], t["argsort"]))
            ],
        }

    digest_sizes = ",".join(map(str, (
        _PACKED_SIZE - 1, _PACKED_SIZE + 1, _SPLIT_SIZE - 1, _SPLIT_SIZE + 1, 10**6,
    )))
    result = {
        "probe_host": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "per_call_canonical_order_us": {
            "rounds": args.rounds,
            "by_checkout": {name: {k: _summary(v) for k, v in per_k.items()}
                            for name, per_k in timings.items()},
        },
        "packed_size_choice": {"packed_size": _PACKED_SIZE, "by_checkout": choice},
        "bit_identity": {
            "sizes": digest_sizes,
            "by_checkout": {name: _run("digest", src, digest_sizes) for name, src in srcs.items()},
        },
    }
    if args.out:
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        merged.update(result)
        args.out.write_text(json.dumps(merged, indent=1) + "\n")
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--child":
        print(json.dumps(_child(*sys.argv[2:])))
    else:
        main()
