"""The four benchmark workloads: their inputs, one op each, and output checks.

Each workload is a closed loop driven by one single-threaded client that
waits for every result before sending the next request, as a caller of a
library or a CLI does. Inputs come from the seed alone. `op` only calls
the package (through `lib`, so the traced run can put spans around each
call); `check` runs after the timer stops and verifies the results with
the benchmark's own numpy prefix sums, at the library's documented
tolerances.
"""

from __future__ import annotations

import compileall
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

import numpy as np

import majorize as mj
import majorize.cli
import majorize.io

# the library's order tolerance (Config.tau): predicates, plans and the oracle
TAU = 1e-9

# Each workload's TAIL_PCT is the highest of p50/p90/p95/p99 that leaves at
# least 10 samples beyond it at the workload's usual op count in a 30 s run.
# It is fixed, so runs and commits always compare the same percentile.

# public function -> span recorded around the benchmark's calls into it
SPANS = {
    "make_distribution": "distribution.make_distribution",
    "sample_majorized_pair": "distribution.sample_majorized_pair",
    "steepest": "smoothing.steepest",
    "flattest": "smoothing.flattest",
    "lorenz_steepest": "smoothing.lorenz_steepest",
    "lorenz_flattest": "smoothing.lorenz_flattest",
    "majorizes": "order.majorizes",
    "majorization_distance": "order.majorization_distance",
    "transfer_plan": "order.transfer_plan",
    "evaluate": "schur.evaluate",
    "smooth_max": "schur.smooth",
    "smooth_min": "schur.smooth",
    "extremal_point": "schur.smooth",
    "brute_force_extremum": "schur.brute_force_extremum",
    "read_distribution": "io.read_distribution",
    "format_float": "io.format",
    "lorenz_to_csv": "io.format",
    "lorenz_table_to_csv": "io.format",
    "smoothed_result_to_json": "io.format",
    "write_json": "io.format",
    "write_text": "io.format",
}
CLI_SPANS = ("cli.interpreter", "cli.import", "cli.main")
SPAN_NAMES = tuple(dict.fromkeys(SPANS.values())) + CLI_SPANS


def make_lib(recorder=None) -> SimpleNamespace:
    """The package's public functions, each wrapped in its span when tracing.

    The traced versions also keep the layer counts at the same boundary.
    """
    fns = {
        name: getattr(mj, name, None) or getattr(majorize.io, name)
        for name in SPANS
        if name != "evaluate"
    }
    fns["evaluate"] = mj.SchurFunction.__call__
    if recorder is None:
        return SimpleNamespace(**fns)
    counts = recorder.counts

    def count_clamped(fn):
        def counted(*args, **kwargs):
            sr = fn(*args, **kwargs)
            counts["smoothing.constructions"] += 1
            counts["smoothing.clamped"] += sr.clamped
            return sr

        return counted

    def count_steps(fn):
        def counted(p, q, **kwargs):
            plan = fn(p, q, **kwargs)
            counts["order.transfer_plan.steps"] += len(plan.steps)
            counts["order.transfer_plan.k1"] += p.k - 1
            return plan

        return counted

    def count_samples(fn):
        def counted(f, p, delta, n, *args, **kwargs):
            counts["schur.brute_force_extremum.samples"] += n
            return fn(f, p, delta, n, *args, **kwargs)

        return counted

    traced = {name: recorder.wrap(SPANS[name], fn) for name, fn in fns.items()}
    for name in ("steepest", "flattest"):
        traced[name] = count_clamped(traced[name])
    traced["transfer_plan"] = count_steps(traced["transfer_plan"])
    traced["brute_force_extremum"] = count_samples(traced["brute_force_extremum"])
    return SimpleNamespace(**traced)


# --- output checks, shared by delta_sweep and large_k -----------------------


def _dominates(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(np.cumsum(a) >= np.cumsum(b) - TAU))


def _check_extremes(p: np.ndarray, delta: float, s, f) -> list[str]:
    bad = []
    for kind, sr in (("steepest", s), ("flattest", f)):
        moved = float(np.abs(sr.result.values - p).sum())
        if moved > delta + TAU:
            bad.append(f"{kind} moved {moved!r}, budget {delta!r}")
    if not _dominates(s.result.values, p):
        bad.append(f"steepest does not majorize p (delta {delta!r})")
    if not _dominates(p, f.result.values):
        bad.append(f"p does not majorize flattest (delta {delta!r})")
    return bad


def _check_lorenz(curve, sr, kind: str) -> list[str]:
    err = float(np.abs(curve.cumulative[1:] - np.cumsum(sr.result.values)).max())
    return [] if err <= TAU else [f"lorenz_{kind} off its point by {err!r}"]


def _check_smooth(g, smax, smin, at_steepest, at_flattest) -> list[str]:
    convex = g.direction == mj.SCHUR_CONVEX
    want_max, want_min = (at_steepest, at_flattest) if convex else (at_flattest, at_steepest)
    bad = []
    if smax != want_max:
        bad.append(f"smooth_max {g.name} = {smax!r}, f at its point = {want_max!r}")
    if smin != want_min:
        bad.append(f"smooth_min {g.name} = {smin!r}, f at its point = {want_min!r}")
    return bad


def _check_pair(p: np.ndarray, q: np.ndarray, dist, pq, qp=None) -> list[str]:
    bad = []
    if pq != _dominates(p, q) or (qp is not None and qp != _dominates(q, p)):
        bad.append(f"majorizes gave {pq}/{qp} against own prefix sums")
    gap = float(np.max(np.cumsum(q) - np.cumsum(p)))
    if abs(dist - max(0.0, 2.0 * gap)) > TAU:
        bad.append(f"majorization_distance {dist!r}, prefix sums give {2.0 * gap!r}")
    return bad


# --- workloads ---------------------------------------------------------------


class DeltaSweep:
    """Small k: per-call overhead and internal re-validation dominate."""

    name = "delta_sweep"
    TAIL_PCT = 99  # about 5000 ops
    POINTS = 8
    WARMUP_OPS = 8

    def setup(self, seed: int, work: Path) -> SimpleNamespace:
        rng = np.random.default_rng(seed)
        pairs = []
        # every k in [2, 64] once per pass and a jittered log-spaced budget
        # grid, so seeds change values but not the mix of sizes and budgets
        grid = np.geomspace(1e-3, 1.5, self.POINTS)
        for k in rng.permutation(np.arange(2, 65)):
            p = mj.make_distribution(rng.dirichlet(np.ones(k)))
            q = mj.make_distribution(rng.dirichlet(np.ones(k)))
            deltas = grid * rng.uniform(0.8, 1.25, self.POINTS)
            pairs.append((p, q, [float(d) for d in deltas]))
        state = SimpleNamespace(pairs=pairs, fns=mj.default_functions())
        lib = make_lib()
        for i in range(self.WARMUP_OPS):
            self.op(lib, self.input(state, i))
        return state

    def input(self, state, i: int) -> SimpleNamespace:
        p, q, deltas = state.pairs[i % len(state.pairs)]
        return SimpleNamespace(p=p, q=q, deltas=deltas, fns=state.fns, turn=i)

    def op(self, lib, inp):
        p, fns = inp.p, inp.fns
        profile = []
        for j, d in enumerate(inp.deltas):
            s = lib.steepest(p, d)
            f = lib.flattest(p, d)
            at_s = [lib.evaluate(g, s.result) for g in fns]
            at_f = [lib.evaluate(g, f.result) for g in fns]
            g = fns[(inp.turn + j) % len(fns)]
            profile.append((
                s, f, at_s, at_f,
                lib.smooth_max(g, p, d), lib.smooth_min(g, p, d),
                lib.lorenz_steepest(p, d), lib.lorenz_flattest(p, d),
            ))
        q = inp.q
        return profile, lib.majorizes(p, q), lib.majorizes(q, p), lib.majorization_distance(p, q)

    def check(self, state, inp, out) -> list[str]:
        profile, pq, qp, dist = out
        p, fns = inp.p.values, inp.fns
        bad = _check_pair(p, inp.q.values, dist, pq, qp)
        for j, (d, (s, f, at_s, at_f, smax, smin, ls, lf)) in enumerate(zip(inp.deltas, profile)):
            gi = (inp.turn + j) % len(fns)
            bad += _check_extremes(p, d, s, f)
            bad += _check_smooth(fns[gi], smax, smin, at_s[gi], at_f[gi])
            bad += _check_lorenz(ls, s, "steepest") + _check_lorenz(lf, f, "flattest")
        return bad


class LargeK:
    """k = 10**6: the same smoothing code as whole-array numpy passes."""

    name = "large_k"
    TAIL_PCT = 50  # about 30 ops
    K = 1_000_000
    note = (
        f"large_k: one float64 vector of k={K} is {K * 8 / 2**20:.1f} MiB (computed); "
        "a working set of a few such vectors fits a large L3, so passes are "
        "cache-resident, not DRAM-bound"
    )

    def setup(self, seed: int, work: Path) -> SimpleNamespace:
        state = SimpleNamespace(rng=np.random.default_rng(seed), fns=mj.default_functions())
        warm = self.input(state, 0)
        lib = make_lib()
        lib.steepest(lib.make_distribution(warm.a), warm.delta)
        return state

    def input(self, state, i: int) -> SimpleNamespace:
        a, b = state.rng.standard_exponential((2, self.K))
        return SimpleNamespace(
            a=a / a.sum(),
            b=b / b.sum(),
            delta=float(state.rng.uniform(0.05, 0.6)),
            g=state.fns[i % len(state.fns)],
        )

    def op(self, lib, inp):
        p = lib.make_distribution(inp.a)
        q = lib.make_distribution(inp.b)
        d, g = inp.delta, inp.g
        return (
            p, q, lib.steepest(p, d), lib.flattest(p, d),
            lib.lorenz_steepest(p, d), lib.lorenz_flattest(p, d),
            lib.majorizes(p, q), lib.majorization_distance(p, q),
            lib.smooth_max(g, p, d), lib.smooth_min(g, p, d),
        )

    def check(self, state, inp, out) -> list[str]:
        p, q, s, f, ls, lf, pq, dist, smax, smin = out
        bad = []
        for name, raw, made in (("p", inp.a, p), ("q", inp.b, q)):
            v = made.values
            if not (np.all(v[:-1] >= v[1:]) and np.array_equal(raw[made.perm] / raw.sum(), v)):
                bad.append(f"make_distribution({name}) is not the sorted, normalized input")
        pv, d, g = p.values, inp.delta, inp.g
        bad += _check_extremes(pv, d, s, f)
        bad += _check_lorenz(ls, s, "steepest") + _check_lorenz(lf, f, "flattest")
        bad += _check_pair(pv, q.values, dist, pq)
        bad += _check_smooth(g, smax, smin, g(s.result), g(f.result))
        return bad


class Certify:
    """Certificates: sampled ordered pairs, transfer plans, the sampling oracle."""

    name = "certify"
    TAIL_PCT = 95  # about 900 ops
    SAMPLES = 500

    def setup(self, seed: int, work: Path) -> SimpleNamespace:
        rng = np.random.default_rng(seed)
        # every k in [8, 128] once per pass; k stays capped while the plan is O(k^4)
        ks = rng.permutation(np.arange(8, 129))
        state = SimpleNamespace(
            ks=ks,
            deltas=rng.uniform(0.01, 1.0, ks.size),
            seeds=rng.integers(0, 2**62, ks.size),
            fns=mj.default_functions(),
        )
        self.op(make_lib(), self.input(state, 0))
        return state

    def input(self, state, i: int) -> SimpleNamespace:
        j = i % state.ks.size
        return SimpleNamespace(
            k=int(state.ks[j]),
            delta=float(state.deltas[j]),
            seed=int(state.seeds[j]),
            g=state.fns[i % len(state.fns)],
            mode=("max", "min")[(i // len(state.fns)) % 2],
        )

    def op(self, lib, inp):
        p, q = lib.sample_majorized_pair(inp.k, inp.seed)
        plan = lib.transfer_plan(p, q)
        oracle = lib.brute_force_extremum(inp.g, p, inp.delta, self.SAMPLES, inp.seed, inp.mode)
        return p, q, plan, oracle

    def check(self, state, inp, out) -> list[str]:
        p, q, plan, oracle = out
        k, m = inp.k, plan.matrix
        bad = []
        if not _dominates(p.values, q.values):
            bad.append(f"sample_majorized_pair(k={k}): p does not majorize q")
        if len(plan.steps) > k - 1:
            bad.append(f"plan has {len(plan.steps)} steps for k={k}")
        if (
            float(m.min()) < -TAU
            or float(np.abs(m.sum(axis=0) - 1.0).max()) > TAU
            or float(np.abs(m.sum(axis=1) - 1.0).max()) > TAU
        ):
            bad.append(f"plan matrix is not doubly stochastic (k={k})")
        miss = float(np.abs(m @ p.values - q.values).max())
        if miss > TAU:
            bad.append(f"plan misses q by {miss!r} (k={k})")
        smooth = mj.smooth_max if inp.mode == "max" else mj.smooth_min
        closed = smooth(inp.g, p, inp.delta)
        if abs(oracle - closed) > TAU:
            bad.append(f"oracle {oracle!r} != closed form {closed!r} ({inp.g.name}, {inp.mode})")
        return bad


class Cli:
    """One `python -m majorize` process per request, one child at a time."""

    name = "cli"
    TAIL_PCT = 90  # about 120 ops
    K = 1000
    CYCLES = 2
    FUNCTIONS = ("shannon", "renyi:2", "renyi:inf", "sum_powers:2", "renyi:0.5")
    rss_of_children = True
    IMPORT_PROBE = (
        "import time; t = time.perf_counter_ns(); import majorize.cli; "
        "print(time.perf_counter_ns() - t)"
    )

    def setup(self, seed: int, work: Path) -> SimpleNamespace:
        rng = np.random.default_rng(seed)
        src = Path(mj.__file__).resolve().parent
        compileall.compile_dir(str(src), quiet=1)
        work.mkdir(exist_ok=True)
        p = rng.dirichlet(np.ones(self.K))
        # a mixture of p and a permutation of p: a doubly-stochastic image
        lam = rng.uniform(0.3, 0.9)
        q = lam * p + (1.0 - lam) * p[rng.permutation(self.K)]
        files = {}
        for name, values in (("p", p), ("q", q)):
            files[name, "json"] = work / f"{name}.json"
            files[name, "json"].write_text('{"values": ' + repr(values.tolist()) + "}\n")
            files[name, "csv"] = work / f"{name}.csv"
            files[name, "csv"].write_text("\n".join(map(repr, values.tolist())) + "\n")
        argvs = []
        for c in range(self.CYCLES):
            pf = str(files["p", ("json", "csv")[c % 2]])
            qf = str(files["q", ("csv", "json")[c % 2]])
            delta = repr(float(rng.uniform(0.05, 0.8)))
            argvs += [
                ["check", pf, qf],
                ["approx", qf, "--delta", delta, "--kind", ("steepest", "flattest")[c % 2],
                 "--out", str(work / "approx.json")],
                ["distance", qf, pf],
                ["smooth", pf, "--function", str(rng.choice(self.FUNCTIONS)),
                 "--mode", str(rng.choice(["max", "min"])), "--delta", delta],
                ["lorenz", qf, "--delta", delta],
            ]
        # absolute, so children import this checkout's package from any cwd
        env = dict(os.environ, PYTHONPATH=str(src.parent))
        cmds = []
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = majorize.cli.main(argv)
            cmds.append(SimpleNamespace(argv=argv, rc=rc, stdout=buf.getvalue().encode()))
        state = SimpleNamespace(cmds=cmds, env=env, cwd=work)
        self.op(None, self.input(state, 0))
        return state

    def input(self, state, i: int) -> SimpleNamespace:
        cmd = state.cmds[i % len(state.cmds)]
        return SimpleNamespace(cmd=cmd, env=state.env, cwd=state.cwd)

    def _child(self, inp, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=inp.cwd, env=inp.env, capture_output=True, timeout=120
        )

    def op(self, lib, inp):
        return self._child(inp, "-m", "majorize", *inp.cmd.argv)

    def check(self, state, inp, out) -> list[str]:
        bad = []
        if out.returncode != 0 or out.returncode != inp.cmd.rc:
            bad.append(
                f"{inp.cmd.argv[0]} exited {out.returncode} (in-process {inp.cmd.rc}): "
                f"{out.stderr.decode(errors='replace').strip()[-300:]}"
            )
        if out.stdout != inp.cmd.stdout:
            bad.append(f"{inp.cmd.argv[0]} stdout differs from in-process cli.main")
        return bad

    def explain(self, state, inp, recorder, lib) -> None:
        """Split one request into interpreter start, import and cli.main."""
        start = perf_counter_ns()
        self._child(inp, "-c", "pass").check_returncode()
        recorder.add("cli.interpreter", start, perf_counter_ns())
        probe = self._child(inp, "-c", self.IMPORT_PROBE)
        probe.check_returncode()
        end = perf_counter_ns()
        recorder.add("cli.import", end - int(probe.stdout), end)
        cli = majorize.cli
        layer_calls = {name: getattr(lib, name) for name in SPANS if name in vars(cli)}
        saved = {name: getattr(cli, name) for name in layer_calls}
        try:
            for name, fn in layer_calls.items():
                setattr(cli, name, fn)
            with contextlib.redirect_stdout(io.StringIO()):
                recorder.wrap("cli.main", cli.main)(inp.cmd.argv)
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)


WORKLOADS = {wl.name: wl for wl in (DeltaSweep(), LargeK(), Certify(), Cli())}
