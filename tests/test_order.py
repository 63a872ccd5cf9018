import builtins
import copy
import gc
import hashlib
import json
import math
import pickle
import weakref

import numpy as np
import pytest

import majorize as mj
from majorize import cli, order
from majorize.io import transfer_plan_to_json
from majorize.errors import DimensionMismatchError, NotMajorizedError

from conftest import random_distribution


P = [0.6, 0.3, 0.1]
Q = [0.4, 0.3, 0.3]

# Plans for sample_majorized_pair(k, seed), recorded from the first
# (matrix-product) sweep, which the in-place sweep and the on-demand matrix
# rebuild bit for bit: (k, seed, step count, digest of the steps written as
# "i,j,t.hex()" joined by ";", digest of the matrix bytes). Digests are the
# first 16 hex digits of sha256.
FROZEN_PLANS = [
    (1, 0, 0, "e3b0c44298fc1c14", "6c3c396ed6b5c36d"),
    (2, 1, 1, "6b5e3991a41057ea", "d224aec1b480ad61"),
    (3, 2, 2, "02ac89348903d7ab", "e86c614c02b4688b"),
    (4, 3, 3, "f354b325f0daf18a", "6d00de58e3cda74a"),
    (5, 4, 4, "b3ffa7aef5a26c5b", "0617537bab204829"),
    (8, 5, 7, "6fc4653aa7a65ed2", "aeaeeb5209ada3bc"),
    (13, 6, 12, "81c6e86fe2f98941", "f60b175777d8537d"),
    (16, 7, 15, "a7d743b3642b7c2a", "f08fd05c0cb04644"),
    (21, 8, 20, "4bd42f0c97a403c7", "35d0062b0a7c20e1"),
    (32, 9, 31, "8d336aeca98b642b", "e844c332f3026c0f"),
    (33, 10, 32, "e2537a7552a56010", "38321a54c3ca0607"),
    (47, 11, 46, "0517c6011821a9d0", "eee00aeb99e78542"),
    (64, 12, 63, "d48c91af7c7b873b", "86bfe5e9aefcbd94"),
    (65, 13, 64, "0a9e70c4cffc9db5", "f2b30b433b3823c3"),
    (90, 14, 89, "b91c79de277fef78", "986ef371b5274937"),
    (100, 15, 99, "a13c9dde28c2eef7", "864931ea3ad6c9d6"),
    (111, 16, 110, "bb79adf87f11db44", "837146bfbaa8a239"),
    (127, 17, 126, "b81f9821f11a9db4", "06f69fe5a61c921e"),
    (128, 18, 127, "7641aecf67b682ba", "3f7e72ec3c117f69"),
    (128, 19, 127, "d639beac560a5a2c", "d0329e2b85145946"),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestMajorizes:
    def test_basic_order(self):
        p = mj.make_distribution(P)
        q = mj.make_distribution(Q)
        assert mj.majorizes(p, q)
        assert not mj.majorizes(q, p)

    def test_reflexive(self):
        p = mj.make_distribution(P)
        assert mj.majorizes(p, p)

    def test_extremes(self):
        for k in range(1, 8):
            u = mj.uniform(k)
            e = mj.point_mass(k)
            assert mj.majorizes(e, u)
            rng = np.random.default_rng(k)
            r = random_distribution(rng, k=k)
            assert mj.majorizes(e, r)
            assert mj.majorizes(r, u)

    def test_incomparable_pair(self):
        a = mj.make_distribution([0.5, 0.5, 0.0])
        b = mj.make_distribution([0.6, 0.2, 0.2])
        assert not mj.majorizes(a, b)
        assert not mj.majorizes(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mj.majorizes(mj.uniform(2), mj.uniform(3))

    def test_tolerance_absorbs_tiny_slack(self):
        p = mj.make_distribution([0.5, 0.5])
        q = mj.make_distribution([0.5 + 1e-12, 0.5 - 1e-12], "renormalize")
        assert mj.majorizes(p, q, tau=1e-9)
        assert mj.majorizes(q, p, tau=1e-9)


class TestPrefixGapPredicates:
    def test_agree_with_majorizes_on_distributions(self):
        # every predicate on the shared prefix gap agrees with majorizes, at
        # any valid tau, on random pairs, equal pairs and pairs with tied
        # entries
        rng = np.random.default_rng(11)
        pairs = [
            (random_distribution(rng, k=4), random_distribution(rng, k=4))
            for _ in range(200)
        ]

        def tied():
            return mj.make_distribution(rng.integers(1, 4, 4).astype(float), "renormalize")

        for p, _ in pairs[:100]:
            t = tied()
            pairs += [(p, p), (t, t), (t, tied()), (t, p), (p, t)]
        for p, q in pairs:
            expected = mj.majorizes(p, q)
            assert (mj.majorization_distance(p, q) <= 2 * 1e-9) == expected
            for tau in (0.0, 1e-9, 1.0):
                for a, b in ((p, q), (q, p)):
                    failing = mj.first_failing_prefix(a, b, tau=tau)
                    assert (failing is None) == mj.majorizes(a, b, tau=tau)


_TOL_PAIR = (mj.make_distribution([0.6, 0.4]), mj.make_distribution([0.5, 0.5]))
TOLERANCE_CALLS = {
    "make_distribution": lambda tol: mj.make_distribution([0.5, 0.9], tau_norm=tol),
    "majorizes": lambda tol: mj.majorizes(*_TOL_PAIR, tau=tol),
    "first_failing_prefix": lambda tol: mj.first_failing_prefix(*_TOL_PAIR, tau=tol),
    "transfer_plan": lambda tol: mj.transfer_plan(*_TOL_PAIR, tau=tol),
}


@pytest.mark.parametrize("tol", [math.nan, -1.0, -0.5e-9, math.inf, -math.inf])
@pytest.mark.parametrize("call", TOLERANCE_CALLS.values(), ids=TOLERANCE_CALLS.keys())
def test_tolerance_outside_zero_to_inf_rejected(call, tol):
    # a NaN would pass every sum and fail every prefix, and a negative
    # tau_norm would turn the clamp of float noise inside out
    with pytest.raises(ValueError, match=r"must lie in \[0, inf\), got"):
        call(tol)


class TestFirstFailingPrefix:
    def test_none_when_ordered(self):
        p = mj.make_distribution(P)
        q = mj.make_distribution(Q)
        assert mj.first_failing_prefix(p, q) is None

    def test_position_is_one_based(self):
        p = mj.make_distribution(P)
        q = mj.make_distribution(Q)
        assert mj.first_failing_prefix(q, p) == 1

    def test_later_prefix(self):
        a = mj.make_distribution([0.5, 0.5, 0.0])
        b = mj.make_distribution([0.6, 0.2, 0.2])
        assert mj.first_failing_prefix(a, b) == 1
        assert mj.first_failing_prefix(b, a) == 2


class TestMajorizationDistance:
    def test_zero_iff_majorized(self):
        p = mj.make_distribution(P)
        q = mj.make_distribution(Q)
        assert mj.majorization_distance(p, q) == 0.0
        assert mj.majorization_distance(q, p) == pytest.approx(0.4, abs=1e-12)

    def test_incomparable_pair_values(self):
        a = mj.make_distribution([0.5, 0.5, 0.0])
        b = mj.make_distribution([0.6, 0.2, 0.2])
        assert mj.majorization_distance(a, b) == pytest.approx(0.2, abs=1e-12)
        assert mj.majorization_distance(b, a) == pytest.approx(0.4, abs=1e-12)

    def test_point_mass_to_uniform(self):
        # largest prefix gap is at l = 1: 2 * (1 - 1/k) inverted direction
        for k in range(2, 7):
            d = mj.majorization_distance(mj.uniform(k), mj.point_mass(k))
            assert d == pytest.approx(2 * (1 - 1 / k), abs=1e-12)

    def test_witnesses_certify_the_distance(self):
        a = mj.make_distribution([0.5, 0.5, 0.0])
        b = mj.make_distribution([0.6, 0.2, 0.2])
        d = mj.majorization_distance(a, b)
        up = mj.steepest(a, d)
        down = mj.flattest(b, d)
        assert mj.majorizes(up.result, b)
        assert mj.majorizes(a, down.result)

    def test_cross_checked_by_bisection(self):
        a = mj.make_distribution([0.5, 0.5, 0.0])
        b = mj.make_distribution([0.6, 0.2, 0.2])
        lo, hi = 0.0, 2.0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if mj.majorizes(mj.steepest(a, mid).result, b, tau=1e-15):
                hi = mid
            else:
                lo = mid
        assert abs(hi - mj.majorization_distance(a, b)) < 1e-9


def _fresh(p: mj.Distribution) -> mj.Distribution:
    """An equal distribution that has compared against nothing yet."""
    return mj.Distribution(p.values.copy(), p.perm.copy())


def _pair_record(p, q, tau: float) -> tuple:
    """Both predicate directions at tau and both distances, the floats in hex."""
    return (
        mj.majorizes(p, q, tau=tau),
        mj.majorizes(q, p, tau=tau),
        mj.majorization_distance(p, q).hex(),
        mj.majorization_distance(q, p).hex(),
    )


class TestPairMemo:
    """p keeps its worst prefix gap against the last q it was compared with."""

    def test_repeated_and_interleaved_calls_match_fresh_builds(self):
        rng = np.random.default_rng(17)
        for k in (1, 2, 5, 1000):
            p, q = mj.sample_majorized_pair(k, rng)
            r = random_distribution(rng, k=k)
            for a, b in ((p, q), (q, p), (p, r), (p, q), (r, q), (p, p), (p, q)):
                for tau in (1e-9, 0.0, 1e-9, 1.0):
                    assert _pair_record(a, b, tau) == _pair_record(_fresh(a), _fresh(b), tau)
                gap = float(np.cumsum(b.values - a.values).max())
                assert mj.majorization_distance(a, b).hex() == max(0.0, 2.0 * gap).hex()

    def test_a_dropped_q_never_answers_for_a_new_one(self):
        # each q is dropped before the next is built, and most take the
        # dropped one's address, so a memo keyed on id(q) would hand them
        # the old answer
        rng = np.random.default_rng(18)
        p = random_distribution(rng, k=6)
        others = [random_distribution(rng, k=6) for _ in range(40)]
        want = []
        for o in others:
            gap = float(np.cumsum(o.values - p.values).max())
            want.append((max(0.0, 2.0 * gap), gap <= mj.DEFAULT_TAU))
        got = []
        for o in others:
            q = mj.Distribution(o.values, o.perm)
            got.append((mj.majorization_distance(p, q), mj.majorizes(p, q)))
            del q
        assert got == want

    def test_p_does_not_keep_q_alive(self):
        p = mj.make_distribution([0.6, 0.4])
        q = mj.make_distribution([0.5, 0.5])
        ref = weakref.ref(q)
        gc.disable()
        try:
            assert mj.majorizes(p, q)
            del q
            assert ref() is None
        finally:
            gc.enable()

    def test_self_comparison_leaves_no_reference_cycle(self):
        p = mj.make_distribution([0.6, 0.4])
        ref = weakref.ref(p)
        gc.disable()
        try:
            assert mj.majorizes(p, p)
            assert mj.majorization_distance(p, p) == 0.0
            del p
            assert ref() is None
        finally:
            gc.enable()

    def test_q_does_not_keep_p_alive(self):
        p = mj.make_distribution([0.6, 0.4])
        q = mj.make_distribution([0.5, 0.5])
        ref = weakref.ref(p)
        gc.disable()
        try:
            assert mj.majorizes(p, q)
            assert not mj.majorizes(q, p)
            del p
            assert ref() is None
        finally:
            gc.enable()

    def test_one_prefix_sum_answers_both_directions(self, cumsum_calls):
        rng = np.random.default_rng(19)
        p, q = mj.sample_majorized_pair(40, rng)
        r = random_distribution(rng, k=40)
        for a, b in ((p, q), (r, q), (q, r)):
            ordered = mj.majorizes(a, b)
            cumsum_calls.clear()
            # the reverse direction first, then both distances
            got = _pair_record(b, a, 0.0)
            failing = mj.first_failing_prefix(a, b) if ordered else None
            assert cumsum_calls == {}
            assert failing is None and got == _pair_record(_fresh(b), _fresh(a), 0.0)

    def test_distance_is_a_positive_zero(self):
        p = mj.make_distribution([0.5, 0.25, 0.25])
        q = mj.make_distribution([0.5, 0.5, 0.0])
        equal = mj.make_distribution([0.5, 0.25, 0.25])
        # the gap of p against q has positive zeros, so q keeps a negated
        # zero as its worst gap against p
        assert math.copysign(1.0, -float(np.cumsum(q.values - p.values).min())) == -1.0
        for a, b in ((p, p), (p, equal), (equal, p), (q, p)):
            mj.majorizes(b, a)  # a's distance reads the gap this keeps
            d = mj.majorization_distance(a, b)
            assert d == 0.0 and math.copysign(1.0, d) == 1.0

    def test_check_takes_one_prefix_sum_per_pair(self, cumsum_calls, tmp_path, capsys):
        # the pair's sum answers majorizes both ways and both distances;
        # the other is first_failing_prefix(q, p) finding its place
        p, q = mj.sample_majorized_pair(1000, 29)
        assert mj.majorizes(p, q) and not mj.majorizes(q, p)
        paths = []
        for name, d in (("p", p), ("q", q)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"values": d.values.tolist()}))
            paths.append(str(path))
        cumsum_calls.clear()
        assert cli.main(["check", *paths]) == 0
        assert "first failing prefix q->p" in capsys.readouterr().out
        assert cumsum_calls == {1000: 2}


class TestTTransform:
    def test_apply_moves_mass_between_two_coordinates(self):
        x = np.array([0.7, 0.2, 0.1])
        step = mj.TTransform(0, 2, 0.5)
        out = mj.TransferPlan((step,), 3).apply(x)
        assert out == pytest.approx([0.4, 0.2, 0.4], abs=1e-15)
        assert x[0] == 0.7  # input untouched

    def test_validation(self):
        with pytest.raises(ValueError):
            mj.TTransform(1, 1, 0.5)
        with pytest.raises(ValueError):
            mj.TTransform(0, 1, 1.5)
        with pytest.raises(ValueError):
            mj.TTransform(0, 1, -0.1)
        for i, j in ((0, 1.5), (0.0, 1), ("0", 1)):
            with pytest.raises(ValueError):
                mj.TTransform(i, j, 0.2)
        step = mj.TTransform(np.int64(0), 1, 0.2)
        assert mj.TransferPlan((step,), 2).apply(np.array([1.0, 0.0]))[1] == 0.2


class TestTransferPlan:
    def test_two_coordinate_halving(self):
        p = mj.make_distribution([1.0, 0.0])
        q = mj.uniform(2)
        plan = mj.transfer_plan(p, q)
        assert len(plan.steps) == 1
        assert plan.steps[0].t == pytest.approx(0.5)
        assert plan.matrix == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)
        assert plan.apply(p.values) == pytest.approx(q.values, abs=1e-12)

    def test_second_known_pair(self):
        p = mj.make_distribution([0.6, 0.4])
        q = mj.uniform(2)
        plan = mj.transfer_plan(p, q)
        assert len(plan.steps) == 1
        assert plan.matrix == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)

    def test_equal_inputs_need_no_steps(self):
        p = mj.make_distribution(P)
        plan = mj.transfer_plan(p, p)
        assert plan.steps == ()
        assert plan.matrix == pytest.approx(np.eye(3), abs=1e-12)

    def test_intermediate_needs_resorting(self):
        # after the first transfer the working vector is no longer sorted;
        # the plan must still finish within k-1 steps
        p = mj.make_distribution([0.5, 0.45, 0.05])
        q = mj.make_distribution([0.45, 0.4, 0.15])
        plan = mj.transfer_plan(p, q)
        assert 1 <= len(plan.steps) <= 2
        assert plan.apply(p.values) == pytest.approx(q.values, abs=1e-9)

    def test_step_budget_and_accuracy_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            p, q = mj.sample_majorized_pair(k, rng)
            plan = mj.transfer_plan(p, q)
            assert len(plan.steps) <= k - 1
            assert np.abs(plan.apply(p.values) - q.values).max() <= 1e-9
            # the matrix is the same map as the step sequence
            assert plan.matrix @ p.values == pytest.approx(q.values, abs=1e-9)

    def test_plans_are_bit_identical_to_the_matrix_product_sweep(self):
        for k, seed, n_steps, steps_digest, matrix_digest in FROZEN_PLANS:
            p, q = mj.sample_majorized_pair(k, seed)
            plan = mj.transfer_plan(p, q)
            steps = ";".join(f"{s.i},{s.j},{s.t.hex()}" for s in plan.steps)
            assert len(plan.steps) == n_steps, (k, seed)
            assert _digest(steps.encode()) == steps_digest, (k, seed)
            assert _digest(plan.matrix.tobytes()) == matrix_digest, (k, seed)

    def test_accepts_sub_tau_deficit_ahead_of_the_surplus(self):
        # majorizes accepts this pair within tau, so a plan must exist
        p = mj.make_distribution([0.5, 0.3, 0.2])
        q = mj.make_distribution([0.5 + 5e-10, 0.3 - 5e-10, 0.2])
        assert mj.majorizes(p, q)
        plan = mj.transfer_plan(p, q)
        assert len(plan.steps) <= p.k - 1
        assert np.abs(plan.matrix @ p.values - q.values).max() <= 1e-9

    def test_majorizes_and_transfer_plan_agree(self):
        # anything majorizes accepts within tau gets a plan, and anything it
        # rejects raises: zero-sum noise of 1e-10 to 3e-9 around a base, and
        # deficits just under tau ahead of the first surplus
        rng = np.random.default_rng(31)
        accepted = rejected = 0
        for k, n in ((3, 1000), (8, 1000), (50, 300), (1000, 30)):
            for _ in range(n):
                p = random_distribution(rng, k=k)
                noise = rng.standard_normal(k)
                noise *= rng.uniform(1e-10, 3e-9) / np.abs(noise).max()
                near = np.zeros(k)
                a, b = sorted(rng.choice(k, 2, replace=False))
                near[a], near[b] = 1.0, -1.0
                near *= rng.uniform(0.5, 1.0) * mj.DEFAULT_TAU
                for step in (noise - noise.mean(), near):
                    q = mj.make_distribution(np.clip(p.values + step, 0.0, None), "renormalize")
                    for x, y in ((p, q), (q, p)):
                        if mj.majorizes(x, y):
                            accepted += 1
                            plan = mj.transfer_plan(x, y)
                            assert len(plan.steps) <= k - 1
                            assert np.abs(plan.apply(x.values) - y.values).max() <= 1e-9
                        else:
                            rejected += 1
                            with pytest.raises(NotMajorizedError):
                                mj.transfer_plan(x, y)
        assert accepted > 5000 and rejected > 1000

    def test_large_k_plan(self):
        p, q = mj.sample_majorized_pair(1000, 3)
        plan = mj.transfer_plan(p, q)
        m = plan.matrix
        assert len(plan.steps) <= 999
        assert float(m.min()) >= -1e-9
        assert np.abs(m.sum(axis=0) - 1.0).max() <= 1e-9
        assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.abs(m @ p.values - q.values).max() <= 1e-9

    def test_rejects_unordered_pair(self):
        a = mj.make_distribution([0.5, 0.5, 0.0])
        b = mj.make_distribution([0.6, 0.2, 0.2])
        with pytest.raises(NotMajorizedError):
            mj.transfer_plan(a, b)

    def test_matrix_agrees_with_apply(self):
        rng = np.random.default_rng(9)
        for k in (2, 3, 8, 40):
            p, q = mj.sample_majorized_pair(k, rng)
            plan = mj.transfer_plan(p, q)
            for x in (p.values, rng.standard_normal(k)):
                assert np.abs(plan.matrix @ x - plan.apply(x)).max() <= 1e-12

    def test_matrix_is_cached_and_write_locked(self):
        plan = mj.transfer_plan(mj.make_distribution(P), mj.make_distribution(Q))
        assert plan.matrix is plan.matrix
        with pytest.raises(ValueError):
            plan.matrix[0, 0] = 2.0

    def test_plan_validation(self):
        step = mj.TTransform(0, 1, 0.5)
        assert mj.TransferPlan((step,), 2).k == 2
        for bad in (mj.TTransform(0, 2, 0.5), mj.TTransform(5, 1, 0.5),
                    mj.TTransform(-1, 1, 0.5), mj.TTransform(0, -1, 0.5)):
            with pytest.raises(ValueError):
                mj.TransferPlan((bad,), 2)
        for k in (0, 2.0, "2", None):
            with pytest.raises(ValueError):
                mj.TransferPlan((), k)
        assert mj.TransferPlan((step,), np.int64(2)).k == 2

    def test_apply_checks_length(self):
        plan = mj.TransferPlan((mj.TTransform(0, 1, 0.5),), 2)
        with pytest.raises(DimensionMismatchError):
            plan.apply([0.5, 0.3, 0.2])
        assert plan.apply([1.0, 0.0]).tolist() == [0.5, 0.5]

    def test_plan_at_k_1e5(self):
        # p mixed with permutations of itself is majorized by p; the O(k^2)
        # sample_majorized_pair and the dense matrix stay out of this test
        k = 10**5
        rng = np.random.default_rng(11)
        p = mj.make_distribution(rng.dirichlet(np.ones(k)), "renormalize")
        weights = rng.dirichlet(np.ones(4))
        vals = weights[0] * p.values
        for w in weights[1:]:
            vals = vals + w * p.values[rng.permutation(k)]
        q = mj.make_distribution(vals, "renormalize")
        plan = mj.transfer_plan(p, q)
        assert len(plan.steps) <= k - 1
        assert np.abs(plan.apply(p.values) - q.values).max() <= 1e-9


class TestTrustedPlans:
    # transfer_plan builds its steps and plan without the validators, so
    # each must be what the validators would have built
    def test_steps_and_plans_rebuild_through_the_validators(self):
        for k in (1, 2, 3, 8, 50, 128, 1000):
            p, q = mj.sample_majorized_pair(k, k)
            plan = mj.transfer_plan(p, q)
            assert type(plan.k) is int and type(plan.steps) is tuple
            for s in plan.steps:
                assert type(s.i) is int and type(s.j) is int and type(s.t) is float
                assert mj.TTransform(s.i, s.j, s.t) == s
            assert mj.TransferPlan(plan.steps, plan.k) == plan
            for clone in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan)):
                assert clone == plan
                assert clone.matrix.tobytes() == plan.matrix.tobytes()
            obj = transfer_plan_to_json(plan)
            assert json.loads(json.dumps(obj)) == obj
            assert all(type(s["i"]) is int and type(s["j"]) is int for s in obj["steps"])
            assert type(obj["k"]) is int

    def test_negative_t_still_raises(self, monkeypatch):
        with pytest.raises(ValueError):
            mj.TTransform(0, 1, -0.25)
        # a negative step size inside the sweep meets the same range check
        p, q = mj.sample_majorized_pair(8, 8)
        monkeypatch.setattr(order, "min", lambda a, b: -abs(builtins.min(a, b)), raising=False)
        with pytest.raises(ValueError, match="t must lie in"):
            mj.transfer_plan(p, q)
