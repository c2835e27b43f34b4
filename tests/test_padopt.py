import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganevade.padopt import (InfeasiblePaddingError, PaddingPlan,
                             PaddingRequest, check_plan, plan_for,
                             solve_relaxed)


def lp_oracle(counts, target, gap):
    """Reference solution of the padding LP via scipy's simplex-family
    solver, written directly from the constraint system."""
    from scipy.optimize import linprog
    b = np.asarray(counts, dtype=np.float64)
    r = np.asarray(target, dtype=np.float64)
    n = len(b)
    sum_b = b.sum()
    # variables p >= 0; constraints in terms of T = sum_b + sum(p)
    lo_rate, hi_rate = r - gap, r + gap
    ones = np.ones((n, n))
    # b + p <= hi_rate*T  ->  p - hi_rate*sum(p) <= hi_rate*sum_b - b
    a1 = np.eye(n) - hi_rate[:, None] * ones
    u1 = hi_rate * sum_b - b
    # lo_rate*T <= b + p  ->  lo_rate*sum(p) - p <= b - lo_rate*sum_b
    a2 = lo_rate[:, None] * ones - np.eye(n)
    u2 = b - lo_rate * sum_b
    res = linprog(c=np.ones(n), A_ub=np.vstack([a1, a2]),
                  b_ub=np.concatenate([u1, u2]), bounds=[(0, None)] * n,
                  method="highs")
    return res


class TestHandInstances:
    def test_two_bins_exact_by_hand(self):
        # b=[2,2], r=[0.75,0.25]: T must be 8, pad 4 into bin 0
        req = PaddingRequest(np.array([2, 2]), np.array([0.75, 0.25]),
                             gap=0.0)
        real = solve_relaxed(req)
        assert real.total_count == pytest.approx(8.0)
        np.testing.assert_allclose(real.p, [4.0, 0.0])

    def test_already_on_target_needs_nothing(self):
        req = PaddingRequest(np.array([30, 10]), np.array([0.75, 0.25]))
        assert solve_relaxed(req).total_appended == pytest.approx(0.0)

    def test_relaxed_gap_allows_less_padding(self):
        b = np.array([10, 0, 0, 0])
        r = np.array([0.25, 0.25, 0.25, 0.25])
        tight = solve_relaxed(PaddingRequest(b, r, gap=0.0))
        loose = solve_relaxed(PaddingRequest(b, r, gap=0.1))
        assert loose.total_appended < tight.total_appended

    def test_exact_infeasible_zero_bin(self):
        req = PaddingRequest(np.array([5, 1]), np.array([1.0, 0.0]),
                             gap=0.0)
        with pytest.raises(InfeasiblePaddingError) as exc:
            solve_relaxed(req)
        assert exc.value.bins == [1]

    def test_exact_total_past_every_knot(self):
        # a floored bin puts T* = b_0 / r_0 near 1.5e7; a knot search over
        # gap-0 bounds read rounding noise there as infeasibility
        b = np.array([22.0, 27.0, 26.0])
        r = np.array([1.474346255907162e-06, 0.42175125265865937,
                      0.5782472729950847])
        req = PaddingRequest(b, r, gap=0.0)
        assert solve_relaxed(req).total_count == pytest.approx(b[0] / r[0],
                                                               rel=1e-12)
        plan = plan_for(req)
        assert check_plan(plan, req)
        assert plan.total_appended == math.ceil(b[0] / r[0]) - b.sum()

    def test_check_plan_rejects_two_counts_off_target(self):
        b = np.array([2.0, 2.0])
        req = PaddingRequest(b, np.array([0.75, 0.25]), gap=0.0)
        plan = plan_for(req)
        np.testing.assert_array_equal(plan.p, [4, 0])
        assert check_plan(plan, req)
        # same total, counts moved from bin 0 to bin 1: one count off each
        # target is within the certified bound, two are not
        for shift, ok in ((1, True), (2, False)):
            moved = PaddingPlan(p=plan.p + np.array([-shift, shift]),
                                total_appended=4, achieved=plan.achieved)
            assert check_plan(moved, req) == ok

    def test_gap_validation(self):
        with pytest.raises(ValueError):
            PaddingRequest(np.array([1.0]), np.array([1.0]), gap=1.0)
        with pytest.raises(ValueError):
            PaddingRequest(np.array([1.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            PaddingRequest(np.array([-1.0]), np.array([1.0]))


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_instances_match_linprog(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        b = rng.integers(0, 200, size=n).astype(np.float64)
        b[int(rng.integers(0, n))] += 1  # at least one byte present
        r = rng.dirichlet(np.full(n, 0.7))
        gap = float(rng.uniform(0.0, 0.1))
        res = lp_oracle(b, r, gap)
        ours = solve_relaxed(PaddingRequest(b, r, gap=gap))
        assert res.status == 0
        assert abs(ours.total_appended - res.fun) <= 1.0


class TestMonotonicityAndScaling:
    def test_appended_non_increasing_in_gap(self):
        rng = np.random.default_rng(3)
        b = rng.integers(0, 100, size=8).astype(np.float64)
        r = rng.dirichlet(np.full(8, 0.5))
        gaps = [0.0, 0.001, 0.01, 0.05, 0.1]
        totals = [solve_relaxed(PaddingRequest(b, r, gap=g)).total_appended
                  for g in gaps]
        for a, c in zip(totals, totals[1:]):
            assert c <= a + 1e-6

    def test_exact_needs_at_least_relaxed(self):
        rng = np.random.default_rng(4)
        b = rng.integers(1, 60, size=6).astype(np.float64)
        r = rng.dirichlet(np.ones(6))
        exact = solve_relaxed(PaddingRequest(b, r, gap=0.0))
        relaxed = solve_relaxed(PaddingRequest(b, r, gap=0.01))
        assert exact.total_appended >= relaxed.total_appended - 1e-9

    def test_scale_equivariance(self):
        b = np.array([7, 3, 0, 2], dtype=np.float64)
        r = np.array([0.4, 0.3, 0.2, 0.1])
        one = solve_relaxed(PaddingRequest(b, r, gap=0.01))
        ten = solve_relaxed(PaddingRequest(10 * b, r, gap=0.01))
        assert ten.total_appended == pytest.approx(10 * one.total_appended,
                                                   rel=1e-9, abs=1e-6)


class TestIntegerPlans:
    def test_plan_close_to_real_optimum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 16))
            b = rng.integers(0, 500, size=n).astype(np.float64)
            b[0] += 1
            r = rng.dirichlet(np.ones(n))
            req = PaddingRequest(b, r, gap=0.01)
            real = solve_relaxed(req)
            plan = plan_for(req)
            assert plan.total_appended <= math.ceil(real.total_appended)
            assert check_plan(plan, req)

    def test_certificate_fields(self):
        req = PaddingRequest(np.array([50, 10, 0]),
                             np.array([0.5, 0.3, 0.2]), gap=0.01)
        plan = plan_for(req)
        cert = plan.certificate
        assert cert["total"] == pytest.approx(50 + 10 + plan.total_appended)
        assert cert["max_lower_violation"] == 0.0
        assert cert["max_upper_violation"] == 0.0
        np.testing.assert_allclose(plan.achieved.sum(), 1.0)

    def test_achieved_within_gap_plus_rounding(self):
        rng = np.random.default_rng(6)
        b = rng.integers(0, 1000, size=256).astype(np.float64)
        r = rng.dirichlet(np.full(256, 0.3))
        req = PaddingRequest(b, r, gap=0.001)
        plan = plan_for(req)
        total = b.sum() + plan.total_appended
        dev_counts = np.abs((b + plan.p) - r * total)
        assert dev_counts.max() <= 0.001 * total + 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_integer_plan_always_certifies(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 32))
    b = rng.integers(0, 300, size=n).astype(np.float64)
    r = rng.dirichlet(np.full(n, 0.6))
    r = np.maximum(r, 1e-9)
    r = r / r.sum()
    req = PaddingRequest(b, r, gap=float(rng.uniform(0.001, 0.2)))
    plan = plan_for(req)
    assert check_plan(plan, req)
    assert np.all(plan.p >= 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_exact_plan_on_floored_targets(seed):
    """Generator-like requests: a peaked softmax target floored the way the
    attacks floor it, against a 1.5-6 KB file."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 65))
    b = rng.multinomial(int(rng.integers(1500, 6001)),
                        rng.dirichlet(np.full(n, 0.5))).astype(np.float64)
    logits = rng.normal(scale=3.0, size=n)
    t = np.exp(logits - logits.max())
    t = t / t.sum()
    # floor at one unit of 2**-20 and renormalise in whole units, so r sums
    # to exactly 1 and the gap-0 model handed to the oracle is feasible
    units = np.maximum(1, np.floor(t * 2**20)).astype(np.int64)
    units[np.argmax(units)] += 2**20 - units.sum()
    r = units / 2**20
    req = PaddingRequest(b, r, gap=0.0)
    plan = plan_for(req)
    assert check_plan(plan, req)
    res = lp_oracle(b, r, 0.0)
    assert res.status == 0
    assert abs(solve_relaxed(req).total_appended - res.fun) <= 1.0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans())
def test_plan_within_one_count_on_generator_targets(seed, exact):
    """Generator-like requests as the attacks build them: a 256-bin softmax
    target floored at 1e-6 and renormalised, at gap 0 or a random gap.
    Every plan certifies and no bin ends more than one count past gap*T."""
    rng = np.random.default_rng(seed)
    b = rng.multinomial(int(rng.integers(1500, 6001)),
                        rng.dirichlet(np.full(256, 0.5))).astype(np.float64)
    logits = rng.normal(scale=3.0, size=256)
    t = np.exp(logits - logits.max())
    floored = np.maximum(t / t.sum(), 1e-6)
    r = floored / floored.sum()
    gap = 0.0 if exact else float(rng.uniform(0.0, 0.2))
    req = PaddingRequest(b, r, gap=gap)
    plan = plan_for(req)
    assert check_plan(plan, req)
    total = b.sum() + plan.total_appended
    assert plan.certificate["total"] == total
    assert np.abs(b + plan.p - r * total).max() <= gap * total + 1
    assert plan.total_appended <= math.ceil(solve_relaxed(req).total_appended)
