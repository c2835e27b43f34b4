"""Minimal-size byte padding against a target byte distribution.

Decides how many copies of each byte value to append so the file's byte
histogram lands on (exact mode) or within a per-bin gap of (relaxed mode)
a target distribution. The LP over per-byte counts collapses to a 1-D
problem in the final total T = sum(b + p): for fixed T every bin has an
independent interval of admissible counts, and the minimal feasible T is
found exactly on the piecewise-linear feasibility function. With no gap the
minimal T has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class InfeasiblePaddingError(ValueError):
    def __init__(self, message, bins=()):
        super().__init__(message)
        self.bins = list(bins)


class RoundingError(RuntimeError):
    pass


@dataclass
class PaddingRequest:
    counts: np.ndarray          # original per-byte-value counts b
    target: np.ndarray          # target distribution r, sums to 1
    gap: float = 0.0            # allowed per-bin error g; 0 means exact
    mode: str = "relaxed"       # "exact" forces gap 0

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        if self.counts.shape != self.target.shape:
            raise ValueError("counts/target length mismatch")
        if np.any(self.counts < 0):
            raise ValueError("negative byte counts")
        if not 0.0 <= self.gap < 1.0:
            raise ValueError("gap must be in [0,1)")
        if abs(self.target.sum() - 1.0) > 1e-9:
            raise ValueError("target distribution must sum to 1")
        if self.mode not in ("exact", "relaxed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exact":
            self.gap = 0.0

    @property
    def nbins(self) -> int:
        return len(self.counts)


@dataclass
class RealPlan:
    p: np.ndarray               # real-valued per-bin padding
    total_count: float          # T = sum(b + p)
    total_appended: float


@dataclass
class PaddingPlan:
    p: np.ndarray               # integer per-bin padding
    total_appended: int
    achieved: np.ndarray        # (b + p) / T
    certificate: dict = field(default_factory=dict)


def _bounds(req: PaddingRequest, total: float):
    """Per-bin count bounds [lo, hi] on b_i + p_i for a fixed total."""
    tol = req.gap * total
    lo = req.target * total - tol
    hi = req.target * total + tol
    return lo, hi


def solve_relaxed(req: PaddingRequest) -> RealPlan:
    """Minimize appended bytes subject to the per-bin gap constraints."""
    b = req.counts
    r = req.target
    g = req.gap
    sum_b = float(b.sum())

    # hi-bound feasibility: (r_i + g) * T >= b_i
    cap = r + g
    dead = (cap <= 0) & (b > 0)
    t_floor = np.where(cap > 0, b / np.maximum(cap, 1e-300), 0.0).max(initial=0.0)
    if np.any(dead):
        bad = np.flatnonzero(dead)
        raise InfeasiblePaddingError(
            f"target leaves no room for existing bytes in bins {bad.tolist()}", bad)

    def lower_sum(total):
        lo, _ = _bounds(req, total)
        return float(np.maximum(0.0, lo - b).sum())

    def h(total):
        # feasible iff h(total) <= 0
        return lower_sum(total) - (total - sum_b)

    t0 = max(sum_b, t_floor)
    if h(t0) <= 1e-9:
        t_star = t0
    else:
        # breakpoints where a bin's lower bound activates: (r_i - g)*T = b_i
        rate = r - g
        active = rate > 0
        breaks = b[active] / rate[active]
        breaks = np.sort(breaks[breaks > t0])
        knots = np.concatenate(([t0], breaks))
        t_star = None
        for ta, tb in zip(knots, knots[1:]):
            ha, hb = h(ta), h(tb)
            if ha > 0 >= hb:
                t_star = ta + ha * (tb - ta) / (ha - hb)
                break
        if t_star is None:
            ta = knots[-1]
            ha = h(ta)
            # past the last knot h is linear with slope sum(active rates) - 1
            slope = float(np.maximum(rate, 0.0).sum()) - 1.0
            if ha <= 1e-9:
                t_star = ta
            elif slope < -1e-15:
                t_star = ta - ha / slope
            else:
                raise InfeasiblePaddingError(
                    "no total satisfies the per-bin lower bounds")

    lo, hi = _bounds(req, t_star)
    l = np.maximum(0.0, lo - b)
    u = np.maximum(0.0, hi - b)
    p = l.copy()
    remainder = (t_star - sum_b) - float(l.sum())
    if remainder > 0:
        capacity = u - l
        # deterministic water-fill: largest capacity first, index tie-break
        order = np.lexsort((np.arange(req.nbins), -capacity))
        for i in order:
            take = min(remainder, capacity[i])
            p[i] += take
            remainder -= take
            if remainder <= 1e-9:
                break
    return RealPlan(p=p, total_count=float(b.sum() + p.sum()),
                    total_appended=float(p.sum()))


def solve_exact(req: PaddingRequest) -> RealPlan:
    """Equality model: hit the target distribution with zero tolerance.

    Every bin needs r_i * T >= b_i, so the least total is the closed form
    T* = max(sum(b), max over r_i > 0 of b_i / r_i), padded by r * T* - b.
    """
    b = req.counts
    r = req.target
    bad = np.flatnonzero((r <= 0) & (b > 0))
    if len(bad):
        raise InfeasiblePaddingError(
            f"zero-probability target bins {bad.tolist()} hold existing bytes", bad)
    live = r > 0
    t_star = max(float(b.sum()), float((b[live] / r[live]).max(initial=0.0)))
    p = np.maximum(0.0, r * t_star - b)
    return RealPlan(p=p, total_count=float(b.sum() + p.sum()),
                    total_appended=float(p.sum()))


def _violations(req: PaddingRequest, p_int: np.ndarray):
    b = req.counts
    total = float(b.sum() + p_int.sum())
    lo, hi = _bounds(req, total)
    slack = req.nbins  # integer-rounding allowance on top of the gap
    counts = b + p_int
    short = np.maximum(0.0, (lo - slack) - counts)
    over = np.maximum(0.0, counts - (hi + slack))
    return short, over, total


def round_plan(real: RealPlan, req: PaddingRequest) -> PaddingPlan:
    """Round to integers and greedily repair any certified-bound violation."""
    p = np.rint(real.p).astype(np.int64)
    p[p < 0] = 0
    for _ in range(512):
        short, over, total = _violations(req, p)
        if short.max(initial=0.0) <= 0.0 and over.max(initial=0.0) <= 0.0:
            break
        if short.max(initial=0.0) > 0.0:
            p[int(np.argmax(short))] += 1
        else:
            i = int(np.argmax(over))
            if p[i] > 0:
                p[i] -= 1
            else:
                # raise the total so the offending bin's upper bound grows
                headroom = _bounds(req, total)[1] - (req.counts + p)
                p[int(np.argmax(headroom))] += 1
    else:
        raise RoundingError("could not certify integer plan within 512 repairs")

    short, over, total = _violations(req, p)
    tol = req.gap * total
    achieved = (req.counts + p) / total if total > 0 else np.zeros(req.nbins)
    cert = {
        "total": total,
        "gap": req.gap,
        "count_tolerance": tol + req.nbins,
        "max_lower_violation": float(short.max(initial=0.0)),
        "max_upper_violation": float(over.max(initial=0.0)),
    }
    return PaddingPlan(p=p, total_appended=int(p.sum()), achieved=achieved,
                       certificate=cert)


def plan_for(req: PaddingRequest) -> PaddingPlan:
    real = solve_exact(req) if req.mode == "exact" else solve_relaxed(req)
    return round_plan(real, req)


def check_plan(plan: PaddingPlan, req: PaddingRequest) -> bool:
    """Independent re-derivation of the certificate from (b, p)."""
    short, over, _ = _violations(req, plan.p)
    return short.max(initial=0.0) <= 0.0 and over.max(initial=0.0) <= 0.0
