"""Minimal-size byte padding against a target byte distribution.

Decides how many copies of each byte value to append so the file's byte
histogram lands within a per-bin gap g of a target distribution; g = 0 is
the exact model. The LP over per-byte counts collapses to a 1-D problem in
the final total T = sum(b + p): for fixed T every bin has an independent
interval of admissible counts, and the least feasible T is found exactly on
the convex, piecewise-linear feasibility function. Integer plans use the
least integer total and largest-remainder rounding, so every bin ends
within one count of its admissible interval; the certificate checks that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class InfeasiblePaddingError(ValueError):
    def __init__(self, message, bins=()):
        super().__init__(message)
        self.bins = list(bins)


@dataclass
class PaddingRequest:
    counts: np.ndarray          # original per-byte-value counts b
    target: np.ndarray          # target distribution r, sums to 1
    gap: float = 0.0            # allowed per-bin error g; 0 means exact

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


def _least_total(req: PaddingRequest) -> float:
    """Least total T* at which every bin's interval is reachable; every
    larger total is feasible too."""
    b = req.counts
    r = req.target
    g = req.gap
    sum_b = float(b.sum())

    # hi-bound feasibility: (r_i + g) * T >= b_i
    cap = r + g
    dead = (cap <= 0) & (b > 0)
    if np.any(dead):
        bad = np.flatnonzero(dead)
        raise InfeasiblePaddingError(
            f"target leaves no room for existing bytes in bins {bad.tolist()}", bad)
    t_floor = np.where(cap > 0, b / np.maximum(cap, 1e-300), 0.0).max(initial=0.0)

    def h(total):
        # lower-bound padding minus the room the total leaves; convex and,
        # past t0, non-increasing
        lo, _ = _bounds(req, total)
        return float(np.maximum(0.0, lo - b).sum()) - (total - sum_b)

    def feasible(total):
        # relative tolerance: at g = 0, h(T) = T * (sum(r) - 1) is pure
        # rounding noise that grows with T
        return h(total) <= 1e-9 * max(1.0, total)

    t0 = max(sum_b, t_floor)
    if feasible(t0):
        return t0
    # breakpoints where a bin's lower bound activates: (r_i - g)*T = b_i
    rate = r - g
    active = rate > 0
    breaks = b[active] / rate[active]
    knots = np.concatenate(([t0], np.sort(breaks[breaks > t0])))
    for ta, tb in zip(knots, knots[1:]):
        if feasible(tb):
            ha, hb = h(ta), h(tb)
            return min(tb, ta + ha * (tb - ta) / (ha - hb))
    # past the last knot h is linear with slope sum(active rates) - 1
    ta = knots[-1]
    slope = float(np.maximum(rate, 0.0).sum()) - 1.0
    if slope < -1e-15:
        return ta - h(ta) / slope
    raise InfeasiblePaddingError("no total satisfies the per-bin lower bounds")


def _fill(req: PaddingRequest, total: float) -> np.ndarray:
    """Real padding towards ``total``: every bin at its lower bound, then a
    deterministic water-fill, largest capacity first, index tie-break."""
    b = req.counts
    lo, hi = _bounds(req, total)
    p = np.maximum(0.0, lo - b)
    capacity = np.maximum(0.0, hi - b) - p
    remainder = (total - float(b.sum())) - float(p.sum())
    for i in np.lexsort((np.arange(req.nbins), -capacity)):
        if remainder <= 0:
            break
        take = min(remainder, capacity[i])
        p[i] += take
        remainder -= take
    return p


def solve_relaxed(req: PaddingRequest) -> RealPlan:
    """Minimize appended bytes subject to the per-bin gap constraints."""
    p = _fill(req, _least_total(req))
    return RealPlan(p=p, total_count=float(req.counts.sum() + p.sum()),
                    total_appended=float(p.sum()))


def _violations(req: PaddingRequest, p_int: np.ndarray):
    """Per-bin counts beyond the gap interval widened by one count."""
    b = req.counts
    total = float(b.sum() + p_int.sum())
    lo, hi = _bounds(req, total)
    counts = b + p_int
    short = np.maximum(0.0, (lo - 1.0) - counts)
    over = np.maximum(0.0, counts - (hi + 1.0))
    return short, over, total


def plan_for(req: PaddingRequest) -> PaddingPlan:
    """Integer plan at the least integer total N >= T*: floor the real fill
    at N, then give one more count to the bins with the largest fractional
    parts (index tie-break) until the plan sums to N - sum(b)."""
    total = math.ceil(_least_total(req) - 1e-9)
    fill = _fill(req, total)
    p = np.floor(fill).astype(np.int64)
    # the fill sums to N - sum(b) up to rounding, so 0 <= missing <= nbins
    missing = int(total - req.counts.sum()) - int(p.sum())
    order = np.lexsort((np.arange(req.nbins), -(fill - p)))
    p[order[:missing]] += 1

    short, over, total = _violations(req, p)
    achieved = (req.counts + p) / total if total > 0 else np.zeros(req.nbins)
    cert = {
        "total": total,
        "gap": req.gap,
        "count_tolerance": req.gap * total + 1.0,
        "max_lower_violation": float(short.max(initial=0.0)),
        "max_upper_violation": float(over.max(initial=0.0)),
    }
    return PaddingPlan(p=p, total_appended=int(p.sum()), achieved=achieved,
                       certificate=cert)


def check_plan(plan: PaddingPlan, req: PaddingRequest) -> bool:
    """Independent re-derivation of the certificate from (b, p)."""
    short, over, _ = _violations(req, plan.p)
    return short.max(initial=0.0) <= 0.0 and over.max(initial=0.0) <= 0.0
