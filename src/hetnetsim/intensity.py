"""Path-loss intensity measures of the blockage-thinned tier processes.

Mapping every base station of a tier through its distance-dependent path loss
turns the planar PPP into a one-dimensional PPP on the loss axis.  This module
describes that process's intensity measure Lambda([0, x)) per link state as
segments, one per active ball, each a power law in x between the ball edges
mapped through kappa * r**alpha, and lists the breakpoints and total mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .model import LinkState, TierConfig

_STATES = (LinkState.LOS, LinkState.NLOS)


@dataclass(frozen=True)
class _Segment:
    """One active (positive-weight) ball of a tier in one link state."""

    lo_x: float    # path loss at the annulus inner edge
    hi_x: float    # path loss at the annulus outer edge
    lo_r2: float   # inner radius squared
    hi_r2: float
    weight: float  # beta or 1 - beta
    kappa: float
    alpha: float


@lru_cache(maxsize=None)
def state_segments(tier: TierConfig, state: LinkState) -> tuple[_Segment, ...]:
    """Active path-loss segments of a tier in one state, in increasing order of radius."""
    segs = []
    prev_r = 0.0
    for ball in tier.balls:
        w = ball.los_prob if state is LinkState.LOS else 1.0 - ball.los_prob
        if w > 0.0:
            k, a = ball.kappa(state), ball.alpha(state)
            segs.append(_Segment(
                lo_x=k * prev_r ** a, hi_x=k * ball.radius ** a,
                lo_r2=prev_r * prev_r, hi_r2=ball.radius * ball.radius,
                weight=w, kappa=k, alpha=a))
        prev_r = ball.radius
    return tuple(segs)


@lru_cache(maxsize=None)
def breakpoints(tier: TierConfig) -> tuple[float, ...]:
    """Positive path-loss values where any state's density changes form.

    Candidates are kappa_d^s * R^alpha at both annulus edges for every ball
    carrying positive weight in that state; deduplicated and sorted, zero
    dropped.
    """
    pts = set()
    for state in _STATES:
        for s in state_segments(tier, state):
            pts.add(s.lo_x)
            pts.add(s.hi_x)
    return tuple(sorted(p for p in pts if p > 0.0))


def total_mass(tier: TierConfig) -> float:
    """Lambda_k([0, inf)) = pi * lambda_k * R_kD^2, the mean non-outage count."""
    return math.pi * tier.density * tier.outage_radius ** 2
