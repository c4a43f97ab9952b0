"""Path-loss intensity measures of the blockage-thinned tier processes.

Mapping every base station of a tier through its distance-dependent path loss
turns the planar PPP into a one-dimensional PPP on the loss axis.  This module
evaluates that process's intensity measure Lambda([0, x)), its LOS/NLOS split,
and the density dLambda/dx, all piecewise power laws with breakpoints at the
ball edges mapped through kappa * r**alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


def lambda_split(tier: TierConfig, state: LinkState, x) -> np.ndarray | float:
    """Lambda_{k,s}([0, x)): mean number of state-s BSs with path loss below x."""
    xa = np.asarray(x, dtype=float)
    out = np.zeros_like(xa)
    for s in state_segments(tier, state):
        r2 = np.clip((np.maximum(xa, 0.0) / s.kappa) ** (2.0 / s.alpha), s.lo_r2, s.hi_r2)
        out = out + s.weight * (r2 - s.lo_r2)
    out = math.pi * tier.density * out
    return out if np.ndim(x) else float(out)


def lambda_total(tier: TierConfig, x) -> np.ndarray | float:
    """Lambda_k([0, x)): both-states mean count with path loss below x."""
    return (lambda_split(tier, LinkState.LOS, x)
            + lambda_split(tier, LinkState.NLOS, x))


def lambda_density(tier: TierConfig, state: LinkState, x) -> np.ndarray | float:
    """dLambda_{k,s}/dx, the path-loss process density.

    On each active segment this is
    2*pi*lambda*weight*(x/kappa)^(2/alpha - 1) / (alpha*kappa); zero outside.
    Annuli are closed at the inner edge, open at the outer.
    """
    xa = np.asarray(x, dtype=float)
    out = np.zeros_like(xa)
    for s in state_segments(tier, state):
        inside = (xa >= s.lo_x) & (xa < s.hi_x) & (xa > 0.0)
        if np.any(inside):
            xs = xa[inside] if xa.ndim else xa
            val = (2.0 * math.pi * tier.density * s.weight / (s.alpha * s.kappa)
                   * (xs / s.kappa) ** (2.0 / s.alpha - 1.0))
            if xa.ndim:
                out[inside] += val
            else:
                out = out + np.where(inside, val, 0.0)
    return out if np.ndim(x) else float(out)


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


def max_loss(tier: TierConfig, state: LinkState) -> float:
    """Largest finite path loss the tier can present in the given state; with
    per-ball kappa or alpha it need not be the outermost ball's."""
    return max((s.hi_x for s in state_segments(tier, state)), default=0.0)


def total_mass(tier: TierConfig) -> float:
    """Lambda_k([0, inf)) = pi * lambda_k * R_kD^2, the mean non-outage count."""
    return math.pi * tier.density * tier.outage_radius ** 2
