"""Biased association probabilities over tiers and link states.

A user attaches to the tier whose best base station maximizes the biased
averaged received power P_k G_k B_k / L.  With each tier's path-loss process a
PPP on the loss axis, the joint probability of associating with tier k through
a state-s link is an integral of that tier's state density against the void
probabilities of every competing tier, scaled by the power/gain/bias ratios.
The coverage integral is the same integral with a coverage factor inside, so
both are computed by one per-annulus serving-link integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import intensity
from .model import LinkState, NetworkConfig
from .quadrature import integrate

_STATES = (LinkState.LOS, LinkState.NLOS)

# tolerances of association_table's integrals; ABS_TOL bounds each tier
# and state's v-integral (split over its annuli) before the pi lambda w
# weight, so in probability units it is ABS_TOL times that weight
ABS_TOL = 1e-9
REL_TOL = 1e-7

# panel seeds of every annulus, as fractions of its width in v = r**2
_SEEDS = np.geomspace(1e-12, 1.0, 13)[:-1]


def power_ratios(cfg: NetworkConfig, k: int) -> np.ndarray:
    """c_j = (P_j G_j B_j) / (P_k G_k B_k) for all tiers j."""
    pgb = np.array([t.tx_power * t.serving_gain * t.bias for t in cfg.tiers])
    return pgb / pgb[k]


def outage_probability(cfg: NetworkConfig) -> float:
    """Probability no tier has any base station inside its outage radius."""
    return math.exp(-sum(intensity.total_mass(t) for t in cfg.tiers))


@dataclass(frozen=True)
class AssociationTable:
    """Joint tier/state association probabilities plus the outage atom."""

    joint: np.ndarray        # shape (K, 2), columns ordered (LOS, NLOS)
    outage: float
    error: float             # summed quadrature error estimates
    converged: bool

    @property
    def per_tier(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    @property
    def total(self) -> float:
        return float(self.joint.sum())


def _void_exponent(cfg: NetworkConfig, ratios: np.ndarray):
    """The evaluator l -> sum_j Lambda_j(ratios_j l) over the tiers j.

    Every (state, tier, segment) is a row of one stacked array, each
    (state, tier) padded with empty segments to the longest one's segment
    count, so an evaluation is one numpy pass instead of a lambda_total call
    per tier.  It keeps lambda_split's arithmetic: the power of each run of
    rows with one exponent is taken with that scalar exponent, segments are
    summed within a state in order, then scaled by pi lambda, then LOS +
    NLOS, then the tiers in order; so the sum is bitwise lambda_total's.
    """
    segs = [[intensity.state_segments(t, s) for t in cfg.tiers]
            for s in _STATES]
    depth = max(len(ss) for by_tier in segs for ss in by_tier)
    rows, exps = [], []
    for by_tier in segs:
        for j, ss in enumerate(by_tier):
            for seg in ss:
                rows.append((ratios[j], seg.kappa, seg.lo_r2, seg.hi_r2,
                             seg.weight))
                exps.append(2.0 / seg.alpha)
            # an empty segment adds exactly 0 under any exponent, so it takes
            # its neighbour's and never splits a run
            pad = depth - len(ss)
            rows += [(ratios[j], 1.0, 0.0, 0.0, 0.0)] * pad
            exps += [exps[-1] if exps else None] * pad
    lead = next(e for e in exps if e is not None)
    exps = [lead if e is None else e for e in exps]
    cuts = [0] + [i for i in range(1, len(exps)) if exps[i] != exps[i - 1]]
    runs = list(zip(cuts, cuts[1:] + [len(exps)], (exps[i] for i in cuts)))
    ratio, kappa, lo, hi, w = np.array(rows).T[:, :, None]
    pi_lam = np.array([math.pi * t.density for t in cfg.tiers])[:, None]
    shape = (len(_STATES), cfg.n_tiers, depth, -1)

    def void(l: np.ndarray) -> np.ndarray:
        x = np.maximum(ratio * l, 0.0)
        x /= kappa
        r2 = np.empty_like(x)
        for a, b, e in runs:
            r2[a:b] = x[a:b] ** e
        np.maximum(r2, lo, out=r2)
        np.minimum(r2, hi, out=r2)
        r2 -= lo
        r2 *= w
        by_state = r2.reshape(shape).sum(axis=2)
        by_state *= pi_lam
        return (by_state[0] + by_state[1]).sum(axis=0)

    return void


def _serving_integral(cfg: NetworkConfig, k: int, state: LinkState,
                      integrand, kinks=(), abs_tol: float = ABS_TOL,
                      rel_tol: float = REL_TOL) -> tuple[float, float, bool]:
    """Integral of integrand(l, void) against tier k's state-s loss density.

    void is the exponent sum_j Lambda_j(c_j l) of the probability that no
    station of any tier beats the serving one at loss l; integrand
    exp(-void) gives the joint association probability.  Each active
    annulus is integrated in v = r**2, where the density is the constant
    pi lambda_k w and l = kappa v**(alpha/2), with panels cut at the
    competitors' kinks bp/c_j, the extra path-loss kinks given, and 12
    geometric seeds.  abs_tol / (number of annuli) bounds each annulus's
    v-integral before the pi lambda_k w weight multiplies it.  Returns
    (value, error, converged).
    """
    tier = cfg.tiers[k]
    segs = intensity.state_segments(tier, state)
    if not segs:
        return 0.0, 0.0, True
    ratios = power_ratios(cfg, k)
    void = _void_exponent(cfg, ratios)

    all_kinks = set(kinks)
    for j, tj in enumerate(cfg.tiers):
        all_kinks.update(bp / ratios[j] for bp in intensity.breakpoints(tj))

    value, err = 0.0, 0.0
    converged = True
    for seg in segs:
        def ev(v: np.ndarray, _seg=seg) -> np.ndarray:
            l = _seg.kappa * v ** (0.5 * _seg.alpha)
            return integrand(l, void(l))

        v_kinks = [(x / seg.kappa) ** (2.0 / seg.alpha)
                   for x in all_kinks if seg.lo_x < x < seg.hi_x]
        # the void factor can decay within a sliver of the annulus; geometric
        # seeding keeps the first adaptive pass from stepping over that sliver
        v_kinks.extend(seg.lo_r2 + (seg.hi_r2 - seg.lo_r2) * _SEEDS)
        res = integrate(ev, (seg.lo_r2, seg.hi_r2), v_kinks,
                        abs_tol=abs_tol / len(segs), rel_tol=rel_tol)
        w = math.pi * tier.density * seg.weight
        value += w * res.value
        err += w * res.error
        converged = converged and res.converged
    return value, err, converged


def association_table(cfg: NetworkConfig, abs_tol: float = ABS_TOL,
                      rel_tol: float = REL_TOL) -> AssociationTable:
    """All joint association probabilities A_{k,s} and the outage probability."""
    joint = np.zeros((cfg.n_tiers, 2))
    err = 0.0
    converged = True
    for k in range(cfg.n_tiers):
        for col, state in enumerate(_STATES):
            value, e, ok = _serving_integral(
                cfg, k, state, lambda l, void: np.exp(-void),
                abs_tol=abs_tol, rel_tol=rel_tol)
            joint[k, col] = value
            err += e
            converged = converged and ok
    return AssociationTable(joint=joint, outage=outage_probability(cfg),
                            error=err, converged=converged)


def association_closed_form_2tier(cfg: NetworkConfig, k: int) -> float:
    """Exact 2-tier association probability for single-ball all-LOS tiers.

    Requires exactly two tiers, one ball each, los_prob 1 and alpha_los 2.
    kappa may differ per tier (it cancels when equal, recovering the familiar
    biased-received-power form).  The loss integral is then piecewise
    exponential with at most one saturation knee and integrates in closed form.
    """
    if cfg.n_tiers != 2:
        raise ValueError("closed form requires exactly 2 tiers")
    for i, t in enumerate(cfg.tiers):
        if len(t.balls) != 1 or t.balls[0].los_prob != 1.0 or t.balls[0].alpha_los != 2.0:
            raise ValueError(f"tiers[{i}]: closed form requires one all-LOS ball "
                             "with alpha_los == 2")
    j = 1 - k
    ratios = power_ratios(cfg, k)
    tk, tj = cfg.tiers[k], cfg.tiers[j]
    kap_k, kap_j = tk.balls[0].kappa_los, tj.balls[0].kappa_los
    rk2, rj2 = tk.outage_radius ** 2, tj.outage_radius ** 2
    # per-unit-loss slopes of the two exponents
    rho_k = math.pi * tk.density / kap_k
    rho_j = math.pi * tj.density * ratios[j] / kap_j
    l_max = kap_k * rk2
    l_sat = kap_j * rj2 / ratios[j]  # loss beyond which tier j is fully counted
    share = rho_k / (rho_k + rho_j)
    if l_max <= l_sat:
        return share * (1.0 - math.exp(-(rho_k + rho_j) * l_max))
    head = share * (1.0 - math.exp(-(rho_k + rho_j) * l_sat))
    tail = math.exp(-math.pi * tj.density * rj2) * (
        math.exp(-rho_k * l_sat) - math.exp(-rho_k * l_max))
    return head + tail


def association_approx(cfg: NetworkConfig, k: int) -> float:
    """Large-radius limit: density-and-power weighted share, outage ignored."""
    pgb = np.array([t.density * t.tx_power * t.serving_gain * t.bias
                    for t in cfg.tiers])
    return float(pgb[k] / pgb.sum())

