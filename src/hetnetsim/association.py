"""Biased association probabilities over tiers and link states.

A user attaches to the tier whose best base station maximizes the biased
averaged received power P_k G_k B_k / L.  With each tier's path-loss process a
PPP on the loss axis, the joint probability of associating with tier k through
a state-s link is an integral of that tier's state density against the void
probabilities of every competing tier, scaled by the power/gain/bias ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import intensity
from .model import LinkState, NetworkConfig

_STATES = (LinkState.LOS, LinkState.NLOS)


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


def _association_integrand(cfg: NetworkConfig, k: int, state: LinkState,
                           ratios: np.ndarray):
    tier = cfg.tiers[k]

    def evaluator(l: np.ndarray) -> np.ndarray:
        expo = np.zeros_like(l)
        for j, tj in enumerate(cfg.tiers):
            expo += intensity.lambda_total(tj, ratios[j] * l)
        return intensity.lambda_density(tier, state, l) * np.exp(-expo)

    return evaluator


def _association_breakpoints(cfg: NetworkConfig, k: int, state: LinkState,
                             ratios: np.ndarray, hi: float) -> tuple[float, ...]:
    pts = set(intensity.breakpoints(cfg.tiers[k]))
    for j, tj in enumerate(cfg.tiers):
        pts.update(p / ratios[j] for p in intensity.breakpoints(tj))
    # the void factor can decay within a sliver of the support; geometric
    # seeding keeps the first adaptive pass from stepping over that sliver
    pts.update(hi * np.geomspace(1e-14, 1.0, 29))
    return tuple(sorted(pts))


def association_prob(cfg: NetworkConfig, k: int, state: LinkState,
                     abs_tol: float = 1e-9, rel_tol: float = 1e-7):
    """Joint probability of association with tier k over a state-s link.

    Returns an IntegralResult; its value is the probability mass.
    """
    from .quadrature import integrate_function

    if state is LinkState.OUTAGE:
        raise ValueError("association is undefined with the outage state")
    ratios = power_ratios(cfg, k)
    hi = intensity.max_loss(cfg.tiers[k], state)
    if hi <= 0.0:
        from .quadrature import IntegralResult
        return IntegralResult(0.0, 0.0, True, 0, 0)
    return integrate_function(
        _association_integrand(cfg, k, state, ratios), (0.0, hi),
        _association_breakpoints(cfg, k, state, ratios, hi),
        abs_tol=abs_tol, rel_tol=rel_tol)


def association_table(cfg: NetworkConfig, abs_tol: float = 1e-9,
                      rel_tol: float = 1e-7) -> AssociationTable:
    """All joint association probabilities A_{k,s} and the outage probability."""
    joint = np.zeros((cfg.n_tiers, 2))
    err = 0.0
    converged = True
    for k in range(cfg.n_tiers):
        for col, state in enumerate(_STATES):
            res = association_prob(cfg, k, state, abs_tol=abs_tol, rel_tol=rel_tol)
            joint[k, col] = res.value
            err += res.error
            converged = converged and res.converged
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


def mean_load(cfg: NetworkConfig, k: int,
              table: AssociationTable | None = None) -> float:
    """Mean number of users sharing a tier-k base station, >= 1.

    Uses the standard 1.28 crowding correction on the user-per-station ratio
    weighted by the tier's association probability.
    """
    if table is None:
        table = association_table(cfg)
    a_k = float(table.per_tier[k])
    return 1.0 + 1.28 * cfg.ue_density * a_k / cfg.tiers[k].density
