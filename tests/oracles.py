"""Reference implementations the tests hold the library to; the library
never calls them."""

from __future__ import annotations

import math

import numpy as np

from hetnetsim import coverage
from hetnetsim.association import power_ratios
from hetnetsim.intensity import state_segments
from hetnetsim.model import LinkState, NetworkConfig, TierConfig


def lambda_split(tier: TierConfig, state: LinkState, x) -> np.ndarray | float:
    """Lambda_{k,s}([0, x)), one tier at a time: mean number of state-s BSs
    with path loss below x."""
    xa = np.asarray(x, dtype=float)
    out = np.zeros_like(xa)
    for s in state_segments(tier, state):
        r2 = np.clip((np.maximum(xa, 0.0) / s.kappa) ** (2.0 / s.alpha), s.lo_r2, s.hi_r2)
        out = out + s.weight * (r2 - s.lo_r2)
    out = math.pi * tier.density * out
    return out if np.ndim(x) else float(out)


def lambda_total(tier: TierConfig, x) -> np.ndarray | float:
    """Lambda_k([0, x)): both-states mean count with path loss below x."""
    return lambda_split(tier, LinkState.LOS, x) + lambda_split(tier, LinkState.NLOS, x)


def lambda_density(tier: TierConfig, state: LinkState, x) -> np.ndarray | float:
    """dLambda_{k,s}/dx: 2 pi lambda w (x/kappa)^(2/alpha - 1) / (alpha kappa)
    on each active segment, closed at its inner edge and open at its outer."""
    xa = np.asarray(x, dtype=float)
    out = np.zeros_like(xa)
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in state_segments(tier, state):
            inside = (xa >= s.lo_x) & (xa < s.hi_x) & (xa > 0.0)
            out = out + np.where(inside, 2.0 * math.pi * tier.density * s.weight
                                 / (s.alpha * s.kappa)
                                 * (xa / s.kappa) ** (2.0 / s.alpha - 1.0), 0.0)
    return out if np.ndim(x) else float(out)


def association_closed_form_2tier(cfg: NetworkConfig, k: int) -> float:
    """Exact 2-tier association for one all-LOS ball per tier with alpha 2:
    the loss integral is piecewise exponential with at most one knee."""
    if cfg.n_tiers != 2:
        raise ValueError("closed form requires exactly 2 tiers")
    for i, t in enumerate(cfg.tiers):
        if len(t.balls) != 1 or t.balls[0].los_prob != 1.0 or t.balls[0].alpha_los != 2.0:
            raise ValueError(f"tiers[{i}]: closed form requires one all-LOS ball "
                             "with alpha_los == 2")
    j = 1 - k
    tk, tj = cfg.tiers[k], cfg.tiers[j]
    ratio = (tj.tx_power * cfg.serving_gain(j) * tj.bias
             / (tk.tx_power * cfg.serving_gain(k) * tk.bias))
    kap_k, kap_j = tk.balls[0].kappa_los, tj.balls[0].kappa_los
    rk2, rj2 = tk.outage_radius ** 2, tj.outage_radius ** 2
    # per-unit-loss slopes of the two exponents
    rho_k = math.pi * tk.density / kap_k
    rho_j = math.pi * tj.density * ratio / kap_j
    l_max = kap_k * rk2
    l_sat = kap_j * rj2 / ratio  # loss beyond which tier j is fully counted
    share = rho_k / (rho_k + rho_j)
    if l_max <= l_sat:
        return share * (1.0 - math.exp(-(rho_k + rho_j) * l_max))
    head = share * (1.0 - math.exp(-(rho_k + rho_j) * l_sat))
    tail = math.exp(-math.pi * tj.density * rj2) * (
        math.exp(-rho_k * l_sat) - math.exp(-rho_k * l_max))
    return head + tail


def association_approx(cfg: NetworkConfig, k: int) -> float:
    """Large-radius limit: density-and-power weighted share, outage ignored."""
    pgb = np.array([t.density * t.tx_power * cfg.serving_gain(j) * t.bias
                    for j, t in enumerate(cfg.tiers)])
    return float(pgb[k] / pgb.sum())


def interference_term(cfg: NetworkConfig, j: int, s_int: LinkState, k: int,
                      n: int, gamma: float, l: float) -> float:
    """coverage._interference_batch at one serving loss l and one n."""
    return float(coverage._interference_batch(
        cfg, k, j, s_int, float(gamma), np.array([float(l)]), np.array([n]),
        cfg.serving_gain(k), power_ratios(cfg, k)[j])[0, 0])


def quadrature_coverage(cfg: NetworkConfig, gammas):
    """SNR coverage at linear thresholds by adaptive quadrature alone, summed
    as sinr_coverage sums its terms: (probability, error, converged)."""
    gammas = np.asarray(gammas, dtype=float)
    joint = np.zeros((gammas.size, cfg.n_tiers, 2))
    errs = np.zeros(gammas.size)
    conv = np.ones(gammas.size, dtype=bool)
    for i, gamma in enumerate(gammas):
        for k in range(cfg.n_tiers):
            ratios = power_ratios(cfg, k)
            for col, state in enumerate((LinkState.LOS, LinkState.NLOS)):
                v, e, ok = coverage._term(cfg, k, state, gamma, "snr", ratios)
                joint[i, k, col] = v
                errs[i] += e
                conv[i] = conv[i] and ok
    return joint.sum(axis=(1, 2)), errs, conv
