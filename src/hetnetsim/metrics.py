"""Rate coverage, area spectral efficiency and energy efficiency.

Rate statistics reuse the SINR machinery through per-tier equivalent
thresholds: a rate target rho on a tier carrying mean load N_k demands
SINR > 2**(rho * N_k / W) - 1.  Efficiency metrics weight the per-tier
conditional coverage by density and the linear amplifier power model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .association import AssociationTable, association_table
from .coverage import CoverageCurve, sinr_coverage
from .model import NetworkConfig

# largest exponent keeping 2**x - 1 finite in double precision
_MAX_LOG2_THRESHOLD = 969.0


def mean_loads(cfg: NetworkConfig,
               table: AssociationTable | None = None) -> np.ndarray:
    """Mean number of users sharing a base station of each tier, >= 1.

    Uses the standard 1.28 crowding correction on the user-per-station ratio
    weighted by the tier's association probability.
    """
    if table is None:
        table = association_table(cfg)
    density = np.array([t.density for t in cfg.tiers])
    return 1.0 + 1.28 * cfg.ue_density * table.per_tier / density


def equivalent_thresholds(cfg: NetworkConfig, rates,
                          loads: np.ndarray) -> np.ndarray:
    """Per-tier SINR thresholds delivering the rate grid under the mean loads."""
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    if np.any(rates <= 0.0):
        raise ValueError("rate thresholds must be positive (bit/s)")
    expo = rates[:, None] * loads[None, :] / cfg.bandwidth
    return np.exp2(np.minimum(expo, _MAX_LOG2_THRESHOLD)) - 1.0


def rate_coverage(cfg: NetworkConfig, rates, *, mode: str = "sinr",
                  assoc: AssociationTable | None = None,
                  **kwargs) -> CoverageCurve:
    """P(rate > rho) over a grid of rate targets in bit/s."""
    loads = mean_loads(cfg, assoc)
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    thresholds = equivalent_thresholds(cfg, rates, loads)
    curve = sinr_coverage(cfg, thresholds, mode=mode, **kwargs)
    meta = dict(curve.meta)
    meta.update({"rates_bps": rates, "mean_loads": loads,
                 "equivalent_thresholds": thresholds})
    return CoverageCurve(
        x=rates, probability=curve.probability, joint=curve.joint,
        error=curve.error, converged=curve.converged,
        mode=curve.mode, exclusion_zone=curve.exclusion_zone, meta=meta)


@dataclass(frozen=True)
class EnergyReport:
    """Per-tier area spectral efficiency against the area power draw."""

    thresholds: np.ndarray        # linear, per tier
    ase_per_tier: np.ndarray      # bit/s/Hz per m^2
    power_per_tier: np.ndarray    # W per m^2
    coverage_per_tier: np.ndarray  # conditional coverage at the thresholds
    error: float = 0.0            # quadrature error of the coverage term
    converged: bool = True

    @property
    def total_ase(self) -> float:
        return float(self.ase_per_tier.sum())

    @property
    def total_power(self) -> float:
        return float(self.power_per_tier.sum())

    @property
    def energy_efficiency(self) -> float:
        return self.total_ase / self.total_power


def area_power(cfg: NetworkConfig) -> np.ndarray:
    """lambda_k * (P_static + slope * P_tx) for each tier, watts per m^2."""
    return np.array([t.density * (t.static_power + t.amp_slope * t.tx_power)
                     for t in cfg.tiers])


def energy_efficiency(cfg: NetworkConfig, thresholds=1.0, *,
                      mode: str = "sinr",
                      assoc: AssociationTable | None = None,
                      **kwargs) -> EnergyReport:
    """Area spectral efficiency per consumed watt at per-tier SINR targets.

    thresholds: scalar applied to every tier or a length-K vector (linear).
    """
    thr = np.asarray(thresholds, dtype=float)
    if thr.ndim == 0:
        thr = np.full(cfg.n_tiers, float(thr))
    if thr.shape != (cfg.n_tiers,):
        raise ValueError("thresholds must be a scalar or length-K vector")
    if assoc is None:
        assoc = association_table(cfg)
    curve = sinr_coverage(cfg, thr[None, :], mode=mode, **kwargs)
    cond = np.array([curve.conditional(k, assoc)[0]
                     for k in range(cfg.n_tiers)])
    dens = np.array([t.density for t in cfg.tiers])
    ase = dens * cond * np.log2(1.0 + thr)
    return EnergyReport(thresholds=thr, ase_per_tier=ase,
                        power_per_tier=area_power(cfg),
                        coverage_per_tier=cond,
                        error=float(curve.error[0]),
                        converged=bool(curve.converged[0]))
