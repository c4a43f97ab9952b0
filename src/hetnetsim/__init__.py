"""Coverage, rate and energy analysis for multi-tier mmWave networks.

Analytic results come from numerical integration of the tier path-loss
measures; the montecarlo module provides an independent drop simulator
used to validate them.
"""

from .association import (AssociationTable, association_approx,
                          association_closed_form_2tier, association_table,
                          outage_probability)
from .coverage import (CoverageCurve, alignment_probability,
                       coverage_with_beam_error, sinr_coverage,
                       snr_coverage_closed_form)
from .intensity import (breakpoints, lambda_density, lambda_split,
                        lambda_total, max_loss, total_mass)
from .metrics import (EnergyReport, energy_efficiency, equivalent_thresholds,
                      mean_loads, rate_coverage)
from .model import (AntennaPattern, BallSpec, Band, ConfigError, FadingConfig,
                    LinkState, NetworkConfig, TierConfig, bundled_config,
                    db_to_linear, dbm_to_watts, friis_kappa, linear_to_db,
                    load_config, network_from_dict, noise_power_w, validate,
                    watts_to_dbm, with_balls, with_bias, with_density_scale)
from .montecarlo import (DropBatch, SimConfig, empirical_association,
                         empirical_coverage, empirical_rate_coverage, simulate)
from .quadrature import integrate
from .scenarios import Experiment, Scenario, ScenarioResult, load_scenario, \
    run_scenario

__version__ = "0.1.0"

__all__ = [
    "AntennaPattern", "AssociationTable", "BallSpec", "Band",
    "ConfigError", "CoverageCurve", "DropBatch", "EnergyReport",
    "Experiment", "FadingConfig", "LinkState", "NetworkConfig", "Scenario",
    "ScenarioResult", "SimConfig", "TierConfig", "alignment_probability",
    "association_approx", "association_closed_form_2tier",
    "association_table", "breakpoints", "bundled_config",
    "coverage_with_beam_error", "db_to_linear", "dbm_to_watts",
    "empirical_association", "empirical_coverage",
    "empirical_rate_coverage", "energy_efficiency",
    "equivalent_thresholds", "friis_kappa", "integrate",
    "lambda_density", "lambda_split", "lambda_total",
    "linear_to_db", "load_config", "load_scenario", "max_loss",
    "mean_loads", "network_from_dict", "noise_power_w",
    "outage_probability", "rate_coverage", "run_scenario", "simulate",
    "sinr_coverage", "snr_coverage_closed_form",
    "total_mass", "validate", "watts_to_dbm", "with_balls", "with_bias",
    "with_density_scale",
]
