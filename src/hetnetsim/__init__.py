"""Coverage, rate and energy analysis for multi-tier mmWave networks.

Analytic results come from numerical integration of the tier path-loss
measures; the montecarlo module provides an independent drop simulator
used to validate them.
"""

from .association import (AssociationTable, association_table,
                          outage_probability)
from .coverage import (CoverageCurve, alignment_probability,
                       coverage_with_beam_error, sinr_coverage)
from .intensity import breakpoints, total_mass
from .metrics import (EnergyReport, energy_efficiency, equivalent_thresholds,
                      mean_loads, rate_coverage)
from .model import (AntennaPattern, BallSpec, Band, ConfigError, FadingConfig,
                    LinkState, NetworkConfig, TierConfig, bundled_config,
                    db_to_linear, dbm_to_watts, friis_kappa, load_config,
                    network_from_dict, noise_power_w, validate, with_balls,
                    with_bias, with_density_scale)
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
    "association_table", "breakpoints", "bundled_config",
    "coverage_with_beam_error", "db_to_linear", "dbm_to_watts",
    "empirical_association", "empirical_coverage",
    "empirical_rate_coverage", "energy_efficiency",
    "equivalent_thresholds", "friis_kappa", "integrate", "load_config",
    "load_scenario", "mean_loads", "network_from_dict", "noise_power_w",
    "outage_probability", "rate_coverage", "run_scenario", "simulate",
    "sinr_coverage", "total_mass", "validate", "with_balls", "with_bias",
    "with_density_scale",
]
