"""Seeded workload generator for the hetnetsim benchmark.

Each workload is a list of `hetnet` command lines plus the scenario and
config JSON files they read.  Everything is derived from the seed alone, so
the same seed always yields byte-identical inputs.  The program never sees
the seed itself, only the generated files and arguments.

Grid sizes are fixed; the seed moves parameter values inside ranges chosen
so that the amount of work per pass barely depends on the seed.  That keeps
the run-to-run spread of the timings small while every seed still feeds the
program different numbers.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
# Reserved for confirming a performance claim: do not tune a change against it.
HELD_OUT_SEED = 2

WORKLOADS = ("interference_sweep", "snr_assoc_grid", "mc_drops")

# random networks per tier count in snr_assoc_grid
NETWORKS_PER_K = 6

_BALLS_MMW_PICO = [
    {"radius_m": 40, "los_prob": 1, "alpha_los": 2, "alpha_nlos": 4},
    {"radius_m": 60, "los_prob": 0, "alpha_los": 2, "alpha_nlos": 4}]
_BALLS_MMW_FEMTO = [
    {"radius_m": 20, "los_prob": 1, "alpha_los": 2, "alpha_nlos": 4},
    {"radius_m": 40, "los_prob": 0, "alpha_los": 2, "alpha_nlos": 4}]
_PICO = {"name": "pico", "density_per_m2": 1e-4, "tx_power_dbm": 33,
         "bias_db": 0, "noise_figure_db": 10, "static_power_w": 10,
         "amp_slope": 6, "band": "mmwave", "balls": _BALLS_MMW_PICO}
_FEMTO = {"name": "femto", "density_per_m2": 5e-4, "tx_power_dbm": 23,
          "bias_db": 0, "noise_figure_db": 10, "static_power_w": 5,
          "amp_slope": 8, "band": "mmwave", "balls": _BALLS_MMW_FEMTO}
_COMMON = {"ue_density_per_m2": 1e-3, "bandwidth_hz": 1e9,
           "carrier_hz": 2.8e10,
           "antenna": {"main_db": 10, "side_db": -10, "beamwidth_deg": 30},
           "fading": {"n_los": 3, "n_nlos": 2}}

# The paper's three-tier mmWave network (Table I).
TABLE1 = dict(_COMMON, tiers=[
    {"name": "micro", "density_per_m2": 1e-5, "tx_power_dbm": 53,
     "bias_db": 0, "noise_figure_db": 10, "static_power_w": 130,
     "amp_slope": 4, "band": "mmwave",
     "balls": [{"radius_m": 50, "los_prob": 0.8, "alpha_los": 2,
                "alpha_nlos": 4},
               {"radius_m": 200, "los_prob": 0.2, "alpha_los": 2,
                "alpha_nlos": 4}]},
    _PICO, _FEMTO])

# Table I with the macro tier moved to a 2 GHz microwave band: about 70
# stations inside its 1.5 km outage radius per drop.
HYBRID = dict(_COMMON, mu_antenna={"main_db": 3, "side_db": -3,
                                   "beamwidth_deg": 120}, tiers=[
    {"name": "micro", "density_per_m2": 1e-5, "tx_power_dbm": 53,
     "bias_db": 0, "noise_figure_db": 10, "static_power_w": 130,
     "amp_slope": 4, "band": "microwave", "carrier_hz": 2e9,
     "bandwidth_hz": 2e7,
     "balls": [{"radius_m": 1500, "los_prob": 1, "alpha_los": 2,
                "alpha_nlos": 4}]},
    _PICO, _FEMTO])


@dataclass
class Step:
    """One `hetnet` invocation.

    `args` are the subcommand and its arguments with every input file named
    relative to the work directory; the runner appends `--workers`, and
    `--out` for `run` steps.  `trace` names the per-drop trace file of an
    `mc` step, relative to the pass directory.
    """

    name: str
    args: list[str]
    drops: int = 0          # Monte Carlo drops the step requests
    trace: str | None = None

    @property
    def command(self) -> str:
        return self.args[0]


@dataclass
class Workload:
    name: str
    steps: list[Step]
    files: dict[str, dict] = field(default_factory=dict)

    def write_inputs(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, content in self.files.items():
            (directory / name).write_text(
                json.dumps(content, indent=1, sort_keys=True) + "\n")


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _r(x: float, digits: int = 4) -> float:
    return float(round(float(x), digits))


def interference_sweep(seed: int) -> Workload:
    """SINR-mode runs where the interference kernel does nearly all the work.

    The hybrid 15 and 20 dB thresholds are kept fixed: those rows do not
    converge at the commit that defined this benchmark, and they must keep
    showing until the kernel is fixed.  Every run has two grid points, one
    per pool worker, so which worker runs which point (and so the peak RSS,
    which the 20 dB point sets) does not depend on timing.  The hybrid bias
    stays in [2, 4] dB: above about 4.5 dB the 20 dB point needs 8% more
    memory, which would make the peak RSS depend on the seed.
    """
    rng = _rng(seed, "interference_sweep")
    sigma = _r(rng.uniform(2.0, 8.0), 3)
    beam = {"name": "beam", "experiment": "BEAM_ERROR", "config": "table1.json",
            "grid": {"threshold_db": [_r(rng.uniform(-1.0, 1.0), 3)],
                     "sigma_be_deg": [0, sigma]}}
    rate = {"name": "rate", "experiment": "RATE", "config": "table1.json",
            "grid": {"rate_bps": [_r(1e8 * 10 ** rng.uniform(-0.1, 0.1), 0),
                                  _r(1e9 * 10 ** rng.uniform(-0.1, 0.1), 0)]}}
    hybrid = {"name": "hybrid", "experiment": "HYBRID_BIAS",
              "config": "hybrid.json",
              "grid": {"threshold_db": [15, 20],
                       "bias_db": [_r(rng.uniform(2.0, 4.0), 3)]}}
    files = {"table1.json": copy.deepcopy(TABLE1),
             "hybrid.json": copy.deepcopy(HYBRID),
             "beam.json": beam, "rate.json": rate, "hybrid_bias.json": hybrid}
    steps = [Step("beam", ["run", "beam.json"]),
             Step("rate", ["run", "rate.json"]),
             Step("hybrid", ["run", "hybrid_bias.json"])]
    return Workload("interference_sweep", steps, files)


def random_network(rng: np.random.Generator, n_tiers: int, slot: int,
                   n_slots: int) -> dict:
    """A valid random all-mmWave config in the JSON schema.

    As in the test suite's random configs, path-loss exponents and kappa are
    drawn per tier and shared by its balls; alpha_LOS is drawn across
    [1.8, 2.6] and set to exactly 2 for about a quarter of the tiers, where
    the exponent integrals change form.  The mean station count inside each
    tier's outage radius (which sets its density), the balls per tier and
    the Nakagami orders are not drawn: they step with `slot` across
    [0.1, 100] stations, 1-2 balls and orders 1-4.  They set most of the
    work per network, so fixing them keeps the work per pass steady across
    seeds while every other parameter is random.
    """
    main_db = rng.uniform(3.0, 20.0)
    side_db = main_db - rng.uniform(5.0, 25.0)
    tiers = []
    for k in range(n_tiers):
        n_balls = 1 + (slot + k) % 2
        radii = np.sort(rng.uniform(20.0, 400.0, size=n_balls))
        mass = 10 ** (-1.0 + 3.0 * (slot + (k + 0.5) / n_tiers) / n_slots)
        alpha_los = 2.0 if rng.random() < 0.25 else _r(rng.uniform(1.8, 2.6))
        alpha_nlos = _r(rng.uniform(3.0, 4.5))
        kappa_db = _r(rng.uniform(0.0, 60.0), 3)
        kappa_nlos_db = _r(kappa_db + rng.uniform(0.0, 10.0), 3)
        balls = [{"radius_m": _r(radius, 3), "los_prob": _r(rng.random()),
                  "alpha_los": alpha_los, "alpha_nlos": alpha_nlos,
                  "kappa_los_db": kappa_db, "kappa_nlos_db": kappa_nlos_db}
                 for radius in radii]
        tiers.append({
            "name": f"t{k}",
            "density_per_m2": _r(mass / (np.pi * radii[-1] ** 2), 12),
            "tx_power_dbm": _r(rng.uniform(10.0, 50.0), 3),
            "bias_db": _r(rng.uniform(-10.0, 10.0), 3),
            "noise_figure_db": _r(rng.uniform(0.0, 30.0), 3),
            "static_power_w": 10, "amp_slope": 4, "band": "mmwave",
            "balls": balls})
    return {"ue_density_per_m2": 1e-3, "bandwidth_hz": 1e9,
            "carrier_hz": 2.8e10,
            "antenna": {"main_db": _r(main_db, 3), "side_db": _r(side_db, 3),
                        "beamwidth_deg": _r(rng.uniform(6.0, 280.0), 3)},
            "fading": {"n_los": 1 + slot % 4, "n_nlos": 1 + slot % 3},
            "tiers": tiers}


def snr_assoc_grid(seed: int) -> Workload:
    """Association and noise-limited coverage on random 1-, 2- and 3-tier
    networks: many millisecond-sized jobs and no interference kernel."""
    rng = _rng(seed, "snr_assoc_grid")
    files: dict[str, dict] = {}
    steps = []
    for n_tiers in (1, 2, 3):
        for i in range(NETWORKS_PER_K):
            tag = f"k{n_tiers}n{i}"
            cfg = random_network(rng, n_tiers, i, NETWORKS_PER_K)
            files[f"{tag}.json"] = cfg
            biases = sorted(_r(b, 3) for b in rng.uniform(-10.0, 10.0, 6))
            files[f"{tag}_assoc.json"] = {
                "name": f"{tag}_assoc", "experiment": "ASSOC_VS_BIAS",
                "config": f"{tag}.json", "grid": {"bias_db": biases}}
            side = cfg["antenna"]["side_db"]
            gains = sorted(_r(side + g, 3) for g in rng.uniform(5.0, 25.0, 4))
            thresholds = sorted(_r(t, 3) for t in rng.uniform(-10.0, 20.0, 5))
            files[f"{tag}_gain.json"] = {
                "name": f"{tag}_gain", "experiment": "GAIN_SWEEP",
                "config": f"{tag}.json", "mode": "snr",
                "grid": {"threshold_db": thresholds, "main_gain_db": gains}}
            steps.append(Step(f"{tag}_assoc", ["run", f"{tag}_assoc.json"]))
            steps.append(Step(f"{tag}_gain", ["run", f"{tag}_gain.json"]))
    return Workload("snr_assoc_grid", steps, files)


def mc_drops(seed: int) -> Workload:
    """Drop-simulator runs: the drop kernel does nearly all the work."""
    rng = _rng(seed, "mc_drops")
    mc_seed = int(rng.integers(0, 2**31))
    hyb_th = ",".join(f"{_r(t, 3):g}" for t in sorted(rng.uniform(-10, 20, 3)))
    t1_th = ",".join(f"{_r(t, 3):g}" for t in sorted(rng.uniform(-10, 20, 3)))
    sigma = _r(rng.uniform(1.0, 8.0), 3)
    biases = sorted(_r(b, 3) for b in rng.uniform(0.0, 12.0, 3))
    hyb_drops, t1_drops, assoc_drops = 60_000, 200_000, 20_000
    files = {
        "table1.json": copy.deepcopy(TABLE1),
        "hybrid.json": copy.deepcopy(HYBRID),
        "hybrid_assoc.json": {
            "name": "hybrid_assoc", "experiment": "ASSOC_VS_BIAS",
            "config": "hybrid.json", "grid": {"bias_db": biases},
            "monte_carlo": {"drops": assoc_drops, "seed": mc_seed,
                            "chunks": 4}}}
    steps = [
        Step("mc_hybrid", ["mc", "hybrid.json", "--drops", str(hyb_drops),
                           "--seed", str(mc_seed), "--chunks", "4",
                           f"--thresholds-db={hyb_th}"],
             drops=hyb_drops, trace="mc_hybrid_trace.csv"),
        Step("mc_table1", ["mc", "table1.json", "--drops", str(t1_drops),
                           "--seed", str(mc_seed + 1), "--chunks", "32",
                           "--sigma-be-deg", f"{sigma:g}",
                           f"--thresholds-db={t1_th}"],
             drops=t1_drops),
        # one simulation per (bias, tier) pair: K identical drop sets per bias
        Step("hybrid_assoc", ["run", "hybrid_assoc.json"],
             drops=assoc_drops * len(biases) * len(HYBRID["tiers"])),
    ]
    return Workload("mc_drops", steps, files)


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return globals()[name](seed)
