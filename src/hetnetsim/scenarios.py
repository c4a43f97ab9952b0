"""Named experiments over a network config, emitting CSV curves.

A scenario file bundles a config, an experiment kind, a sweep grid and
optional Monte Carlo settings.  Running one writes a directory containing
one CSV per curve and a manifest.json.  CSV columns are x, analytic,
quad_error, flag and, when simulation is enabled, monte_carlo and
mc_stderr; the flag column is empty for converged points and holds
"nonconverged" otherwise.  CSV bytes depend only on the scenario content
(the wall clock appears only in the manifest), so reruns are
byte-identical.

Grid points are independent.  A run whose curves reach the SINR
interference kernel dispatches its analytic points to a process pool; every
other run (association, noise-limited coverage) takes about a millisecond
per point, less than a pool costs to start, and computes them in this
process.  Monte Carlo drop sets go to the pool either way.  A single writer
puts results back in grid order, so CSV bytes do not depend on the worker
count.  Equal jobs run once: one association table per config, and one
Monte Carlo drop set per (pointing error, config), from which the writer
reduces each curve point's statistic (sinr or snr coverage, association
share, rate coverage).
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from . import association, coverage, metrics, montecarlo
from .model import (ANY, DB, INTEGER, NONNEGATIVE, NUMBER, POSITIVE, TEXT,
                    Band, ConfigError, NetworkConfig, _bundled_raw,
                    _read_json, db_to_linear, network_from_dict, read,
                    validate, with_balls, with_bias, with_density_scale)

_TOLERANCES = {"outer_abs_tol": coverage.OUTER_ABS_TOL,
               "outer_rel_tol": coverage.OUTER_REL_TOL,
               "assoc_abs_tol": association.ABS_TOL,
               "assoc_rel_tol": association.REL_TOL}


class Experiment(enum.Enum):
    SINR_VS_SNR = "SINR_VS_SNR"
    GAIN_SWEEP = "GAIN_SWEEP"
    BALL_PARAMS = "BALL_PARAMS"
    BIAS_SWEEP = "BIAS_SWEEP"
    BEAM_ERROR = "BEAM_ERROR"
    RATE = "RATE"
    ENERGY = "ENERGY"
    ASSOC_VS_BIAS = "ASSOC_VS_BIAS"
    HYBRID_BIAS = "HYBRID_BIAS"
    HYBRID_DENSITY = "HYBRID_DENSITY"


# load_scenario reads config (an object or a path), grid and monte_carlo
_SCENARIO = {"name": TEXT, "experiment": tuple(e.value for e in Experiment),
             "config": ANY, "grid": ANY, "mode?": ("sinr", "snr"),
             "monte_carlo?": ANY, "output_dir?": TEXT, "workers?": INTEGER}
_MONTE_CARLO = {"drops": INTEGER, "seed?": INTEGER, "chunks?": INTEGER}


@dataclass(frozen=True)
class Scenario:
    name: str
    config: NetworkConfig
    experiment: Experiment
    grid: dict[str, Any]
    mode: str = "sinr"
    monte_carlo: montecarlo.SimConfig | None = None
    output_dir: str | None = None
    workers: int = 1
    config_path: str | None = None
    config_raw: dict | None = None


@dataclass(frozen=True)
class ScenarioResult:
    output_dir: Path
    files: tuple[str, ...]
    manifest_path: Path
    flagged: bool          # True when any analytic point failed to converge
    wall_time_s: float


def _read_grid(experiment: Experiment, grid) -> dict:
    """The grid, read against its experiment's kind."""
    return read(_EXPERIMENTS[experiment][0], grid, "grid",
                name=f"{experiment.value} grid")


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario JSON file, resolving its config reference.

    The config entry may be an inline object, a path relative to the
    scenario file, or "bundled:<name>" for a packaged config.
    """
    path = Path(path)
    raw = read(_SCENARIO, _read_json(path), "", name="scenario")
    experiment = Experiment(raw["experiment"])

    source = config_raw = raw["config"]  # an object, or a path to one
    config_path = None
    if isinstance(source, str) and source.startswith("bundled:"):
        config_path, config_raw = source, _bundled_raw(source.split(":", 1)[1])
    elif isinstance(source, str):
        config_path = str((path.parent / source).resolve())
        config_raw = _read_json(config_path)
    cfg = network_from_dict(config_raw)
    _read_grid(experiment, raw["grid"])

    mc = None
    if raw.get("monte_carlo") is not None:
        # its keys read "monte_carlo: drops", as SimConfig's range errors do
        mc_raw = read(_MONTE_CARLO, raw["monte_carlo"], "monte_carlo",
                      sep=": ")
        try:
            mc = montecarlo.SimConfig(drops=mc_raw["drops"],
                                      seed=mc_raw.get("seed", 0),
                                      parallel_chunks=mc_raw.get("chunks", 1))
        except ValueError as exc:
            raise ConfigError(f"monte_carlo: {exc}") from exc
    return Scenario(name=raw["name"], config=cfg, experiment=experiment,
                    grid=raw["grid"], mode=raw.get("mode", "sinr"),
                    monte_carlo=mc, output_dir=raw.get("output_dir"),
                    workers=raw.get("workers", 1),
                    config_path=config_path, config_raw=config_raw)


# ---------------------------------------------------------------------------
# curves and jobs (jobs are tuples of module-level types, so they pickle into
# worker processes)

@dataclass(frozen=True)
class _Metric:
    """What every point of one curve computes, in sinr_coverage's modes."""

    kind: str                 # coverage, beam, rate, ee or assoc
    mode: str                 # sinr or snr
    sigma: float = 0.0        # beam pointing error, radians


@dataclass(frozen=True)
class _Curve:
    filename: str
    metric: _Metric
    points: list[tuple[float, NetworkConfig, Any]]  # (CSV x, config, argument)
    tier: int = 0             # the tier an association curve reads
    loads: tuple[float, ...] | None = None  # a rate curve's mean loads


def _metric(scn: Scenario, kind: str, mode: str | None = None, *,
            sigma: float = 0.0) -> _Metric:
    """The metric of one curve, in the scenario's mode unless `mode` is given.

    Every metric takes every mode.  Monte Carlo for energy efficiency, which
    has no empirical estimator, is refused before anything runs.
    """
    if kind == "ee" and scn.monte_carlo is not None:
        raise ConfigError(
            "ENERGY has no Monte Carlo estimator; remove monte_carlo")
    return _Metric(kind, mode or scn.mode, sigma)


def _eval_analytic(job: tuple) -> tuple[Any, float, bool]:
    """Evaluate one analytic grid point; returns (value, error, converged).

    An association point's value is the per-tier vector, which every
    association curve of the config shares.  A rate point's argument is its
    row of per-tier equivalent thresholds, so it is a coverage point.
    """
    metric, cfg, x = job
    if metric.kind == "assoc":
        table = association.association_table(cfg)
        return (tuple(map(float, table.per_tier)), float(table.error),
                bool(table.converged))
    if metric.kind == "ee":
        report = metrics.energy_efficiency(cfg, x, mode=metric.mode)
        return report.energy_efficiency, report.error, report.converged
    if metric.kind == "beam":
        curve = coverage.coverage_with_beam_error(
            cfg, [x], sigma_be_rad=metric.sigma, mode=metric.mode)
    else:
        curve = coverage.sinr_coverage(cfg, [x], mode=metric.mode)
    return (float(curve.probability[0]), float(curve.error[0]),
            bool(curve.converged[0]))


def _eval_mc(job: tuple) -> montecarlo.DropBatch:
    """Simulate the drop set of one (pointing error, config) job."""
    sigma, cfg, sim = job
    return montecarlo.simulate(cfg, sim, sigma_be_rad=sigma)


def _mc_estimate(curve: _Curve, cfg: NetworkConfig, x: float, arg: Any,
                 batch: montecarlo.DropBatch) -> tuple[float, float]:
    """(value, stderr) of one curve point's statistic on its drop set.

    An association point reads its curve's tier share, a rate point the
    rate itself, the CSV x, under the curve's mean loads, and every other
    point its threshold.  Both read the statistic of the curve's mode.
    """
    if curve.metric.kind == "assoc":
        share, se = montecarlo.empirical_tier_share(cfg, batch)
        return share[curve.tier], se[curve.tier]
    if curve.metric.kind == "rate":
        probs, ses = montecarlo.empirical_rate_coverage(
            cfg, batch, [x], curve.loads, mode=curve.metric.mode)
    else:
        probs, ses = montecarlo.empirical_coverage(batch, [arg],
                                                   mode=curve.metric.mode)
    return probs[0], ses[0]


def _tag(value: float) -> str:
    """Compact token for filenames: -5 -> m5, 0.5 -> 0p5, 1e20 -> 1ep20."""
    if float(value) == int(value) and abs(value) < 1e16:
        text = str(int(value))
    else:
        text = repr(float(value))
    return text.replace("-", "m").replace(".", "p")


def _band_tiers(scn: Scenario, band: Band) -> list[int]:
    if not scn.config.is_hybrid:
        raise ConfigError(f"{scn.experiment.value} requires a hybrid config")
    return [i for i, t in enumerate(scn.config.tiers) if t.band is band]


# ---------------------------------------------------------------------------
# experiments: each builds its curves from the grid as read; six sweep
# threshold_db per config and four build one config per x

def _threshold_curves(grid: dict, curves: list[tuple]) -> list[_Curve]:
    """One curve over grid.threshold_db per (filename, config, metric)."""
    return [_Curve(name, metric, [(t, cfg, db_to_linear(t))
                                  for t in grid["threshold_db"]])
            for name, cfg, metric in curves]


def _swept(key: str, values, build: Callable) -> list[tuple]:
    """(value, build(value)) for each of the values of grid.<key>: every
    config is built, and so validated, before a filename tag formats a value,
    and a ConfigError names the value that made it invalid."""
    swept = []
    for value in values:
        try:
            swept.append((value, build(value)))
        except ConfigError as exc:
            raise ConfigError(f"grid.{key} {value!r}: {exc}") from None
    return swept


def _bias_curves(grid: dict, base: NetworkConfig, tiers: list[int],
                 curves: list[tuple]) -> list[_Curve]:
    """One curve over grid.bias_db per (filename, metric, argument[, tier]).

    The config at each bias is `base` with `tiers` biased by it.
    """
    biases = grid["bias_db"]
    configs = [with_bias(base, {i: db_to_linear(b) for i in tiers})
               for b in biases]
    return [_Curve(name, metric, [(b, cfg, arg)
                                  for b, cfg in zip(biases, configs)], *tier)
            for name, metric, arg, *tier in curves]


def _assoc_curves(scn: Scenario, suffix: str) -> list[tuple]:
    tiers = scn.config.tiers
    return [(f"assoc_{t.name or f'tier{k}'}{suffix}.csv",
             _metric(scn, "assoc"), None, k) for k, t in enumerate(tiers)]


def _sinr_vs_snr(scn: Scenario, grid: dict) -> list[_Curve]:
    counts = grid.get("tier_counts", range(1, scn.config.n_tiers + 1))
    return _threshold_curves(grid, [
        (f"{mode}_tiers{n}.csv", cfg, _metric(scn, "coverage", mode))
        for n, cfg in _swept("tier_counts", counts, lambda n: scn.config.subset(
            tuple(range(read(INTEGER, n, "grid.tier_counts")))))
        for mode in ("sinr", "snr")])


def _gain_sweep(scn: Scenario, grid: dict) -> list[_Curve]:
    cfg = scn.config
    return _threshold_curves(grid, [
        (f"cov_gain{_tag(g)}db.csv", c, _metric(scn, "coverage"))
        for g, c in _swept("main_gain_db", grid["main_gain_db"], lambda g:
                           validate(replace(cfg, pattern=replace(
                               cfg.pattern, main_gain=db_to_linear(g)))))])


def _ball_params(scn: Scenario, grid: dict) -> list[_Curve]:
    return _threshold_curves(grid, [
        (f"cov_{v['name']}.csv", c, _metric(scn, "coverage"))
        for v, c in _swept("variants", grid["variants"], lambda v: with_balls(
            scn.config, read(INTEGER, v.get("tier", 0), "grid.variants.tier"),
            v["radii"], v["los_prob"]))])


def _beam_error(scn: Scenario, grid: dict) -> list[_Curve]:
    return _threshold_curves(grid, [
        (f"cov_sigma{_tag(s)}deg.csv", scn.config,
         _metric(scn, "beam", sigma=math.radians(s)))
        for s in grid["sigma_be_deg"]])


def _hybrid_bias(scn: Scenario, grid: dict) -> list[_Curve]:
    mm = _band_tiers(scn, Band.MMWAVE)
    return _threshold_curves(grid, [
        (f"cov_bias{_tag(b)}db.csv", c, _metric(scn, "coverage"))
        for b, c in _swept("bias_db", grid["bias_db"], lambda b: with_bias(
            scn.config, {i: db_to_linear(b) for i in mm}))])


def _hybrid_density(scn: Scenario, grid: dict) -> list[_Curve]:
    micro = _band_tiers(scn, Band.MICROWAVE)[0]
    return _threshold_curves(grid, [
        (f"cov_density{_tag(m)}x.csv", c, _metric(scn, "coverage"))
        for m, c in _swept("density_mult", grid["density_mult"],
                           lambda m: with_density_scale(scn.config, {micro: m}))])


def _bias_sweep(scn: Scenario, grid: dict) -> list[_Curve]:
    threshold = db_to_linear(grid.get("threshold_db", 0.0))
    tiers = [read(INTEGER, i, "grid.tiers")
             for i in grid.get("tiers", range(1, scn.config.n_tiers))]
    return _bias_curves(grid, scn.config, tiers, [
        ("coverage_vs_bias.csv", _metric(scn, "coverage"), threshold)]
        + _assoc_curves(scn, "_vs_bias"))


def _assoc_vs_bias(scn: Scenario, grid: dict) -> list[_Curve]:
    tier = read(INTEGER, grid.get("tier", scn.config.n_tiers - 1), "grid.tier")
    return _bias_curves(grid, scn.config, [tier], _assoc_curves(scn, ""))


def _energy(scn: Scenario, grid: dict) -> list[_Curve]:
    threshold = db_to_linear(grid.get("threshold_db", 0.0))
    tier = read(INTEGER, grid.get("tier", scn.config.n_tiers - 1), "grid.tier")
    metric = _metric(scn, "ee")
    variants = [{"name": "base"}] + grid.get("variants", [])
    return [curve for var, base in _swept(
        "variants", variants, lambda v: with_density_scale(
            scn.config, v.get("density_scale", {})))
        for curve in _bias_curves(grid, base, [tier], [
            (f"ee_{var['name']}.csv", metric, threshold)])]


def _rate(scn: Scenario, grid: dict) -> list[_Curve]:
    """One curve whose points carry their per-tier equivalent thresholds.

    The mean loads, and with them the association table, are computed once
    for the curve, not once per rate; the curve carries them to its Monte
    Carlo job.
    """
    metric = _metric(scn, "rate")
    rates = grid["rate_bps"]
    loads = metrics.mean_loads(scn.config)
    thresholds = metrics.equivalent_thresholds(scn.config, rates, loads)
    return [_Curve("rate_coverage.csv", metric,
                   [(r, scn.config, tuple(map(float, row)))
                    for r, row in zip(rates, thresholds)],
                   loads=tuple(map(float, loads)))]


_SWEEP = [NUMBER]  # each value is checked in the config it builds

# experiment: (grid kind, curve builder).  The builder reads tier indices
# (tier, tiers, tier_counts, a variant's tier) against the network.
_EXPERIMENTS = {
    Experiment.SINR_VS_SNR: (
        {"threshold_db": [DB], "tier_counts?": [ANY]}, _sinr_vs_snr),
    Experiment.GAIN_SWEEP: (
        {"threshold_db": [DB], "main_gain_db": _SWEEP}, _gain_sweep),
    Experiment.BALL_PARAMS: ({"threshold_db": [DB], "variants": [{
        "name": TEXT, "radii": _SWEEP, "los_prob": _SWEEP, "tier?": ANY}]},
        _ball_params),
    Experiment.BIAS_SWEEP: (
        {"bias_db": _SWEEP, "tiers?": [ANY], "threshold_db?": DB}, _bias_sweep),
    Experiment.BEAM_ERROR: (
        {"threshold_db": [DB], "sigma_be_deg": [NONNEGATIVE]}, _beam_error),
    Experiment.RATE: ({"rate_bps": [POSITIVE]}, _rate),
    Experiment.ENERGY: ({"bias_db": _SWEEP, "tier?": ANY, "threshold_db?": DB,
                         "variants?": [{"name": TEXT,
                                        "density_scale?": {int: NUMBER}}]},
                        _energy),
    Experiment.ASSOC_VS_BIAS: (
        {"bias_db": _SWEEP, "tier?": ANY}, _assoc_vs_bias),
    Experiment.HYBRID_BIAS: (
        {"threshold_db": [DB], "bias_db": _SWEEP}, _hybrid_bias),
    Experiment.HYBRID_DENSITY: (
        {"threshold_db": [DB], "density_mult": _SWEEP}, _hybrid_density),
}


# ---------------------------------------------------------------------------
# running and writing

def _pmap(fn: Callable, items: list, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def _reaches_kernel(metric: _Metric) -> bool:
    """Whether a metric's points evaluate the SINR interference kernel."""
    return metric.mode == "sinr" and metric.kind != "assoc"


def _run_jobs(fn: Callable, per_curve: list[list], workers: int) -> list[list]:
    """Evaluate each distinct job once, in one pool when workers > 1; results
    per curve.

    Jobs are hashable tuples, so equal jobs of different curves or points
    (one config's association table, one config's drop set under one
    pointing error) share one evaluation.  run_scenario passes its workers
    to the analytic jobs only when some curve reaches the interference
    kernel (50-150 ms a job); association and noise-limited jobs take about
    a millisecond, less than starting the pool and warming its workers, so
    they get 1 and run here.  Monte Carlo jobs always get the workers.
    """
    unique = list(dict.fromkeys(job for jobs in per_curve for job in jobs))
    results = dict(zip(unique, _pmap(fn, unique, workers)))
    return [[results[job] for job in jobs] for jobs in per_curve]


def _format(value: float) -> str:
    return f"{float(value):.12g}"


def _write_curve(path: Path, curve: _Curve, analytic: list[tuple],
                 batches: list[montecarlo.DropBatch]) -> None:
    header = "x,analytic,quad_error,flag"
    if batches:
        header += ",monte_carlo,mc_stderr"
    lines = [header]
    for i, (x, cfg, arg) in enumerate(curve.points):
        value, err, ok = analytic[i]
        if curve.metric.kind == "assoc":
            value = value[curve.tier]
        row = [_format(x), _format(value), _format(err),
               "" if ok else "nonconverged"]
        if batches:
            row += map(_format, _mc_estimate(curve, cfg, x, arg, batches[i]))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _config_sha256(raw: dict | None) -> str:
    canon = json.dumps(raw or {}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def run_scenario(scn: Scenario, output_dir: str | Path | None = None,
                 workers: int | None = None) -> ScenarioResult:
    """Execute a scenario and write its CSV curves plus manifest.json.

    Raises ConfigError before creating any output when the grid is invalid.
    Quadrature failures do not abort the run; they are flagged per row and
    reported through ScenarioResult.flagged.
    """
    t0 = time.perf_counter()
    grid = _read_grid(scn.experiment, scn.grid)
    curves = _EXPERIMENTS[scn.experiment][1](scn, grid)
    n_workers = workers if workers is not None else scn.workers

    analytic = _run_jobs(
        _eval_analytic,
        [[(c.metric, cfg, arg) for _, cfg, arg in c.points] for c in curves],
        n_workers if any(_reaches_kernel(c.metric) for c in curves) else 1)
    sim = scn.monte_carlo
    mc = _run_jobs(
        _eval_mc,
        [[(c.metric.sigma, cfg, sim) for _, cfg, _ in c.points] if sim else []
         for c in curves], n_workers)

    out = Path(output_dir) if output_dir is not None else Path(
        scn.output_dir if scn.output_dir else f"out_{scn.name}")
    out.mkdir(parents=True, exist_ok=True)
    for curve, values, mc_values in zip(curves, analytic, mc):
        _write_curve(out / curve.filename, curve, values, mc_values)

    n_flagged = sum(not ok for values in analytic for (_, _, ok) in values)
    wall = time.perf_counter() - t0
    manifest = {
        "scenario": scn.name,
        "experiment": scn.experiment.value,
        "mode": scn.mode,
        "config_sha256": _config_sha256(scn.config_raw),
        "config_path": scn.config_path,
        "grid": scn.grid,
        "monte_carlo": None if scn.monte_carlo is None else {
            "drops": scn.monte_carlo.drops, "seed": scn.monte_carlo.seed,
            "chunks": scn.monte_carlo.parallel_chunks},
        "tolerances": _TOLERANCES,
        "flagged_points": int(n_flagged),
        "files": sorted(curve.filename for curve in curves),
        "wall_time_s": round(wall, 3),
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")
    return ScenarioResult(output_dir=out,
                          files=tuple(sorted(c.filename for c in curves)),
                          manifest_path=manifest_path, flagged=n_flagged > 0,
                          wall_time_s=wall)
