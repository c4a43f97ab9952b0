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
from .model import (Band, ConfigError, NetworkConfig, _bundled_raw,
                    db_to_linear, network_from_dict, validate, with_balls,
                    with_bias, with_density_scale)

_TOLERANCES = {"outer_abs_tol": coverage.OUTER_ABS_TOL,
               "outer_rel_tol": coverage.OUTER_REL_TOL,
               "assoc_abs_tol": association.ABS_TOL,
               "assoc_rel_tol": association.REL_TOL}

_SCENARIO_KEYS = ("name", "experiment", "config", "grid", "mode",
                  "monte_carlo", "output_dir", "workers")


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


def _as_list(grid: dict, key: str) -> list:
    value = grid[key]
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError(f"grid.{key} must be a non-empty list")
    return list(value)


def _as_int(key: str, value: Any) -> int:
    """value, which scenario key `key` holds and must be a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _check_keys(where: str, raw: dict, known) -> None:
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {', '.join(unknown)}")


def _validate_grid(experiment: Experiment, grid: dict) -> None:
    required, optional, _ = _EXPERIMENTS[experiment]
    missing = [k for k in required if k not in grid]
    if missing:
        raise ConfigError(
            f"{experiment.value} grid is missing keys: {', '.join(missing)}")
    _check_keys(f"{experiment.value} grid", grid, required + optional)
    for key in required:
        _as_list(grid, key)
    for key in ("tiers", "tier_counts", "variants"):
        if not isinstance(grid.get(key, ()), (list, tuple)):
            raise ConfigError(f"grid.{key} must be a list, got {grid[key]!r}")
    needs = (("name", "radii", "los_prob")
             if experiment is Experiment.BALL_PARAMS else ("name",))
    for var in grid.get("variants", ()):
        if not isinstance(var, dict) or any(k not in var for k in needs):
            raise ConfigError(f"grid.variants entries must be objects with "
                              f"{', '.join(needs)}, got {var!r}")
    for sigma in grid.get("sigma_be_deg", ()):
        try:
            ok = math.isfinite(float(sigma)) and float(sigma) >= 0.0
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ConfigError(
                f"grid.sigma_be_deg must be finite and >= 0, got {sigma!r}")


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario JSON file, resolving its config reference.

    The config entry may be an inline object, a path relative to the
    scenario file, or "bundled:<name>" for a packaged config.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must contain a JSON object")
    for key in ("name", "experiment", "config", "grid"):
        if key not in raw:
            raise ConfigError(f"scenario is missing required key '{key}'")
    _check_keys("scenario", raw, _SCENARIO_KEYS)
    try:
        experiment = Experiment(str(raw["experiment"]))
    except ValueError:
        names = ", ".join(e.value for e in Experiment)
        raise ConfigError(
            f"unknown experiment '{raw['experiment']}' (expected one of {names})")

    source = raw["config"]
    config_path = None
    if isinstance(source, dict):
        config_raw = source
    elif isinstance(source, str) and source.startswith("bundled:"):
        config_path = source
        config_raw = _bundled_raw(source.split(":", 1)[1])
    elif isinstance(source, str):
        config_path = str((path.parent / source).resolve())
        try:
            config_raw = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    else:
        raise ConfigError("scenario config must be an object or a path string")
    cfg = network_from_dict(config_raw)

    grid = raw["grid"]
    if not isinstance(grid, dict):
        raise ConfigError("scenario grid must be an object")
    _validate_grid(experiment, grid)

    mc = None
    if raw.get("monte_carlo") is not None:
        mc_raw = raw["monte_carlo"]
        if not isinstance(mc_raw, dict) or "drops" not in mc_raw:
            raise ConfigError("monte_carlo must be an object with 'drops'")
        _check_keys("monte_carlo", mc_raw, ("drops", "seed", "chunks"))
        try:
            mc = montecarlo.SimConfig(
                drops=_as_int("drops", mc_raw["drops"]),
                seed=_as_int("seed", mc_raw.get("seed", 0)),
                parallel_chunks=_as_int("chunks", mc_raw.get("chunks", 1)))
        except ValueError as exc:
            raise ConfigError(f"monte_carlo: {exc}") from exc
    mode = str(raw.get("mode", "sinr"))
    if mode not in ("sinr", "snr"):
        raise ConfigError(f"unknown mode '{mode}'")
    return Scenario(name=str(raw["name"]), config=cfg, experiment=experiment,
                    grid=grid, mode=mode, monte_carlo=mc,
                    output_dir=raw.get("output_dir"),
                    workers=_as_int("workers", raw.get("workers", 1)),
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
    """Compact token for filenames: -5 -> m5, 0.5 -> 0p5, 10.0 -> 10."""
    if float(value) == int(value):
        text = str(int(value))
    else:
        text = repr(float(value))
    return text.replace("-", "m").replace(".", "p")


def _scalar_threshold_db(grid: dict) -> float:
    value = grid.get("threshold_db", 0.0)
    if isinstance(value, (list, tuple)):
        if len(value) != 1:
            raise ConfigError("this experiment takes a single threshold_db")
        value = value[0]
    return float(value)


def _band_tiers(scn: Scenario, band: Band) -> list[int]:
    if not scn.config.is_hybrid:
        raise ConfigError(f"{scn.experiment.value} requires a hybrid config")
    return [i for i, t in enumerate(scn.config.tiers) if t.band is band]


# ---------------------------------------------------------------------------
# experiments: each builds its curves; six sweep threshold_db per config and
# four build one config per x

def _threshold_curves(scn: Scenario, curves: list[tuple]) -> list[_Curve]:
    """One curve over grid.threshold_db per (filename, config, metric)."""
    th = [float(t) for t in scn.grid["threshold_db"]]
    return [_Curve(name, metric, [(t, cfg, db_to_linear(t)) for t in th])
            for name, cfg, metric in curves]


def _bias_curves(scn: Scenario, base: NetworkConfig, tiers: list[int],
                 curves: list[tuple]) -> list[_Curve]:
    """One curve over grid.bias_db per (filename, metric, argument[, tier]).

    The config at each bias is `base` with `tiers` biased by it.
    """
    biases = [float(b) for b in scn.grid["bias_db"]]
    configs = [with_bias(base, {i: db_to_linear(b) for i in tiers})
               for b in biases]
    return [_Curve(name, metric, [(b, cfg, arg)
                                  for b, cfg in zip(biases, configs)], *tier)
            for name, metric, arg, *tier in curves]


def _assoc_curves(scn: Scenario, suffix: str) -> list[tuple]:
    tiers = scn.config.tiers
    return [(f"assoc_{t.name or f'tier{k}'}{suffix}.csv",
             _metric(scn, "assoc"), None, k) for k, t in enumerate(tiers)]


def _sinr_vs_snr(scn: Scenario) -> list[_Curve]:
    counts = [_as_int("grid.tier_counts", n) for n in scn.grid.get(
        "tier_counts", range(1, scn.config.n_tiers + 1))]
    return _threshold_curves(scn, [
        (f"{mode}_tiers{n}.csv", scn.config.subset(tuple(range(n))),
         _metric(scn, "coverage", mode))
        for n in counts for mode in ("sinr", "snr")])


def _swept(scn: Scenario, key: str, build: Callable) -> list[tuple]:
    """(value, build(value)) for each value of grid[key].

    Every config is built, and so validated, before any filename tag
    formats a value: an invalid value is refused as a ConfigError, never
    reaches _tag, and writes no output.
    """
    return [(v, build(float(v))) for v in scn.grid[key]]


def _gain_sweep(scn: Scenario) -> list[_Curve]:
    cfg = scn.config
    return _threshold_curves(scn, [
        (f"cov_gain{_tag(g)}db.csv", c, _metric(scn, "coverage"))
        for g, c in _swept(scn, "main_gain_db", lambda g: validate(replace(
            cfg, pattern=replace(cfg.pattern, main_gain=db_to_linear(g)))))])


def _ball_params(scn: Scenario) -> list[_Curve]:
    return _threshold_curves(scn, [
        (f"cov_{v['name']}.csv", with_balls(
            scn.config, _as_int("grid.variants.tier", v.get("tier", 0)),
            v["radii"], v["los_prob"]),
         _metric(scn, "coverage")) for v in scn.grid["variants"]])


def _beam_error(scn: Scenario) -> list[_Curve]:
    return _threshold_curves(scn, [
        (f"cov_sigma{_tag(s)}deg.csv", scn.config,
         _metric(scn, "beam", sigma=math.radians(float(s))))
        for s in scn.grid["sigma_be_deg"]])


def _hybrid_bias(scn: Scenario) -> list[_Curve]:
    mm = _band_tiers(scn, Band.MMWAVE)
    return _threshold_curves(scn, [
        (f"cov_bias{_tag(b)}db.csv", c, _metric(scn, "coverage"))
        for b, c in _swept(scn, "bias_db", lambda b: with_bias(
            scn.config, {i: db_to_linear(b) for i in mm}))])


def _hybrid_density(scn: Scenario) -> list[_Curve]:
    micro = _band_tiers(scn, Band.MICROWAVE)[0]
    return _threshold_curves(scn, [
        (f"cov_density{_tag(m)}x.csv", c, _metric(scn, "coverage"))
        for m, c in _swept(scn, "density_mult", lambda m: with_density_scale(
            scn.config, {micro: m}))])


def _bias_sweep(scn: Scenario) -> list[_Curve]:
    threshold = db_to_linear(_scalar_threshold_db(scn.grid))
    tiers = [_as_int("grid.tiers", i)
             for i in scn.grid.get("tiers", range(1, scn.config.n_tiers))]
    return _bias_curves(scn, scn.config, tiers, [
        ("coverage_vs_bias.csv", _metric(scn, "coverage"), threshold)]
        + _assoc_curves(scn, "_vs_bias"))


def _assoc_vs_bias(scn: Scenario) -> list[_Curve]:
    tier = _as_int("grid.tier", scn.grid.get("tier", scn.config.n_tiers - 1))
    return _bias_curves(scn, scn.config, [tier], _assoc_curves(scn, ""))


def _energy(scn: Scenario) -> list[_Curve]:
    threshold = db_to_linear(_scalar_threshold_db(scn.grid))
    tier = _as_int("grid.tier", scn.grid.get("tier", scn.config.n_tiers - 1))
    metric = _metric(scn, "ee")
    curves = []
    for var in [{"name": "base"}] + list(scn.grid.get("variants", [])):
        scale = var.get("density_scale") or {}
        base = with_density_scale(
            scn.config, {int(i): float(m) for i, m in scale.items()})
        curves += _bias_curves(scn, base, [tier], [
            (f"ee_{var['name']}.csv", metric, threshold)])
    return curves


def _rate(scn: Scenario) -> list[_Curve]:
    """One curve whose points carry their per-tier equivalent thresholds.

    The mean loads, and with them the association table, are computed once
    for the curve, not once per rate; the curve carries them to its Monte
    Carlo job.
    """
    metric = _metric(scn, "rate")
    rates = [float(r) for r in scn.grid["rate_bps"]]
    loads = metrics.mean_loads(scn.config)
    thresholds = metrics.equivalent_thresholds(scn.config, rates, loads)
    return [_Curve("rate_coverage.csv", metric,
                   [(r, scn.config, tuple(map(float, row)))
                    for r, row in zip(rates, thresholds)],
                   loads=tuple(map(float, loads)))]


# experiment: (required grid keys, each a non-empty list; optional grid keys;
# curve builder)
_EXPERIMENTS = {
    Experiment.SINR_VS_SNR: (("threshold_db",), ("tier_counts",),
                             _sinr_vs_snr),
    Experiment.GAIN_SWEEP: (("threshold_db", "main_gain_db"), (), _gain_sweep),
    Experiment.BALL_PARAMS: (("threshold_db", "variants"), (), _ball_params),
    Experiment.BIAS_SWEEP: (("bias_db",), ("tiers", "threshold_db"),
                            _bias_sweep),
    Experiment.BEAM_ERROR: (("threshold_db", "sigma_be_deg"), (), _beam_error),
    Experiment.RATE: (("rate_bps",), (), _rate),
    Experiment.ENERGY: (("bias_db",), ("tier", "threshold_db", "variants"),
                        _energy),
    Experiment.ASSOC_VS_BIAS: (("bias_db",), ("tier",), _assoc_vs_bias),
    Experiment.HYBRID_BIAS: (("threshold_db", "bias_db"), (), _hybrid_bias),
    Experiment.HYBRID_DENSITY: (("threshold_db", "density_mult"), (),
                                _hybrid_density),
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
    _validate_grid(scn.experiment, scn.grid)
    curves = _EXPERIMENTS[scn.experiment][2](scn)
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
