"""Named experiments over a network config, emitting CSV curves.

A scenario file bundles a config, an experiment kind, a sweep grid and
optional Monte Carlo settings.  Running one writes a directory containing
one CSV per curve and a manifest.json.  CSV columns are x, analytic,
quad_error, flag and, when simulation is enabled, monte_carlo and
mc_stderr; the flag column is empty for converged points and holds
"nonconverged" otherwise.  CSV bytes depend only on the scenario content
(the wall clock appears only in the manifest), so reruns are
byte-identical.

Grid points are independent, so they are dispatched to a process pool and
written back by a single writer in grid order.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from . import association, coverage, metrics, montecarlo
from .model import (AntennaPattern, Band, ConfigError, NetworkConfig,
                    db_to_linear, network_from_dict, with_antenna,
                    with_balls, with_bias, with_density_scale)

_TOLERANCES = {"outer_abs_tol": 1e-7, "outer_rel_tol": 1e-6,
               "assoc_abs_tol": 1e-9}


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


# grid keys that must be present (and non-empty where lists) per experiment
_REQUIRED_KEYS = {
    Experiment.SINR_VS_SNR: ("threshold_db",),
    Experiment.GAIN_SWEEP: ("threshold_db", "main_gain_db"),
    Experiment.BALL_PARAMS: ("threshold_db", "variants"),
    Experiment.BIAS_SWEEP: ("bias_db",),
    Experiment.BEAM_ERROR: ("threshold_db", "sigma_be_deg"),
    Experiment.RATE: ("rate_bps",),
    Experiment.ENERGY: ("bias_db",),
    Experiment.ASSOC_VS_BIAS: ("bias_db",),
    Experiment.HYBRID_BIAS: ("threshold_db", "bias_db"),
    Experiment.HYBRID_DENSITY: ("threshold_db", "density_mult"),
}


@dataclass(frozen=True)
class Scenario:
    name: str
    config: NetworkConfig
    experiment: Experiment
    grid: dict[str, Any]
    mode: str = "sinr"
    exclusion_zone: str = "with_gains"
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


def _validate_grid(experiment: Experiment, grid: dict) -> None:
    missing = [k for k in _REQUIRED_KEYS[experiment] if k not in grid]
    if missing:
        raise ConfigError(
            f"{experiment.value} grid is missing keys: {', '.join(missing)}")
    for key in _REQUIRED_KEYS[experiment]:
        _as_list(grid, key)


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
        from importlib import resources
        name = source.split(":", 1)[1]
        ref = resources.files("hetnetsim").joinpath("data", f"{name}.json")
        config_raw = json.loads(ref.read_text())
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
        mc = montecarlo.SimConfig(
            drops=int(mc_raw["drops"]), seed=int(mc_raw.get("seed", 0)),
            parallel_chunks=int(mc_raw.get("chunks", 1)))
    mode = str(raw.get("mode", "sinr"))
    if mode not in ("sinr", "snr", "closed24"):
        raise ConfigError(f"unknown mode '{mode}'")
    exclusion = str(raw.get("exclusion_zone", "with_gains"))
    if exclusion not in ("with_gains", "without_gains"):
        raise ConfigError(f"unknown exclusion_zone '{exclusion}'")
    return Scenario(name=str(raw["name"]), config=cfg, experiment=experiment,
                    grid=grid, mode=mode, exclusion_zone=exclusion,
                    monte_carlo=mc, output_dir=raw.get("output_dir"),
                    workers=int(raw.get("workers", 1)),
                    config_path=config_path, config_raw=config_raw)


# ---------------------------------------------------------------------------
# point evaluation (top-level functions so they pickle into worker processes)

def _eval_analytic(job: dict) -> tuple[float, float, bool]:
    """Evaluate one analytic grid point; returns (value, error, converged)."""
    kind = job["kind"]
    cfg: NetworkConfig = job["cfg"]
    if kind == "coverage":
        curve = coverage.sinr_coverage(
            cfg, [job["threshold"]], mode=job["mode"],
            exclusion_zone=job["exclusion_zone"])
    elif kind == "beam":
        curve = coverage.coverage_with_beam_error(
            cfg, [job["threshold"]], sigma_be_rad=job["sigma"],
            mode=job["mode"], exclusion_zone=job["exclusion_zone"])
    elif kind == "closed24":
        curve = coverage.snr_coverage_closed_form(cfg, [job["threshold"]])
    elif kind == "rate":
        curve = metrics.rate_coverage(
            cfg, [job["rate"]], mode=job["mode"],
            exclusion_zone=job["exclusion_zone"])
    elif kind == "assoc":
        table = association.association_table(cfg)
        return (float(table.per_tier[job["tier"]]), float(table.error),
                bool(table.converged))
    elif kind == "ee":
        report = metrics.energy_efficiency(
            cfg, job["threshold"], mode=job["mode"],
            exclusion_zone=job["exclusion_zone"])
        return report.energy_efficiency, report.error, report.converged
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return (float(curve.probability[0]), float(curve.error[0]),
            bool(curve.converged[0]))


def _eval_mc(job: dict) -> tuple[list[float], list[float]]:
    """Evaluate one Monte Carlo job; returns (values, standard errors)."""
    kind = job["kind"]
    cfg: NetworkConfig = job["cfg"]
    sim: montecarlo.SimConfig = job["sim"]
    if kind == "mc_coverage":
        probs, ses = montecarlo.empirical_coverage(
            cfg, sim, job["thresholds"], mode=job["mode"],
            sigma_be_rad=job.get("sigma", 0.0))
        return list(map(float, probs)), list(map(float, ses))
    if kind == "mc_rate":
        probs, ses = montecarlo.empirical_rate_coverage(cfg, sim, job["rates"])
        return list(map(float, probs)), list(map(float, ses))
    if kind == "mc_assoc":
        joint, _, _, _ = montecarlo.empirical_association(cfg, sim)
        p = float(joint[job["tier"]].sum())
        se = math.sqrt(max(p * (1.0 - p), 0.0) / sim.drops)
        return [p], [se]
    raise ValueError(f"unknown job kind {kind!r}")


@dataclass
class _Curve:
    filename: str
    xs: list[float]
    jobs: list[dict]                       # one analytic job per x
    mc_curve_job: dict | None = None       # one job yielding len(xs) values
    mc_point_jobs: list[dict] | None = None  # one job per x, one value each
    # filled by the runner:
    analytic: list[tuple[float, float, bool]] = field(default_factory=list)
    mc: list[float] | None = None
    mc_se: list[float] | None = None


def _tier_label(cfg: NetworkConfig, k: int) -> str:
    name = cfg.tiers[k].name
    return name if name else f"tier{k}"


def _tag(value: float) -> str:
    """Compact token for filenames: -5 -> m5, 0.5 -> 0p5, 10.0 -> 10."""
    if float(value) == int(value):
        text = str(int(value))
    else:
        text = repr(float(value))
    return text.replace("-", "m").replace(".", "p")


def _coverage_jobs(cfg: NetworkConfig, thresholds_db: Sequence[float],
                   mode: str, exclusion: str) -> list[dict]:
    return [{"kind": "coverage", "cfg": cfg, "threshold": db_to_linear(t),
             "mode": mode, "exclusion_zone": exclusion}
            for t in thresholds_db]


def _mc_coverage_job(cfg, sim, thresholds_db, mode, sigma=0.0) -> dict:
    return {"kind": "mc_coverage", "cfg": cfg, "sim": sim,
            "thresholds": [db_to_linear(t) for t in thresholds_db],
            "mode": "snr" if mode == "closed24" else mode, "sigma": sigma}


def _scalar_threshold_db(grid: dict) -> float:
    value = grid.get("threshold_db", 0.0)
    if isinstance(value, (list, tuple)):
        if len(value) != 1:
            raise ConfigError("this experiment takes a single threshold_db")
        value = value[0]
    return float(value)


def _build_curves(scn: Scenario) -> list[_Curve]:
    cfg, grid = scn.config, scn.grid
    exp, mode, excl = scn.experiment, scn.mode, scn.exclusion_zone
    mc = scn.monte_carlo
    curves: list[_Curve] = []

    if exp is Experiment.SINR_VS_SNR:
        th = [float(t) for t in _as_list(grid, "threshold_db")]
        counts = grid.get("tier_counts", list(range(1, cfg.n_tiers + 1)))
        for n in counts:
            sub = cfg.subset(tuple(range(int(n))))
            for m in ("sinr", "snr"):
                curve = _Curve(f"{m}_tiers{int(n)}.csv", th,
                               _coverage_jobs(sub, th, m, excl))
                if mc is not None:
                    curve.mc_curve_job = _mc_coverage_job(sub, mc, th, m)
                curves.append(curve)

    elif exp is Experiment.GAIN_SWEEP:
        th = [float(t) for t in _as_list(grid, "threshold_db")]
        for g_db in _as_list(grid, "main_gain_db"):
            pat = AntennaPattern(main_gain=db_to_linear(float(g_db)),
                                 side_gain=cfg.pattern.side_gain,
                                 beamwidth_rad=cfg.pattern.beamwidth_rad)
            sub = with_antenna(cfg, pat)
            curve = _Curve(f"cov_gain{_tag(g_db)}db.csv", th,
                           _coverage_jobs(sub, th, mode, excl))
            if mc is not None:
                curve.mc_curve_job = _mc_coverage_job(sub, mc, th, mode)
            curves.append(curve)

    elif exp is Experiment.BALL_PARAMS:
        th = [float(t) for t in _as_list(grid, "threshold_db")]
        for var in _as_list(grid, "variants"):
            sub = with_balls(cfg, int(var.get("tier", 0)),
                             var["radii"], var["los_prob"])
            curve = _Curve(f"cov_{var['name']}.csv", th,
                           _coverage_jobs(sub, th, mode, excl))
            if mc is not None:
                curve.mc_curve_job = _mc_coverage_job(sub, mc, th, mode)
            curves.append(curve)

    elif exp is Experiment.BIAS_SWEEP:
        biases = [float(b) for b in _as_list(grid, "bias_db")]
        swept = [int(i) for i in grid.get("tiers", range(1, cfg.n_tiers))]
        th_db = _scalar_threshold_db(grid)
        configs = [with_bias(cfg, {i: db_to_linear(b) for i in swept})
                   for b in biases]
        cov = _Curve("coverage_vs_bias.csv", biases,
                     [{"kind": "coverage", "cfg": c,
                       "threshold": db_to_linear(th_db), "mode": mode,
                       "exclusion_zone": excl} for c in configs])
        if mc is not None:
            cov.mc_point_jobs = [_mc_coverage_job(c, mc, [th_db], mode)
                                 for c in configs]
        curves.append(cov)
        for k in range(cfg.n_tiers):
            curve = _Curve(f"assoc_{_tier_label(cfg, k)}_vs_bias.csv", biases,
                           [{"kind": "assoc", "cfg": c, "tier": k}
                            for c in configs])
            if mc is not None:
                curve.mc_point_jobs = [{"kind": "mc_assoc", "cfg": c,
                                        "sim": mc, "tier": k} for c in configs]
            curves.append(curve)

    elif exp is Experiment.BEAM_ERROR:
        th = [float(t) for t in _as_list(grid, "threshold_db")]
        for s_deg in _as_list(grid, "sigma_be_deg"):
            sigma = math.radians(float(s_deg))
            curve = _Curve(
                f"cov_sigma{_tag(s_deg)}deg.csv", th,
                [{"kind": "beam", "cfg": cfg, "threshold": db_to_linear(t),
                  "sigma": sigma, "mode": mode, "exclusion_zone": excl}
                 for t in th])
            if mc is not None:
                curve.mc_curve_job = _mc_coverage_job(cfg, mc, th, mode,
                                                      sigma=sigma)
            curves.append(curve)

    elif exp is Experiment.RATE:
        rates = [float(r) for r in _as_list(grid, "rate_bps")]
        curve = _Curve("rate_coverage.csv", rates,
                       [{"kind": "rate", "cfg": cfg, "rate": r, "mode": mode,
                         "exclusion_zone": excl} for r in rates])
        if mc is not None:
            curve.mc_curve_job = {"kind": "mc_rate", "cfg": cfg, "sim": mc,
                                  "rates": rates}
        curves.append(curve)

    elif exp is Experiment.ENERGY:
        biases = [float(b) for b in _as_list(grid, "bias_db")]
        tier = int(grid.get("tier", cfg.n_tiers - 1))
        th_db = _scalar_threshold_db(grid)
        variants = [{"name": "base"}] + list(grid.get("variants", []))
        for var in variants:
            base = cfg
            scale = var.get("density_scale")
            if scale:
                base = with_density_scale(
                    base, {int(i): float(m) for i, m in scale.items()})
            configs = [with_bias(base, {tier: db_to_linear(b)})
                       for b in biases]
            curves.append(_Curve(
                f"ee_{var['name']}.csv", biases,
                [{"kind": "ee", "cfg": c, "threshold": db_to_linear(th_db),
                  "mode": mode, "exclusion_zone": excl} for c in configs]))

    elif exp is Experiment.ASSOC_VS_BIAS:
        biases = [float(b) for b in _as_list(grid, "bias_db")]
        tier = int(grid.get("tier", cfg.n_tiers - 1))
        configs = [with_bias(cfg, {tier: db_to_linear(b)}) for b in biases]
        for k in range(cfg.n_tiers):
            curve = _Curve(f"assoc_{_tier_label(cfg, k)}.csv", biases,
                           [{"kind": "assoc", "cfg": c, "tier": k}
                            for c in configs])
            if mc is not None:
                curve.mc_point_jobs = [{"kind": "mc_assoc", "cfg": c,
                                        "sim": mc, "tier": k} for c in configs]
            curves.append(curve)

    elif exp is Experiment.HYBRID_BIAS:
        if not cfg.is_hybrid:
            raise ConfigError("HYBRID_BIAS requires a hybrid config")
        th = [float(t) for t in _as_list(grid, "threshold_db")]
        mm = [i for i, t in enumerate(cfg.tiers) if t.band is Band.MMWAVE]
        for b_db in _as_list(grid, "bias_db"):
            sub = with_bias(cfg, {i: db_to_linear(float(b_db)) for i in mm})
            curve = _Curve(f"cov_bias{_tag(b_db)}db.csv", th,
                           _coverage_jobs(sub, th, mode, excl))
            if mc is not None:
                curve.mc_curve_job = _mc_coverage_job(sub, mc, th, mode)
            curves.append(curve)

    elif exp is Experiment.HYBRID_DENSITY:
        if not cfg.is_hybrid:
            raise ConfigError("HYBRID_DENSITY requires a hybrid config")
        th = [float(t) for t in _as_list(grid, "threshold_db")]
        micro = next(i for i, t in enumerate(cfg.tiers)
                     if t.band is Band.MICROWAVE)
        for mult in _as_list(grid, "density_mult"):
            sub = with_density_scale(cfg, {micro: float(mult)})
            curve = _Curve(f"cov_density{_tag(mult)}x.csv", th,
                           _coverage_jobs(sub, th, mode, excl))
            if mc is not None:
                curve.mc_curve_job = _mc_coverage_job(sub, mc, th, mode)
            curves.append(curve)

    else:  # pragma: no cover - enum is exhaustive
        raise ConfigError(f"unhandled experiment {exp}")

    if scn.mode == "closed24":
        # closed-form evaluation replaces quadrature for noise-limited sweeps
        for curve in curves:
            for job in curve.jobs:
                kind, jmode = job["kind"], job.get("mode")
                if kind == "coverage" and jmode in ("snr", "closed24"):
                    job["kind"] = "closed24"
                elif jmode == "closed24":
                    raise ConfigError(
                        "mode closed24 applies only to coverage threshold sweeps")
    return curves


def _pmap(fn: Callable, items: list, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def _format(value: float) -> str:
    return f"{float(value):.12g}"


def _write_curve(path: Path, curve: _Curve) -> None:
    has_mc = curve.mc is not None
    header = "x,analytic,quad_error,flag"
    if has_mc:
        header += ",monte_carlo,mc_stderr"
    lines = [header]
    for i, x in enumerate(curve.xs):
        value, err, ok = curve.analytic[i]
        row = [_format(x), _format(value), _format(err),
               "" if ok else "nonconverged"]
        if has_mc:
            row += [_format(curve.mc[i]), _format(curve.mc_se[i])]
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
    curves = _build_curves(scn)
    n_workers = workers if workers is not None else scn.workers

    jobs = [job for curve in curves for job in curve.jobs]
    results = _pmap(_eval_analytic, jobs, n_workers)
    pos = 0
    for curve in curves:
        curve.analytic = results[pos:pos + len(curve.jobs)]
        pos += len(curve.jobs)

    mc_jobs: list[dict] = []
    slots: list[tuple[_Curve, int | None]] = []  # (curve, point idx or None)
    for curve in curves:
        if curve.mc_curve_job is not None:
            mc_jobs.append(curve.mc_curve_job)
            slots.append((curve, None))
        if curve.mc_point_jobs is not None:
            for i, job in enumerate(curve.mc_point_jobs):
                mc_jobs.append(job)
                slots.append((curve, i))
    if mc_jobs:
        mc_results = _pmap(_eval_mc, mc_jobs, n_workers)
        for (curve, idx), (vals, ses) in zip(slots, mc_results):
            if curve.mc is None:
                curve.mc = [math.nan] * len(curve.xs)
                curve.mc_se = [math.nan] * len(curve.xs)
            if idx is None:
                curve.mc, curve.mc_se = vals, ses
            else:
                curve.mc[idx], curve.mc_se[idx] = vals[0], ses[0]

    out = Path(output_dir) if output_dir is not None else Path(
        scn.output_dir if scn.output_dir else f"out_{scn.name}")
    out.mkdir(parents=True, exist_ok=True)
    for curve in curves:
        _write_curve(out / curve.filename, curve)

    flagged = any(not ok for curve in curves for (_, _, ok) in curve.analytic)
    wall = time.perf_counter() - t0
    manifest = {
        "scenario": scn.name,
        "experiment": scn.experiment.value,
        "mode": scn.mode,
        "exclusion_zone": scn.exclusion_zone,
        "config_sha256": _config_sha256(scn.config_raw),
        "config_path": scn.config_path,
        "grid": scn.grid,
        "monte_carlo": None if scn.monte_carlo is None else {
            "drops": scn.monte_carlo.drops, "seed": scn.monte_carlo.seed,
            "chunks": scn.monte_carlo.parallel_chunks},
        "tolerances": _TOLERANCES,
        "flagged_points": int(sum(not ok for curve in curves
                                  for (_, _, ok) in curve.analytic)),
        "files": sorted(curve.filename for curve in curves),
        "wall_time_s": round(wall, 3),
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")
    return ScenarioResult(output_dir=out,
                          files=tuple(sorted(c.filename for c in curves)),
                          manifest_path=manifest_path, flagged=flagged,
                          wall_time_s=wall)
