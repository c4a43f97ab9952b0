"""Output checks for one benchmark pass.

An operation is one analytic output value (a CSV `analytic` cell) or one
Monte Carlo estimate (a CSV `monte_carlo` cell, or a probability or mean
rate printed by `hetnet mc`).  An operation fails when

- it is flagged nonconverged;
- it is not finite;
- a probability falls outside [0, 1] by more than its own `quad_error`
  (a quadrature value is only known to within that error);
- for a seed with committed references, it differs from the reference by
  more than the reference's `quad_error` plus its own (plus 1e-12, the
  resolution of the CSV's 12 significant digits).  Rows flagged
  nonconverged, in the reference or now, skip this comparison and count
  through their flag alone: their `quad_error` covers only the outer
  integral, not the inner integral that failed to converge, so a fix that
  makes them converge would otherwise move them outside a tolerance that
  never described their error;
- a coverage curve rises with its threshold by more than the two points'
  `quad_error`;
- association probabilities plus the outage probability of one bias point
  miss 1 by more than the association `quad_error` plus 1e-9;
- a Monte Carlo association or outage estimate differs from the analytic
  value by more than 4 standard errors.  Association is exact, so this
  oracle carries no approximation bias; the standard error is the one the
  analytic probability implies for the requested drop count.

A nonconverged flag is the program reporting that it could not certify a
value; those are counted as failed but do not by themselves make the pass
incorrect.  Every other failure, and any unexpected exit code or missing
output, does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

Z_LIMIT = 4.0
CSV_RESOLUTION = 1e-12
COMPLETENESS_SLACK = 1e-9


@dataclass
class PassOutput:
    directory: Path               # holds one sub-directory per `run` step
    exit_codes: dict[str, int]
    stdout: dict[str, str]
    stderr: dict[str, str]


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    nonconverged: int = 0
    points: int = 0               # analytic values written
    problems: list[str] = field(default_factory=list)
    analytic: dict[str, list] = field(default_factory=dict)

    def op(self, where: str, reasons: list[str]) -> None:
        self.attempted += 1
        if not reasons:
            return
        self.failed += 1
        if reasons == ["nonconverged"]:
            self.nonconverged += 1
        else:
            self.problems.append(f"{where}: {'; '.join(reasons)}")


def outage_probability(cfg: dict) -> float:
    """exp(-sum_k pi lambda_k R_k^2): no station inside any outage radius."""
    return math.exp(-sum(math.pi * t["density_per_m2"]
                         * t["balls"][-1]["radius_m"] ** 2
                         for t in cfg["tiers"]))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _prob_reasons(value: float, err: float = 0.0) -> list[str]:
    if not math.isfinite(value):
        return ["not finite"]
    if not -err <= value <= 1.0 + err + CSV_RESOLUTION:
        return [f"probability {value!r} outside [0, 1]"]
    return []


def _z_reason(estimate: float, truth: float, drops: int) -> list[str]:
    se = math.sqrt(max(truth * (1.0 - truth), 0.0) / drops)
    if abs(estimate - truth) > Z_LIMIT * se + CSV_RESOLUTION:
        return [f"Monte Carlo {estimate!r} vs analytic {truth!r}: "
                f"more than {Z_LIMIT:g} standard errors ({se:.3g})"]
    return []


def _check_run_step(res: CheckResult, step, scenario: dict, config: dict,
                    out_dir: Path, reference: dict | None,
                    exit_code: int) -> None:
    files = sorted(p.name for p in out_dir.glob("*.csv"))
    if not files:
        res.problems.append(f"{step.name}: no CSV output")
        return
    mc_drops = (scenario.get("monte_carlo") or {}).get("drops")
    is_assoc = scenario["experiment"] == "ASSOC_VS_BIAS"
    tables = {}
    for name in files:
        header, rows = _read_csv(out_dir / name)
        tables[name] = ({h: i for i, h in enumerate(header)}, rows)
    # per bias row of ASSOC_VS_BIAS: sum over tiers plus outage must be 1
    incomplete: dict[int, str] = {}
    if is_assoc:
        outage = outage_probability(config)
        n_rows = len(next(iter(tables.values()))[1])
        for i in range(n_rows):
            parts = [(float(rows[i][col["analytic"]]),
                      float(rows[i][col["quad_error"]]))
                     for col, rows in tables.values()]
            total = sum(v for v, _ in parts) + outage
            slack = max(e for _, e in parts) + COMPLETENESS_SLACK
            if not abs(total - 1.0) <= slack:
                incomplete[i] = (f"association + outage = {total!r}, "
                                 f"off 1 by more than {slack:.3g}")
    flagged = False
    for name, (col, rows) in tables.items():
        key = f"{step.name}/{name}"
        parsed = [[float(r[col["x"]]), float(r[col["analytic"]]),
                   float(r[col["quad_error"]]), r[col["flag"]]] for r in rows]
        res.analytic[key] = parsed
        ref = None if reference is None else reference.get(key)
        if reference is not None and (ref is None or len(ref) != len(parsed)):
            res.problems.append(f"{key}: no matching committed reference")
            ref = None
        monotone = name.startswith(("cov_", "rate_"))
        for i, (x, value, err, flag) in enumerate(parsed):
            where = f"{key} row {i + 1} (x={x:g})"
            reasons = []
            if flag == "nonconverged":
                flagged = True
                reasons.append("nonconverged")
            elif flag:
                reasons.append(f"unknown flag {flag!r}")
            if not math.isfinite(err):
                reasons.append("quad_error not finite")
            reasons += _prob_reasons(value, err)
            if ref is not None:
                rx, rv, rerr, rflag = ref[i]
                if rx != x:
                    reasons.append(f"grid point {x!r} != reference {rx!r}")
                elif "nonconverged" in (flag, rflag):
                    pass
                elif abs(value - rv) > rerr + err + CSV_RESOLUTION:
                    reasons.append(f"{value!r} differs from reference {rv!r} "
                                   f"by more than {rerr + err:.3g}")
            if monotone and i > 0:
                prev, perr = parsed[i - 1][1], parsed[i - 1][2]
                if value > prev + perr + err + CSV_RESOLUTION:
                    reasons.append(f"coverage rises with x ({prev!r} -> {value!r})")
            if i in incomplete:
                reasons.append(incomplete[i])
            res.op(where, reasons)
            res.points += 1
            if "monte_carlo" in col:
                mc = float(rows[i][col["monte_carlo"]])
                mc_reasons = _prob_reasons(mc)
                if is_assoc and not mc_reasons and math.isfinite(value):
                    mc_reasons += _z_reason(mc, value, int(mc_drops))
                res.op(f"{where} monte_carlo", mc_reasons)
    expected = 2 if flagged else 0
    if exit_code != expected:
        res.problems.append(f"{step.name}: exit code {exit_code}, "
                            f"expected {expected}")


def _check_mc_step(res: CheckResult, step, config: dict, text: str,
                   exit_code: int, assoc: list[float],
                   trace_path: Path | None) -> None:
    if exit_code != 0:
        res.problems.append(f"{step.name}: exit code {exit_code}, expected 0")
    values = {}
    for line in text.splitlines():
        parts = line.split(",")
        if len(parts) >= 2:
            values[parts[0]] = float(parts[1])
    if values.get("drops") != step.drops:
        res.problems.append(f"{step.name}: summary reports drops="
                            f"{values.get('drops')}, requested {step.drops}")
    thresholds = [a.split("=", 1)[1] for a in step.args
                  if a.startswith("--thresholds-db=")]
    n_cov = len(thresholds[0].split(",")) if thresholds else 3
    names = [f"assoc_{t['name']}" for t in config["tiers"]]
    covs = [k for k in values if k.startswith("coverage_")]
    if len(covs) != n_cov or any(n not in values for n in names) \
            or "outage" not in values or "mean_rate_bps" not in values:
        res.problems.append(f"{step.name}: summary is missing lines")
    if "outage" in values:
        v = values["outage"]
        reasons = _prob_reasons(v)
        if not reasons:
            reasons = _z_reason(v, outage_probability(config), step.drops)
        res.op(f"{step.name} outage", reasons)
    for k, name in enumerate(names):
        if name in values:
            v = values[name]
            reasons = _prob_reasons(v) or _z_reason(v, assoc[k], step.drops)
            res.op(f"{step.name} {name}", reasons)
    for name in covs:
        res.op(f"{step.name} {name}", _prob_reasons(values[name]))
    if "mean_rate_bps" in values:
        rate = values["mean_rate_bps"]
        ok = math.isfinite(rate) and rate >= 0.0
        res.op(f"{step.name} mean_rate_bps", [] if ok else
               [f"mean rate {rate!r} not finite and >= 0"])
    if trace_path is not None:
        lines = trace_path.read_bytes().count(b"\n") if trace_path.is_file() else 0
        if lines != step.drops + 1:
            res.problems.append(f"{step.name}: trace has {lines} lines, "
                                f"expected {step.drops + 1}")


def check_pass(workload, out: PassOutput, reference: dict | None,
               assoc_oracle: dict[str, list[float]]) -> CheckResult:
    """Check every output of one pass; see the module docstring."""
    res = CheckResult()
    for step in workload.steps:
        source = workload.files[step.args[1]]
        if step.command == "run":
            config = workload.files[source["config"]]
            _check_run_step(res, step, source, config,
                            out.directory / step.name, reference,
                            out.exit_codes[step.name])
        else:
            trace = out.directory / step.trace if step.trace else None
            _check_mc_step(res, step, source, out.stdout[step.name],
                           out.exit_codes[step.name],
                           assoc_oracle[step.args[1]], trace)
        if step.name in out.stderr and out.exit_codes[step.name] not in (0, 2):
            res.problems.append(f"{step.name} stderr: "
                                f"{out.stderr[step.name].strip()[:300]}")
    return res
