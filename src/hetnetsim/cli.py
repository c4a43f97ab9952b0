"""Command line front end.

Subcommands:
  hetnet run <scenario.json>      execute a scenario, write CSV + manifest
  hetnet validate <config.json>   check a network config, report problems
  hetnet mc <config.json>         run the drop simulator, print a summary

Exit codes: 0 success, 1 config or IO error, 2 numerical failure (some
analytic points did not converge; their rows are flagged in the CSV).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import metrics, montecarlo
from .model import ConfigError, db_to_linear, load_config
from .scenarios import load_scenario, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetnet",
        description="Coverage, rate and energy analysis for multi-tier "
                    "millimeter-wave networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--out", default=None,
                     help="output directory (default: scenario output_dir)")
    run.add_argument("--workers", type=int, default=None,
                     help="process pool size for grid points")
    run.add_argument("--mode", choices=("sinr", "snr", "closed24"),
                     default=None, help="override the scenario mode")
    run.add_argument("--exclusion-zone",
                     choices=("with_gains", "without_gains"), default=None,
                     help="override the interferer exclusion-zone convention")

    val = sub.add_parser("validate", help="check a network config file")
    val.add_argument("config", help="path to a network config JSON file")

    mc = sub.add_parser("mc", help="run the Monte Carlo drop simulator")
    mc.add_argument("config", help="path to a network config JSON file")
    mc.add_argument("--drops", type=int, required=True,
                    help="number of user drops")
    mc.add_argument("--seed", type=int, default=0, help="RNG seed")
    mc.add_argument("--chunks", type=int, default=1,
                    help="independent chunks (fixed count gives fixed draws)")
    mc.add_argument("--workers", type=int, default=1,
                    help="process pool size over chunks")
    mc.add_argument("--mode", choices=("sinr", "snr"), default="sinr",
                    help="statistic for the coverage summary")
    mc.add_argument("--thresholds-db", default="-10,0,10",
                    help="comma separated thresholds for the summary")
    mc.add_argument("--sigma-be-deg", type=float, default=0.0,
                    help="beam pointing error stddev in degrees")
    mc.add_argument("--trace", default=None,
                    help="write a per-drop CSV trace to this path")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    scn = load_scenario(args.scenario)
    if args.mode is not None or args.exclusion_zone is not None:
        from dataclasses import replace
        scn = replace(scn,
                      mode=args.mode if args.mode is not None else scn.mode,
                      exclusion_zone=(args.exclusion_zone
                                      if args.exclusion_zone is not None
                                      else scn.exclusion_zone))
    result = run_scenario(scn, output_dir=args.out, workers=args.workers)
    print(f"wrote {len(result.files)} curve(s) to {result.output_dir} "
          f"in {result.wall_time_s:.2f}s")
    if result.flagged:
        print("warning: some points did not converge (see flag column)",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    bands = ", ".join(f"{t.name or 'tier' + str(i)}[{t.band.value}]"
                      for i, t in enumerate(cfg.tiers))
    print(f"OK: {cfg.n_tiers} tier(s): {bands}")
    return EXIT_OK


def _trace_rows(batch: montecarlo.DropBatch, rates: np.ndarray):
    state_names = {0: "los", 1: "nlos", -1: "outage"}
    with np.errstate(divide="ignore"):
        sinr_db = 10.0 * np.log10(batch.sinr)
        snr_db = 10.0 * np.log10(batch.snr)
    for i in range(batch.n_drops):
        yield (i, int(batch.tier[i]), state_names[int(batch.state[i])],
               batch.path_loss[i], sinr_db[i], snr_db[i], rates[i])


def _cmd_mc(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    sim = montecarlo.SimConfig(drops=args.drops, seed=args.seed,
                               parallel_chunks=args.chunks)
    try:
        thresholds_db = [float(tok) for tok in
                         str(args.thresholds_db).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --thresholds-db value: {exc}") from exc
    sigma = float(np.radians(args.sigma_be_deg))
    batch = montecarlo.simulate(cfg, sim, sigma_be_rad=sigma,
                                workers=args.workers)
    # montecarlo imports nothing analytic; rates take the mean loads from here
    rates = montecarlo.drop_rates(cfg, batch, metrics.mean_loads(cfg))

    if args.trace:
        path = Path(args.trace)
        lines = ["drop_id,tier,state,path_loss,sinr_db,snr_db,rate_bps"]
        for row in _trace_rows(batch, rates):
            lines.append(",".join(
                [str(row[0]), str(row[1]), row[2]] +
                [f"{v:.9g}" for v in row[3:]]))
        path.write_text("\n".join(lines) + "\n")

    print(f"drops,{sim.drops}")
    print(f"seed,{sim.seed}")
    print(f"chunks,{sim.parallel_chunks}")
    _, _, outage, outage_se = montecarlo.empirical_association(cfg, batch)
    print(f"outage,{outage:.6g},stderr,{outage_se:.3g}")
    shares, share_ses = montecarlo.empirical_tier_share(cfg, batch)
    for k, tier in enumerate(cfg.tiers):
        print(f"assoc_{tier.name or 'tier' + str(k)},{shares[k]:.6g},"
              f"stderr,{share_ses[k]:.3g}")
    covered, covered_ses = montecarlo.empirical_coverage(
        batch, [db_to_linear(t) for t in thresholds_db], mode=args.mode)
    for t_db, p, se in zip(thresholds_db, covered, covered_ses):
        print(f"coverage_{args.mode}_{t_db:g}dB,{p:.6g},stderr,{se:.3g}")
    print(f"mean_rate_bps,{float(rates.mean()):.6g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "validate": _cmd_validate, "mc": _cmd_mc}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
