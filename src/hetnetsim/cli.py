"""Command line front end.

Subcommands:
  hetnet run <scenario.json>      execute a scenario, write CSV + manifest
  hetnet validate <config.json>   check a network config, report problems
  hetnet mc <config.json>         run the drop simulator, print a summary

Exit codes: 0 success, 1 usage, config or IO error, 2 numerical failure
(some analytic points did not converge; their rows are flagged in the CSV).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import metrics, montecarlo
from .model import DB, ConfigError, db_to_linear, load_config, read
from .scenarios import load_scenario, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    run.add_argument("--mode", choices=("sinr", "snr"),
                     default=None, help="override the scenario mode")

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
    if args.mode is not None:
        scn = replace(scn, mode=args.mode)
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


def _cmd_mc(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    sim = montecarlo.SimConfig(drops=args.drops, seed=args.seed,
                               parallel_chunks=args.chunks)
    try:
        values = [float(tok) for tok in str(args.thresholds_db).split(",")
                  if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --thresholds-db value: {exc}") from exc
    thresholds_db = [read(DB, t, "--thresholds-db") for t in values]
    sigma = float(np.radians(args.sigma_be_deg))
    batch = montecarlo.simulate(cfg, sim, sigma_be_rad=sigma,
                                workers=args.workers)
    # montecarlo imports nothing analytic; rates take the mean loads from here
    rates = montecarlo.drop_rates(cfg, batch, metrics.mean_loads(cfg))

    if args.trace:
        with np.errstate(divide="ignore"):
            sinr_db = 10.0 * np.log10(batch.sinr)
            snr_db = 10.0 * np.log10(batch.snr)
        # state -1 (outage) indexes the last name
        states = np.array(["los", "nlos", "outage"])[batch.state]
        row = "{},{},{},{:.9g},{:.9g},{:.9g},{:.9g}\n".format
        Path(args.trace).write_text(
            "drop_id,tier,state,path_loss,sinr_db,snr_db,rate_bps\n"
            + "".join(map(row, range(batch.n_drops), batch.tier.tolist(),
                          states.tolist(), batch.path_loss.tolist(),
                          sinr_db.tolist(), snr_db.tolist(), rates.tolist())))

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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
