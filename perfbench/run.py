#!/usr/bin/env python3
"""hetnetsim benchmark: end-to-end timings and a traced per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload interference_sweep --seed 1 \
        --seconds 30 --trace 0

Each workload (see workloads.py) is a list of `hetnet` command lines that
run in this process through `hetnetsim.cli.main`, the exact `hetnet run` /
`hetnet mc` code path.  One pass runs them all once.

--trace 0 repeats passes with `--workers 2` until they have taken
`--seconds` (at least three passes) and reports the end-to-end metrics:
setup_s (median over at least 9 fresh interpreters that import hetnetsim
and load the first input, one started after each pass),
wall_s (median pass time), ops_per_s (operations per second of the median
pass) and peak_rss_mb (this process or any child).

--trace 1 runs one untraced pass with `--workers 2` and one with
`--workers 1`, then alternates untraced and traced `--workers 1` passes
until they have taken `--seconds` (at least three of each), and reports the
per-layer metrics (spans.py, lower median over the traced passes), the
tracing overhead (difference of the traced and untraced medians) and the
pool's parallel efficiency.

Every pass is checked (check.py); the last line of output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  `attempted` and
`failed` count the operations of one pass, which every pass must repeat, so
they do not grow with the number of passes that fit in `--seconds`.
`--write-reference`
instead runs one `--workers 1` pass and stores its analytic values as the
committed reference for the seed.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread per process, so two pool workers never oversubscribe
# two cores; set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references"
WORK = ROOT / ".perfbench_work"

WORKERS = 2
MIN_PASSES = 3
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
             "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "coverage.kernel.calls": "count", "coverage.kernel.busy_s": "s",
    "coverage.kernel.points": "count", "coverage.kernel.nonconverged": "count",
    "quadrature.outer.calls": "count", "quadrature.outer.evals": "count",
    "quadrature.outer.panels": "count",
    "quadrature.outer.nonconverged": "count", "quadrature.outer.self_s": "s",
    "association.calls": "count", "association.busy_s": "s",
    "association.evals": "count", "association.duplicate_share": "ratio",
    "coverage.calls": "count", "coverage.threshold_points": "count",
    "coverage.self_s": "s", "coverage.assoc_recomputed": "count",
    "metrics.calls": "count", "metrics.self_s": "s",
    "metrics.zero_weight_parts": "count",
    "scenarios.jobs": "count", "scenarios.self_s": "s",
    "scenarios.csv_bytes": "bytes", "scenarios.parallel_eff": "ratio",
    "montecarlo.calls": "count", "montecarlo.drops": "count",
    "montecarlo.busy_s": "s", "montecarlo.us_per_drop": "us",
    "montecarlo.duplicate_share": "ratio",
    "cli.self_s": "s", "cli.trace_bytes": "bytes",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
    "trace.spans": "count", "trace.absent_layers": "count",
}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    sys.path.insert(0, str(SRC))
    import hetnetsim.cli
    if Path(hetnetsim.__file__).resolve().parent != SRC / "hetnetsim":
        _fail(f"imported hetnetsim from {hetnetsim.__file__}, not {SRC}")
    return hetnetsim


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(workload, inputs: Path) -> float:
    """Fresh-interpreter time to import hetnetsim and load the first input."""
    first = workload.steps[0]
    loader = ("hetnetsim.scenarios.load_scenario" if first.command == "run"
              else "hetnetsim.model.load_config")
    code = f"import sys, hetnetsim.cli; {loader}(sys.argv[1])"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(inputs / first.args[1])],
                   env=_child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_pass(cli, workload, inputs: Path, directory: Path,
             workers: int) -> tuple[float, check.PassOutput]:
    """Run every step of the workload once; returns (wall seconds, output)."""
    directory.mkdir(parents=True)
    codes, out, err = {}, {}, {}
    t0 = time.perf_counter()
    for step in workload.steps:
        argv = [step.command, str(inputs / step.args[1]), *step.args[2:]]
        if step.command == "run":
            argv += ["--out", str(directory / step.name)]
        if step.trace:
            argv += ["--trace", str(directory / step.trace)]
        argv += ["--workers", str(workers)]
        so, se = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            codes[step.name] = cli.main(argv)
        out[step.name], err[step.name] = so.getvalue(), se.getvalue()
    wall = time.perf_counter() - t0
    return wall, check.PassOutput(directory, codes, out, err)


def digest(workload, out: check.PassOutput) -> str:
    """Hash of every output byte that must not depend on timing or workers."""
    h = hashlib.sha256()
    for path in sorted(out.directory.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(str(path.relative_to(out.directory)).encode())
            h.update(path.read_bytes())
    for step in workload.steps:
        if step.command == "mc":
            h.update(out.stdout[step.name].encode())
    return h.hexdigest()


def output_bytes(workload, out: check.PassOutput) -> tuple[int, int]:
    """(bytes of scenario CSVs, bytes of `hetnet mc` traces) of one pass."""
    csv = sum(p.stat().st_size for step in workload.steps
              if step.command == "run"
              for p in (out.directory / step.name).glob("*.csv"))
    traces = sum((out.directory / step.trace).stat().st_size
                 for step in workload.steps if step.trace)
    return csv, traces


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def load_reference(seed: int, name: str) -> dict | None:
    path = REFERENCES / f"seed_{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(name)


def write_reference(seed: int, name: str, analytic: dict) -> Path:
    path = REFERENCES / f"seed_{seed}.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    data[name] = analytic
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path


def association_oracle(hetnetsim, workload, inputs: Path) -> dict:
    """Analytic per-tier association of every `hetnet mc` input config."""
    oracle = {}
    for step in workload.steps:
        if step.command == "mc":
            cfg = hetnetsim.model.load_config(str(inputs / step.args[1]))
            table = hetnetsim.association.association_table(cfg)
            oracle[step.args[1]] = [float(p) for p in table.per_tier]
    return oracle


class Totals:
    """Problems found over the passes of a run, and the operation counts of
    one pass, which every later pass must repeat."""

    def __init__(self):
        self.counts: tuple[int, int, int] | None = None
        self.passes = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def add(self, res: check.CheckResult, digest_value: str, label: str):
        counts = (res.attempted, res.failed, res.nonconverged)
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.problems.append(
                f"{label}: (attempted, failed, nonconverged) = {counts}, "
                f"first pass {self.counts}")
        self.passes += 1
        self.problems += [f"{label}: {p}" for p in res.problems]
        self.digests.add(digest_value)
        if len(self.digests) > 1:
            self.problems.append(f"{label}: outputs differ from an earlier "
                                 "pass (CSV bytes, mc summary or trace)")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's analytic values as reference")
    args = parser.parse_args(argv)

    if not (SRC / "hetnetsim" / "__init__.py").is_file():
        _fail(f"no hetnetsim sources under {SRC}; run from a full checkout")
    wl = workloads.build(args.workload, args.seed)
    work = WORK / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    try:
        inputs = work / "inputs"
        wl.write_inputs(inputs)
        # one sample before the program is imported here, so that the first
        # interpreter start is not helped by this process's imports
        setup_times = [measure_setup(wl, inputs)] if args.trace == 0 else []
        hetnetsim = _import_program()
        cli = sys.modules["hetnetsim.cli"]
        oracle = association_oracle(hetnetsim, wl, inputs)
        reference = (None if args.write_reference
                     else load_reference(args.seed, wl.name))
        totals = Totals()
        n_pass = 0

        def one_pass(workers: int, tracer=None):
            nonlocal n_pass
            n_pass += 1
            directory = work / f"pass{n_pass}"
            if tracer is None:
                wall, out = run_pass(cli, wl, inputs, directory, workers)
            else:
                with tracer:
                    wall, out = run_pass(cli, wl, inputs, directory, workers)
            res = check.check_pass(wl, out, reference, oracle)
            label = f"pass {n_pass} (workers {workers}" + \
                    (", traced)" if tracer is not None else ")")
            totals.add(res, digest(wl, out), label)
            sizes = output_bytes(wl, out)
            shutil.rmtree(directory)
            return wall, res, sizes

        if args.write_reference:
            _, res, _ = one_pass(1)
            path = write_reference(args.seed, wl.name, res.analytic)
            print(f"wrote {sum(len(v) for v in res.analytic.values())} "
                  f"reference values to {path.relative_to(ROOT)}")
            for p in totals.problems:
                print(f"problem: {p}", file=sys.stderr)
            return 0

        print(f"hetnetsim benchmark: workload={wl.name} seed={args.seed} "
              f"trace={args.trace} seconds={args.seconds:g}")
        print(f"host: nproc={os.cpu_count()} python={platform.python_version()} "
              f"numpy={sys.modules['numpy'].__version__} "
              f"scipy={__import__('scipy').__version__} workers={WORKERS} "
              f"threads_per_process=1")
        print("reference: " + (f"perfbench/references/seed_{args.seed}.json"
                               if reference is not None else
                               "none committed for this seed; invariant "
                               "checks only")
              + (" (held-out seed: confirm claims, do not tune on it)"
                 if args.seed == workloads.HELD_OUT_SEED else ""))
        drops = sum(step.drops for step in wl.steps)
        metrics: dict[str, float] = {}
        if args.trace == 0:
            # Set-up samples are taken between passes rather than all at
            # once, so that they see the same drift in machine speed as the
            # passes do; `--seconds` counts pass time only.
            walls, res = [], None
            while len(walls) < MIN_PASSES or sum(walls) < args.seconds:
                wall, res, _ = one_pass(WORKERS)
                walls.append(wall)
                setup_times.append(measure_setup(wl, inputs))
            while len(setup_times) < SETUP_REPEATS:
                setup_times.append(measure_setup(wl, inputs))
            wall = statistics.median(walls)
            ops = res.attempted
            metrics = {"setup_s": statistics.median(setup_times),
                       "wall_s": wall, "ops_per_s": ops / wall,
                       "peak_rss_mb": peak_rss_mb()}
            print(f"setup_s {_fmt(metrics['setup_s'])} s (median of "
                  f"{len(setup_times)} fresh interpreters; min "
                  f"{_fmt(min(setup_times))}, max {_fmt(max(setup_times))})")
            print(f"wall_s {_fmt(wall)} s (median of {len(walls)} passes: "
                  + " ".join(f"{w:.3f}" for w in walls) + ")")
            print(f"ops_per_s {_fmt(ops / wall)} 1/s ({ops} operations per pass)")
            if res.points:
                print(f"points_per_s {_fmt(res.points / wall)} 1/s "
                      f"({res.points} analytic values per pass)")
            if drops:
                print(f"drops_per_s {_fmt(drops / wall)} 1/s "
                      f"({drops} drops requested per pass)")
            print(f"peak_rss_mb {_fmt(metrics['peak_rss_mb'])} MB")
        else:
            # The first in-process pass starts from a fresh heap, as a new
            # `hetnet run --workers 1` process and every pool worker do, so
            # it is the one compared with the pool.  Later passes reuse the
            # heap and the library's caches; untraced and traced ones
            # alternate so that both medians see the same drift in machine
            # speed, and the tracing overhead is taken between the medians.
            w2 = one_pass(WORKERS)[0]
            w1_cold = one_pass(1)[0]
            plain, traced, summaries = [], [], []
            while (len(traced) < MIN_PASSES
                   or sum(plain) + sum(traced) < args.seconds):
                plain.append(one_pass(1)[0])
                tracer = spans.Tracer()
                wall, _, (csv_bytes, trace_bytes) = one_pass(1, tracer)
                traced.append(wall)
                summaries.append(spans.summarize(tracer.spans, tracer.absent))
            # counts repeat exactly from pass to pass; times take the median
            # (the lower middle one, so that every value is one measured)
            metrics = {name: statistics.median_low(s[name] for s in summaries)
                       for name in summaries[0]}
            w1, w1_traced = statistics.median(plain), statistics.median(traced)
            metrics["scenarios.csv_bytes"] = csv_bytes
            metrics["scenarios.parallel_eff"] = w1_cold / (WORKERS * w2)
            metrics["cli.trace_bytes"] = trace_bytes
            metrics["trace.overhead_s"] = w1_traced - w1
            metrics["trace.overhead_share"] = (w1_traced - w1) / w1
            print(f"passes: workers {WORKERS} {_fmt(w2)} s, workers 1 cold "
                  f"{_fmt(w1_cold)} s, workers 1 untraced "
                  + " ".join(f"{w:.3f}" for w in plain) + " (median "
                  f"{_fmt(w1)} s), traced "
                  + " ".join(f"{w:.3f}" for w in traced) + " (median "
                  f"{_fmt(w1_traced)} s)")
            for name in PER_LAYER_UNITS:
                print(f"{name} {_fmt(metrics[name])} {PER_LAYER_UNITS[name]}")
            if tracer.absent:
                print("absent (not wrapped, metrics read 0): "
                      + ", ".join(tracer.absent))
        attempted, failed, nonconverged = totals.counts
        print(f"operations per pass: attempted {attempted}, failed {failed} "
              f"(nonconverged {nonconverged}, other {failed - nonconverged}); "
              f"{totals.passes} passes checked")
        for p in totals.problems[:20]:
            print(f"problem: {p}", file=sys.stderr)
        units = E2E_UNITS if args.trace == 0 else PER_LAYER_UNITS
        result = {"correct": not totals.problems,
                  "attempted": attempted, "failed": failed,
                  "metrics": {name: {"value": metrics[name], "unit": unit}
                              for name, unit in units.items()}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
