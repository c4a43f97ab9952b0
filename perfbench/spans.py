"""Per-layer tracing by wrapping hetnetsim's module-level functions.

Nothing in the library changes: each layer's entry functions are replaced,
in every hetnetsim module namespace that holds them, by a wrapper that
records a span (layer, name, parent span, start, end, counters read from the
arguments and the result).  Spans stay in memory and are reduced to the
per-layer metrics after the pass.  A wrapped name that no longer exists is
reported as absent instead of failing the run.

Only single-process passes (`--workers 1`) are traced, so every span is in
this process and spans never overlap except by nesting.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function, layer).  `model` and `intensity` are too fine-grained to
# wrap without distorting the timing; their cost lands in their callers'
# self time.
TARGETS = (
    ("cli", "main", "cli"),
    ("scenarios", "run_scenario", "scenarios"),
    ("scenarios", "_eval_analytic", "scenarios"),
    ("scenarios", "_eval_mc", "scenarios"),
    ("metrics", "rate_coverage", "metrics"),
    ("metrics", "energy_efficiency", "metrics"),
    ("coverage", "coverage_with_beam_error", "metrics"),
    ("coverage", "sinr_coverage", "coverage"),
    ("coverage", "snr_coverage_closed_form", "coverage"),
    ("coverage", "_interference_batch", "coverage.kernel"),
    ("quadrature", "integrate_function", "quadrature"),
    ("quadrature", "integrate", "quadrature"),
    ("association", "association_table", "association"),
    ("montecarlo", "simulate", "montecarlo"),
)

PACKAGE = "hetnetsim"

# index of each field in a span record
LAYER, NAME, PARENT, START, END, NOTE = range(6)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _note_cli(args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv") or sys.argv[1:]
    return {"command": argv[0] if argv else None}


def _note_beam(args, kwargs, result):
    f = getattr(result, "meta", {}).get("alignment_probability")
    if f is None:
        return {}
    weights = (f * f, 2.0 * f * (1.0 - f), (1.0 - f) * (1.0 - f))
    return {"zero_weight_parts": sum(1 for w in weights if w == 0.0)}


def _note_coverage(args, kwargs, result):
    x = getattr(result, "x", ())
    return {"points": len(x), "assoc_recomputed": kwargs.get("assoc") is None}


def _note_kernel(args, kwargs, result):
    l = _arg(args, kwargs, 5, "l")
    n_values = _arg(args, kwargs, 6, "n_values")
    converged = result[1] if isinstance(result, tuple) else True
    return {"points": len(n_values) * len(l), "converged": bool(converged)}


def _note_quadrature(args, kwargs, result):
    return {"evals": getattr(result, "n_evals", 0),
            "panels": getattr(result, "n_panels", 0),
            "converged": bool(getattr(result, "converged", True))}


def _note_association(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    tols = (_arg(args, kwargs, 1, "abs_tol"), _arg(args, kwargs, 2, "rel_tol"))
    return {"key": (repr(cfg), tols)}


def _note_simulate(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    sim = _arg(args, kwargs, 1, "sim")
    loads = kwargs.get("loads")
    key = (repr(cfg), sim.seed, sim.drops, sim.parallel_chunks,
           float(kwargs.get("sigma_be_rad", 0.0)),
           None if loads is None else tuple(float(v) for v in loads))
    return {"drops": int(sim.drops), "key": key}


NOTES = {
    "main": _note_cli,
    "coverage_with_beam_error": _note_beam,
    "sinr_coverage": _note_coverage,
    "snr_coverage_closed_form": _note_coverage,
    "_interference_batch": _note_kernel,
    "integrate_function": _note_quadrature,
    "integrate": _note_quadrature,
    "association_table": _note_association,
    "simulate": _note_simulate,
}


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        def wrapper(*args, **kwargs):
            span = [layer, name, stack[-1] if stack else -1, perf_counter(),
                    0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for mod_name, attr, layer in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            orig = getattr(home, attr, None) if home is not None else None
            if not callable(orig):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(orig, layer, attr)
            # names bound at import (e.g. metrics.sinr_coverage) are patched
            # wherever the same function object appears
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, orig in reversed(self._restore):
            setattr(mod, key, orig)
        self._restore.clear()


def summarize(spans: list[list], absent: list[str]) -> dict[str, float]:
    """Reduce spans to the per-layer metrics (see perfbench/README.md)."""
    n = len(spans)
    child_time = [0.0] * n
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def dur(i):
        return spans[i][END] - spans[i][START]

    def self_time(i):
        return dur(i) - child_time[i]

    def context(i):
        """Layer of the nearest ancestor outside `spans[i]`'s own layer."""
        layer = spans[i][LAYER]
        p = spans[i][PARENT]
        while p >= 0 and spans[p][LAYER] == layer:
            p = spans[p][PARENT]
        return spans[p][LAYER] if p >= 0 else None

    def outermost(i):
        p = spans[i][PARENT]
        return p < 0 or spans[p][LAYER] != spans[i][LAYER]

    by_layer: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_layer.setdefault(span[LAYER], []).append(i)

    def idx(layer):
        return by_layer.get(layer, [])

    def note(i, key, default=0):
        return (spans[i][NOTE] or {}).get(key, default)

    m: dict[str, float] = {}

    kernel = idx("coverage.kernel")
    m["coverage.kernel.calls"] = len(kernel)
    m["coverage.kernel.busy_s"] = sum(dur(i) for i in kernel if outermost(i))
    m["coverage.kernel.points"] = sum(note(i, "points") for i in kernel)
    m["coverage.kernel.nonconverged"] = sum(
        1 for i in kernel if not note(i, "converged", True))

    quad = idx("quadrature")
    outer = [i for i in quad if context(i) == "coverage"]
    outer_top = [i for i in outer if outermost(i)]
    m["quadrature.outer.calls"] = len(outer_top)
    m["quadrature.outer.evals"] = sum(note(i, "evals") for i in outer_top)
    m["quadrature.outer.panels"] = sum(note(i, "panels") for i in outer_top)
    m["quadrature.outer.nonconverged"] = sum(
        1 for i in outer_top if not note(i, "converged", True))
    m["quadrature.outer.self_s"] = sum(self_time(i) for i in outer)

    assoc = [i for i in idx("association") if outermost(i)]
    seen, dup = set(), 0
    for i in assoc:
        key = note(i, "key", None)
        dup += key in seen
        seen.add(key)
    m["association.calls"] = len(assoc)
    m["association.busy_s"] = sum(dur(i) for i in assoc)
    m["association.evals"] = sum(
        note(i, "evals") for i in quad
        if outermost(i) and context(i) == "association")
    m["association.duplicate_share"] = dup / len(assoc) if assoc else 0.0

    cov = idx("coverage")
    m["coverage.calls"] = len(cov)
    m["coverage.threshold_points"] = sum(note(i, "points") for i in cov)
    m["coverage.self_s"] = sum(self_time(i) for i in cov)
    m["coverage.assoc_recomputed"] = sum(
        1 for i in cov if note(i, "assoc_recomputed", False))

    met = idx("metrics")
    m["metrics.calls"] = len(met)
    m["metrics.self_s"] = sum(self_time(i) for i in met)
    m["metrics.zero_weight_parts"] = sum(
        note(i, "zero_weight_parts") for i in met)

    scn = idx("scenarios")
    m["scenarios.jobs"] = sum(1 for i in scn if spans[i][NAME] != "run_scenario")
    m["scenarios.self_s"] = sum(self_time(i) for i in scn)

    mc = idx("montecarlo")
    seen, drops, dup_drops = set(), 0, 0
    for i in mc:
        key, d = note(i, "key", None), note(i, "drops")
        drops += d
        dup_drops += d if key in seen else 0
        seen.add(key)
    busy = sum(self_time(i) for i in mc)
    m["montecarlo.calls"] = len(mc)
    m["montecarlo.drops"] = drops
    m["montecarlo.busy_s"] = busy
    m["montecarlo.us_per_drop"] = 1e6 * busy / drops if drops else 0.0
    m["montecarlo.duplicate_share"] = dup_drops / drops if drops else 0.0

    m["cli.self_s"] = sum(self_time(i) for i in idx("cli")
                          if note(i, "command", None) == "mc")

    m["trace.spans"] = n
    m["trace.absent_layers"] = len(absent_layers(absent))
    return m


def absent_layers(absent: list[str]) -> list[str]:
    """Layers none of whose wrapped functions exist; their metrics read 0."""
    present: dict[str, bool] = {}
    for mod_name, attr, layer in TARGETS:
        ok = f"{mod_name}.{attr}" not in absent
        present[layer] = present.get(layer, False) or ok
    return [layer for layer, ok in present.items() if not ok]
