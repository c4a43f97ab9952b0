"""Malformed JSON input: `hetnet` exits 1 with a message naming the key.

A single-field mutation of a config or of a scenario grid either leaves a
valid input (exit 0) or is refused (exit 1) with a message on stderr that
names the key it changed.  Nothing raises out of `cli.main`.
"""

import contextlib
import copy
import io
import json
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hetnetsim import cli

TABLE1 = json.loads(resources.files("hetnetsim").joinpath(
    "data", "table1.json").read_text())

# the smallest grid of each experiment; HYBRID_* run on the hybrid config
GRIDS = {
    "SINR_VS_SNR": {"threshold_db": [0], "tier_counts": [1]},
    "GAIN_SWEEP": {"threshold_db": [0], "main_gain_db": [10]},
    "BALL_PARAMS": {"threshold_db": [0], "variants": [
        {"name": "v", "tier": 0, "radii": [30, 80], "los_prob": [0.9, 0.1]}]},
    "BIAS_SWEEP": {"bias_db": [0], "tiers": [1], "threshold_db": 0},
    "BEAM_ERROR": {"threshold_db": [0], "sigma_be_deg": [5]},
    "RATE": {"rate_bps": [1e8]},
    "ENERGY": {"bias_db": [0], "tier": 1, "threshold_db": 0, "variants": [
        {"name": "v", "density_scale": {"0": 2}}]},
    "ASSOC_VS_BIAS": {"bias_db": [0], "tier": 1},
    "HYBRID_BIAS": {"threshold_db": [0], "bias_db": [5]},
    "HYBRID_DENSITY": {"threshold_db": [0], "density_mult": [2]},
}

DELETE = object()
# one value of each JSON type, and a missing key; huge numbers are floats,
# never huge JSON integers, since an integer Nakagami order N sizes an
# arange(N) in the coverage sum
VALUES = ("1", None, [1.0], {"k": 1}, True, 1e308, -1e308, DELETE)


def paths(node, prefix=()):
    """The path of every value inside a JSON value, parents first."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutated(body, path, value):
    body = copy.deepcopy(body)
    node = body
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return body


def hetnet(argv) -> tuple[int, str]:
    """(exit code, stderr) of one in-process `hetnet` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


def run(tmp_path, body) -> tuple[int, str]:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(body))
    return hetnet(["run", str(path), "--out", str(tmp_path / "out")])


def assert_refused_by_name(result, path):
    code, err = result
    assert code in (0, 1), (path, code, err)
    key = [k for k in path if isinstance(k, str)][-1]
    assert code == 0 or key in err, (path, err)
    assert "Traceback" not in err


_FUZZ = dict(derandomize=True, deadline=None,
             suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(max_examples=120, **_FUZZ)
@given(st.sampled_from(list(paths(TABLE1))), st.sampled_from(VALUES))
def test_config_mutations_validate_and_run_or_name_the_key(tmp_path, path,
                                                           value):
    config = mutated(TABLE1, path, value)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    assert_refused_by_name(hetnet(["validate", str(config_file)]), path)
    assert_refused_by_name(run(tmp_path, {
        "name": "fuzz", "experiment": "SINR_VS_SNR", "config": config,
        "mode": "snr", "grid": GRIDS["SINR_VS_SNR"]}), path)


@settings(max_examples=250, **_FUZZ)
@given(st.sampled_from([(experiment, path) for experiment, grid in GRIDS.items()
                        for path in paths(grid)]),
       st.sampled_from(VALUES))
def test_grid_mutations_run_or_name_the_key(tmp_path, case, value):
    experiment, path = case
    body = {"name": "fuzz", "experiment": experiment, "mode": "snr",
            "config": "bundled:" + ("hybrid" if experiment.startswith("HYBRID")
                                    else "table1"),
            "grid": mutated(GRIDS[experiment], path, value)}
    assert_refused_by_name(run(tmp_path, body), ("grid",) + path)


# one input per (exception, line) class that ended in a traceback before
# every key had a kind, and the config that exited 2 (not converged) for a
# density whose mean station count overflows
_BASELINE = [
    ("fading-object", "config", ("fading",), "1",
     "fading must be an object, got '1'"),
    ("fading-order-huge", "config", ("fading", "n_los"), 1e308,
     "fading.n_los must be an integer, got 1e+308"),
    ("tiers-not-a-list", "config", ("tiers",), "1",
     "tiers must be a list, got '1'"),
    ("tier-a-number", "config", ("tiers", 1), 3,
     "tiers entries must be objects with density_per_m2, tx_power_dbm, "
     "balls, got 3"),
    ("alpha-overflows", "config", ("tiers", 0, "balls", 0, "alpha_los"),
     1e308, "tiers[0].balls[0].kappa_los_db (or the Friis loss at "
     "carrier_hz) * radius_m ** alpha_los: must be finite and > 0"),
    ("density-mass-overflows", "config", ("tiers", 0, "density_per_m2"),
     1e308, "tiers[0].density_per_m2 * pi * radius_m ** 2: must be finite"),
    ("threshold-nested", "SINR_VS_SNR", ("threshold_db", 0), [5],
     "grid.threshold_db[0]: must be a finite dB value with a finite linear "
     "value > 0, got [5]"),
    ("threshold-overflows", "SINR_VS_SNR", ("threshold_db", 0), 1e308,
     "grid.threshold_db[0]: must be a finite dB value with a finite linear "
     "value > 0, got 1e+308"),
    ("gain-nested", "GAIN_SWEEP", ("main_gain_db", 0), [5],
     "grid.main_gain_db[0] must be a number, got [5]"),
    ("radii-a-number", "BALL_PARAMS", ("variants", 0, "radii"), 5,
     "grid.variants[0].radii must be a list, got 5"),
    ("radius-null", "BALL_PARAMS", ("variants", 0, "radii", 0), None,
     "grid.variants[0].radii[0] must be a number, got None"),
    ("bias-nested", "BIAS_SWEEP", ("bias_db", 0), [5],
     "grid.bias_db[0] must be a number, got [5]"),
    ("bias-threshold-null", "BIAS_SWEEP", ("threshold_db",), None,
     "grid.threshold_db: must be a finite dB value with a finite linear "
     "value > 0, got None"),
    ("rate-nested", "RATE", ("rate_bps", 0), [5],
     "grid.rate_bps[0] must be a number, finite and > 0, got [5]"),
    ("density-scale-a-number", "ENERGY", ("variants", 0, "density_scale"), 2,
     "grid.variants[0].density_scale must be an object, got 2"),
    ("density-scale-null", "ENERGY",
     ("variants", 0, "density_scale", "0"), None,
     "grid.variants[0].density_scale.0 must be a number, got None"),
]


@pytest.mark.parametrize("where, path, value, message",
                         [case[1:] for case in _BASELINE],
                         ids=[case[0] for case in _BASELINE])
def test_baseline_tracebacks_exit_one_naming_the_key(tmp_path, where, path,
                                                     value, message):
    if where == "config":
        body = {"name": "b", "experiment": "SINR_VS_SNR", "mode": "snr",
                "config": mutated(TABLE1, path, value),
                "grid": GRIDS["SINR_VS_SNR"]}
    else:
        body = {"name": "b", "experiment": where, "mode": "snr",
                "config": "bundled:table1",
                "grid": mutated(GRIDS[where], path, value)}
    code, err = run(tmp_path, body)
    assert code == 1
    assert message in err
    assert not (tmp_path / "out").exists()
