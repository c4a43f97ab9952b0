"""Scenario engine: loading, curve construction, CSV/manifest output."""

import json
import math
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from hetnetsim import association, coverage, montecarlo, scenarios
from hetnetsim.association import association_table
from hetnetsim.coverage import coverage_with_beam_error, sinr_coverage
from hetnetsim.metrics import energy_efficiency, mean_loads, rate_coverage
from hetnetsim.model import (ConfigError, bundled_config, db_to_linear,
                             network_from_dict, with_balls, with_bias,
                             with_density_scale)
from hetnetsim.scenarios import (Experiment, Scenario, _tag, load_scenario,
                                 run_scenario)

BUNDLED_SCENARIOS = resources.files("hetnetsim").joinpath("data", "scenarios")


def tier_dict(name, density, radius, beta, p_dbm=33):
    return {"name": name, "density_per_m2": density, "tx_power_dbm": p_dbm,
            "bias_db": 0, "noise_figure_db": 10, "static_power_w": 10,
            "amp_slope": 4, "band": "mmwave",
            "balls": [{"radius_m": radius, "los_prob": beta,
                       "alpha_los": 2, "alpha_nlos": 4}]}


def small_config(n_tiers=1):
    tiers = [tier_dict("a", 3e-4, 60, 0.8)]
    if n_tiers > 1:
        tiers.append(tier_dict("b", 5e-4, 40, 1.0, p_dbm=23))
    return {"ue_density_per_m2": 1e-3, "bandwidth_hz": 1e9,
            "carrier_hz": 2.8e10,
            "antenna": {"main_db": 10, "side_db": -10, "beamwidth_deg": 30},
            "fading": {"n_los": 3, "n_nlos": 2}, "tiers": tiers}


def write_scenario(tmp_path: Path, body: dict, name="scn.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


def basic_scenario(tmp_path, **overrides) -> Path:
    body = {"name": "basic", "experiment": "SINR_VS_SNR",
            "config": small_config(),
            "grid": {"threshold_db": [-5.0, 5.0], "tier_counts": [1]},
            "monte_carlo": {"drops": 2000, "seed": 7, "chunks": 4}}
    body.update(overrides)
    return write_scenario(tmp_path, body)


def read_csv(path: Path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_load_scenario_inline_config(tmp_path):
    scn = load_scenario(basic_scenario(tmp_path))
    assert scn.name == "basic"
    assert scn.experiment is Experiment.SINR_VS_SNR
    assert scn.config.n_tiers == 1
    assert scn.monte_carlo.drops == 2000
    assert scn.monte_carlo.parallel_chunks == 4
    assert scn.mode == "sinr"


def test_load_scenario_bundled_and_relative(tmp_path):
    scn = load_scenario(basic_scenario(tmp_path, config="bundled:table1"))
    assert scn.config.n_tiers == 3
    for load in (lambda: bundled_config("nope"), lambda: load_scenario(
            basic_scenario(tmp_path, config="bundled:nope"))):
        with pytest.raises(ConfigError, match=r"no bundled config 'nope' "
                           r"\(bundled: hybrid, table1\)"):
            load()
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(json.dumps(small_config()))
    scn = load_scenario(basic_scenario(tmp_path, config="net.json"))
    assert scn.config.n_tiers == 1
    assert scn.config_path.endswith("net.json")


def test_load_scenario_rejects_malformed(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "missing.json")
    for body in (
        {"experiment": "SINR_VS_SNR", "config": small_config(), "grid": {}},
        {"name": "x", "experiment": "NOPE", "config": small_config(),
         "grid": {"threshold_db": [0]}},
        {"name": "x", "experiment": "SINR_VS_SNR", "config": small_config(),
         "grid": {"threshold_db": []}},
        {"name": "x", "experiment": "SINR_VS_SNR", "config": small_config(),
         "grid": {"threshold_db": [0]}, "mode": "psychic"},
        {"name": "x", "experiment": "SINR_VS_SNR", "config": small_config(),
         "grid": {"threshold_db": [0]}, "mode": "closed24"},
        {"name": "x", "experiment": "SINR_VS_SNR", "config": small_config(),
         "grid": {"threshold_db": [0]}, "exclusion_zone": "none"},
        {"name": "x", "experiment": "SINR_VS_SNR", "config": 7,
         "grid": {"threshold_db": [0]}},
        {"name": "x", "experiment": "SINR_VS_SNR", "config": small_config(),
         "grid": {"threshold_db": [0]}, "monte_carlo": {"drops": 0}},
        {"name": "x", "experiment": "SINR_VS_SNR", "config": small_config(),
         "grid": {"threshold_db": [0]}, "monte_carlo": {"seed": 1}},
        {"name": "x", "experiment": "SINR_VS_SNR", "config": small_config(),
         "grid": {"threshold_db": [0]}, "monte_carlo": 5},
    ):
        with pytest.raises(ConfigError):
            load_scenario(write_scenario(tmp_path, body))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(bad)


def test_run_scenario_outputs_and_determinism(tmp_path):
    scn = load_scenario(basic_scenario(tmp_path))
    out1 = run_scenario(scn, output_dir=tmp_path / "run1")
    out2 = run_scenario(scn, output_dir=tmp_path / "run2", workers=2)
    assert out1.files == ("sinr_tiers1.csv", "snr_tiers1.csv")
    assert not out1.flagged
    for fname in out1.files:
        a = (tmp_path / "run1" / fname).read_bytes()
        b = (tmp_path / "run2" / fname).read_bytes()
        assert a == b
    m1 = json.loads(out1.manifest_path.read_text())
    m2 = json.loads((tmp_path / "run2" / "manifest.json").read_text())
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2
    assert m1["files"] == list(out1.files)
    assert len(m1["config_sha256"]) == 64
    assert m1["tolerances"] == {
        "outer_abs_tol": coverage.OUTER_ABS_TOL,
        "outer_rel_tol": coverage.OUTER_REL_TOL,
        "assoc_abs_tol": association.ABS_TOL,
        "assoc_rel_tol": association.REL_TOL}

    header, rows = read_csv(tmp_path / "run1" / "sinr_tiers1.csv")
    assert header == ["x", "analytic", "quad_error", "flag",
                      "monte_carlo", "mc_stderr"]
    assert len(rows) == 2
    for row in rows:
        analytic, mc, se = float(row[1]), float(row[4]), float(row[5])
        assert 0.0 <= analytic <= 1.0
        assert row[3] == ""
        assert abs(analytic - mc) <= 5.0 * se + 0.02
    # sinr curve sits below the snr curve pointwise
    _, snr_rows = read_csv(tmp_path / "run1" / "snr_tiers1.csv")
    for r_sinr, r_snr in zip(rows, snr_rows):
        assert float(r_sinr[1]) <= float(r_snr[1]) + 1e-12


def test_run_scenario_grid_error_creates_nothing(tmp_path):
    scn = load_scenario(basic_scenario(tmp_path))
    broken = replace(scn, grid={"threshold_db": []})
    target = tmp_path / "never"
    with pytest.raises(ConfigError):
        run_scenario(broken, output_dir=target)
    assert not target.exists()


def test_energy_scenario_files(tmp_path):
    body = {"name": "ee", "experiment": "ENERGY", "config": small_config(2),
            "grid": {"bias_db": [0.0, 10.0], "tier": 1, "threshold_db": 0.0,
                     "variants": [{"name": "denser_b",
                                   "density_scale": {"1": 2.0}}]}}
    scn = load_scenario(write_scenario(tmp_path, body))
    result = run_scenario(scn, output_dir=tmp_path / "ee")
    assert result.files == ("ee_base.csv", "ee_denser_b.csv")
    _, rows = read_csv(tmp_path / "ee" / "ee_base.csv")
    assert [float(r[0]) for r in rows] == [0.0, 10.0]
    assert all(float(r[1]) > 0.0 for r in rows)


def test_assoc_scenario_with_mc_points(tmp_path):
    body = {"name": "assq", "experiment": "ASSOC_VS_BIAS",
            "config": small_config(2),
            "grid": {"bias_db": [0.0, 10.0], "tier": 1},
            "monte_carlo": {"drops": 4000, "seed": 5, "chunks": 2}}
    scn = load_scenario(write_scenario(tmp_path, body))
    result = run_scenario(scn, output_dir=tmp_path / "assq")
    assert result.files == ("assoc_a.csv", "assoc_b.csv")
    _, rows_a = read_csv(tmp_path / "assq" / "assoc_a.csv")
    _, rows_b = read_csv(tmp_path / "assq" / "assoc_b.csv")
    for ra, rb in zip(rows_a, rows_b):
        assert float(ra[1]) + float(rb[1]) <= 1.0 + 1e-9
        assert abs(float(ra[1]) - float(ra[4])) <= 5 * float(ra[5]) + 0.02
    # boosting tier b's bias moves mass from a to b
    assert float(rows_b[1][1]) > float(rows_b[0][1])
    assert float(rows_a[1][1]) < float(rows_a[0][1])


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name, wherever a hetnetsim module holds it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("hetnetsim")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_sinr_vs_snr_simulates_each_drop_set_once(tmp_path, monkeypatch):
    body = {"name": "both", "experiment": "SINR_VS_SNR",
            "config": small_config(2),
            "grid": {"threshold_db": [-5.0, 5.0], "tier_counts": [1, 2]},
            "monte_carlo": {"drops": 2000, "seed": 7, "chunks": 2}}
    scn = load_scenario(write_scenario(tmp_path, body))
    thresholds = [db_to_linear(t) for t in body["grid"]["threshold_db"]]
    # the CSV of one curve as computed on its own: analytic points one at a
    # time and a separate simulation per curve
    expected = {}
    for n in (1, 2):
        cfg = scn.config.subset(tuple(range(n)))
        for mode in ("sinr", "snr"):
            mc, se = montecarlo.empirical_coverage(
                montecarlo.simulate(cfg, scn.monte_carlo), thresholds,
                mode=mode)
            lines = ["x,analytic,quad_error,flag,monte_carlo,mc_stderr"]
            for i, (t_db, t) in enumerate(zip(body["grid"]["threshold_db"],
                                              thresholds)):
                cv = sinr_coverage(cfg, [t], mode=mode)
                lines.append(",".join(f"{float(v):.12g}" for v in (
                    t_db, cv.probability[0], cv.error[0]))
                    + f",,{float(mc[i]):.12g},{float(se[i]):.12g}")
            expected[f"{mode}_tiers{n}.csv"] = "\n".join(lines) + "\n"

    calls = _count_calls(monkeypatch, montecarlo, "simulate")
    result = run_scenario(scn, output_dir=tmp_path / "out", workers=1)
    assert len(calls) == 2
    assert result.files == tuple(sorted(expected))
    for name, text in expected.items():
        assert (tmp_path / "out" / name).read_bytes() == text.encode()


def test_assoc_vs_bias_tabulates_and_simulates_each_config_once(
        tmp_path, monkeypatch):
    body = {"name": "assoc3", "experiment": "ASSOC_VS_BIAS",
            "config": "bundled:table1",
            "grid": {"bias_db": [0.0, 4.0, 8.0, 12.0]},
            "monte_carlo": {"drops": 2000, "seed": 3, "chunks": 2}}
    scn = load_scenario(write_scenario(tmp_path, body))
    tables = _count_calls(monkeypatch, association, "association_table")
    drops = _count_calls(monkeypatch, montecarlo, "simulate")
    result = run_scenario(scn, output_dir=tmp_path / "out", workers=1)
    assert len(result.files) == 3
    assert len(tables) == 4
    assert len(drops) == 4


def test_bias_sweep_curves_share_one_drop_set_per_bias(tmp_path, monkeypatch):
    body = {"name": "sweep", "experiment": "BIAS_SWEEP",
            "config": small_config(2),
            "grid": {"bias_db": [0.0, 5.0, 10.0]},
            "monte_carlo": {"drops": 2000, "seed": 11, "chunks": 2}}
    scn = load_scenario(write_scenario(tmp_path, body))
    sim = scn.monte_carlo
    # each curve's Monte Carlo columns as reduced from its own simulation
    expected = {"coverage_vs_bias.csv": [], "assoc_a_vs_bias.csv": [],
                "assoc_b_vs_bias.csv": []}
    for b in body["grid"]["bias_db"]:
        cfg = with_bias(scn.config, {1: db_to_linear(b)})
        mc, se = montecarlo.empirical_coverage(
            montecarlo.simulate(cfg, sim), [1.0], mode="sinr")
        expected["coverage_vs_bias.csv"].append((mc[0], se[0]))
        joint, _, _, _ = montecarlo.empirical_association(
            cfg, montecarlo.simulate(cfg, sim))
        for k, name in enumerate(("assoc_a_vs_bias.csv",
                                  "assoc_b_vs_bias.csv")):
            p = float(joint[k].sum())
            expected[name].append((p, math.sqrt(p * (1.0 - p) / sim.drops)))

    calls = _count_calls(monkeypatch, montecarlo, "simulate")
    result = run_scenario(scn, output_dir=tmp_path / "out", workers=1)
    assert len(calls) == 3
    assert result.files == tuple(sorted(expected))
    for name, columns in expected.items():
        header, rows = read_csv(tmp_path / "out" / name)
        assert header[4:] == ["monte_carlo", "mc_stderr"]
        assert [row[4:] for row in rows] == [
            [f"{float(v):.12g}" for v in pair] for pair in columns]


# each body names a tier that the 3-tier table1 network does not have
_BAD_TIER_GRIDS = (
    ("ASSOC_VS_BIAS", {"bias_db": [0.0], "tier": 5}, "tier index 5"),
    ("BIAS_SWEEP", {"bias_db": [0.0], "tiers": [7]}, "tier index 7"),
    ("BALL_PARAMS", {"threshold_db": [0.0], "variants": [
        {"name": "v", "tier": -1, "radii": [30], "los_prob": [1.0]}]},
     "tier index -1"),
    ("ENERGY", {"bias_db": [0.0], "variants": [
        {"name": "v", "density_scale": {"9": 2.0}}]}, "tier index 9"),
    ("BALL_PARAMS", {"threshold_db": [0.0], "variants": [
        {"name": "v", "tier": 4, "radii": [30], "los_prob": [1.0]}]},
     "tier index 4"),
    ("SINR_VS_SNR", {"threshold_db": [0.0], "tier_counts": [5]},
     "tier index 3"),
    ("SINR_VS_SNR", {"threshold_db": [0.0], "tier_counts": [0]},
     "at least one tier index"),
    ("ASSOC_VS_BIAS", {"bias_db": [0.0], "tier": None},
     "grid.tier must be an integer, got None"),
    ("ENERGY", {"bias_db": [0.0], "tier": 1.7},
     "grid.tier must be an integer, got 1.7"),
    ("BIAS_SWEEP", {"bias_db": [0.0], "tiers": [1, None]},
     "grid.tiers must be an integer, got None"),
    ("BALL_PARAMS", {"threshold_db": [0.0], "variants": [
        {"name": "v", "tier": 0.5, "radii": [30], "los_prob": [1.0]}]},
     "grid.variants.tier must be an integer, got 0.5"),
    ("SINR_VS_SNR", {"threshold_db": [0.0], "tier_counts": [1.5]},
     "grid.tier_counts must be an integer, got 1.5"),
)


def test_grid_tier_indices_outside_the_network_are_refused(tmp_path):
    for i, (experiment, grid, message) in enumerate(_BAD_TIER_GRIDS):
        body = {"name": "bad", "experiment": experiment,
                "config": "bundled:table1", "grid": grid}
        scn = load_scenario(write_scenario(tmp_path, body))
        target = tmp_path / f"never{i}"
        with pytest.raises(ConfigError, match=message):
            run_scenario(scn, output_dir=target)
        assert not target.exists()


def test_beam_error_refuses_bad_pointing_error(tmp_path):
    for i, sigma in enumerate((math.nan, math.inf, -math.inf, -2.0, "wide")):
        body = {"name": "bad", "experiment": "BEAM_ERROR",
                "config": "bundled:table1",
                "grid": {"threshold_db": [0.0], "sigma_be_deg": [0, sigma]},
                "output_dir": str(tmp_path / f"never{i}")}
        with pytest.raises(ConfigError, match="finite and >= 0"):
            load_scenario(write_scenario(tmp_path, body))
        assert not (tmp_path / f"never{i}").exists()


_BAD_SWEEP_GRIDS = (
    ("HYBRID_DENSITY", "bundled:hybrid",
     {"threshold_db": [0.0], "density_mult": [-1]},
     r"tiers\[0\].density_per_m2"),
    ("GAIN_SWEEP", "bundled:table1",
     {"threshold_db": [0.0], "main_gain_db": [-20]},
     "main-lobe gain below side-lobe gain"),
    ("GAIN_SWEEP", "bundled:table1",
     {"threshold_db": [0.0], "main_gain_db": [math.inf]}, "antenna.main_db"),
    ("ASSOC_VS_BIAS", "bundled:hybrid", {"bias_db": [math.inf]},
     r"tiers\[2\].bias_db"),
)


@pytest.mark.parametrize("experiment, config, grid, message", _BAD_SWEEP_GRIDS)
def test_sweeps_refuse_configs_they_cannot_validate(tmp_path, experiment,
                                                    config, grid, message):
    body = {"name": "bad", "experiment": experiment, "config": config,
            "grid": grid}
    scn = load_scenario(write_scenario(tmp_path, body))
    with pytest.raises(ConfigError, match=message):
        run_scenario(scn, output_dir=tmp_path / "never")
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("change, message", [
    ({"workers": None}, "workers must be an integer, got None"),
    ({"workers": 2.7}, "workers must be an integer, got 2.7"),
    ({"monte_carlo": {"drops": None}},
     "monte_carlo: drops must be an integer, got None"),
    ({"monte_carlo": {"drops": 100, "seed": None}},
     "monte_carlo: seed must be an integer, got None"),
    ({"monte_carlo": {"drops": 100, "chunks": True}},
     "monte_carlo: chunks must be an integer, got True"),
    # grid values of the wrong shape
    ({"experiment": "BIAS_SWEEP", "grid": {"bias_db": [0.0], "tiers": 2}},
     "grid.tiers must be a list, got 2"),
    ({"grid": {"threshold_db": [0.0], "tier_counts": 3}},
     "grid.tier_counts must be a list, got 3"),
    ({"experiment": "BALL_PARAMS",
      "grid": {"threshold_db": [0.0], "variants": [5]}},
     "grid.variants entries must be objects with name, radii, los_prob, "
     "got 5"),
    ({"experiment": "ENERGY",
      "grid": {"bias_db": [0.0], "variants": [{"density_scale": {}}]}},
     "grid.variants entries must be objects with name, got"),
])
def test_scenario_integers_of_the_wrong_type_are_refused(tmp_path, change,
                                                         message):
    with pytest.raises(ConfigError, match=message):
        load_scenario(basic_scenario(tmp_path, **change))
    # a Scenario built in code is refused by run_scenario, before any output
    if "grid" in change:
        scn = load_scenario(basic_scenario(tmp_path))
        scn = replace(scn, experiment=Experiment(
            change.get("experiment", "SINR_VS_SNR")), grid=change["grid"])
        with pytest.raises(ConfigError, match=message):
            run_scenario(scn, output_dir=tmp_path / "never")
        assert not (tmp_path / "never").exists()


def test_only_runs_that_reach_the_kernel_start_a_pool(tmp_path, monkeypatch):
    bodies = {
        "assoc": {"name": "assoc", "experiment": "ASSOC_VS_BIAS",
                  "config": small_config(2),
                  "grid": {"bias_db": [-3.0, 0.0, 6.0]}},
        "gain": {"name": "gain", "experiment": "GAIN_SWEEP",
                 "config": small_config(2), "mode": "snr",
                 "grid": {"threshold_db": [-5.0, 5.0],
                          "main_gain_db": [10.0, 20.0]}},
    }
    serial = {}
    for name, body in bodies.items():
        scn = load_scenario(write_scenario(tmp_path, body, f"{name}.json"))
        result = run_scenario(scn, output_dir=tmp_path / name / "w1",
                              workers=1)
        serial[name] = (scn, result.files)

    def no_pool(*args, **kwargs):
        raise RuntimeError("a process pool was started")

    monkeypatch.setattr(scenarios, "ProcessPoolExecutor", no_pool)
    for name, (scn, files) in serial.items():
        result = run_scenario(scn, output_dir=tmp_path / name / "w2",
                              workers=2)
        assert result.files == files
        for fname in files:
            assert (tmp_path / name / "w2" / fname).read_bytes() == \
                (tmp_path / name / "w1" / fname).read_bytes()
    sinr = load_scenario(basic_scenario(tmp_path, monte_carlo=None))
    with pytest.raises(RuntimeError, match="process pool"):
        run_scenario(sinr, output_dir=tmp_path / "sinr", workers=2)


def test_rate_builds_one_association_table_per_curve(tmp_path, monkeypatch):
    body = {"name": "rate3", "experiment": "RATE", "config": small_config(2),
            "grid": {"rate_bps": [1e8, 5e8, 1e9]}}
    scn = load_scenario(write_scenario(tmp_path, body))
    sim = montecarlo.SimConfig(drops=2000, seed=4, parallel_chunks=2)
    rates = body["grid"]["rate_bps"]
    # the CSV as computed one rate at a time, each with its own loads
    rows = []
    for r in rates:
        cv = rate_coverage(scn.config, [r])
        rows.append(",".join(f"{float(v):.12g}" for v in (
            r, cv.probability[0], cv.error[0])) + ",")
    mc, se = montecarlo.empirical_rate_coverage(
        scn.config, montecarlo.simulate(scn.config, sim), rates,
        mean_loads(scn.config))
    mc_rows = [f"{row},{float(m):.12g},{float(s):.12g}"
               for row, m, s in zip(rows, mc, se)]

    tables = _count_calls(monkeypatch, association, "association_table")
    run_scenario(scn, output_dir=tmp_path / "out", workers=1)
    assert len(tables) == 1
    assert (tmp_path / "out" / "rate_coverage.csv").read_text() == "\n".join(
        ["x,analytic,quad_error,flag"] + rows) + "\n"
    # the simulated statistic still reads the rates, under the curve's loads
    tables.clear()
    run_scenario(replace(scn, monte_carlo=sim), output_dir=tmp_path / "mc",
                 workers=1)
    assert len(tables) == 1
    assert (tmp_path / "mc" / "rate_coverage.csv").read_text() == "\n".join(
        ["x,analytic,quad_error,flag,monte_carlo,mc_stderr"] + mc_rows) + "\n"


def test_rate_monte_carlo_reads_the_curve_statistic(tmp_path):
    body = {"name": "rate", "experiment": "RATE", "config": small_config(2),
            "grid": {"rate_bps": [5e8, 2e9]},
            "monte_carlo": {"drops": 2000, "seed": 4, "chunks": 2}}
    scn = load_scenario(write_scenario(tmp_path, body))
    cfg, rates = scn.config, body["grid"]["rate_bps"]
    batch = montecarlo.simulate(cfg, scn.monte_carlo)
    loads = mean_loads(cfg)
    live = batch.tier >= 0

    def share(stat):
        """Share of drops whose rate from `stat` beats each target."""
        rate = (cfg.bandwidth / loads[batch.tier[live]]) * np.log2(
            1.0 + stat[live])
        return [f"{np.count_nonzero(rate > r) / batch.n_drops:.12g}"
                for r in rates]

    assert share(batch.snr) != share(batch.sinr)
    for mode, stat in (("sinr", batch.sinr), ("snr", batch.snr)):
        run_scenario(replace(scn, mode=mode), output_dir=tmp_path / mode,
                     workers=1)
        _, rows = read_csv(tmp_path / mode / "rate_coverage.csv")
        assert [row[4] for row in rows] == share(stat)


def test_coverage_builds_no_association_table(tmp_path, monkeypatch):
    tables = _count_calls(monkeypatch, association, "association_table")
    body = {"name": "gain", "experiment": "GAIN_SWEEP", "mode": "snr",
            "config": small_config(2),
            "grid": {"threshold_db": [0.0, 5.0], "main_gain_db": [5.0, 12.0]}}
    run_scenario(load_scenario(write_scenario(tmp_path, body)),
                 output_dir=tmp_path / "out", workers=1)
    sinr_coverage(network_from_dict(small_config(2)), [1.0])
    assert tables == []


def test_energy_refuses_monte_carlo(tmp_path):
    body = {"name": "ee", "experiment": "ENERGY", "config": small_config(2),
            "grid": {"bias_db": [0.0]},
            "monte_carlo": {"drops": 2000, "seed": 3, "chunks": 2}}
    scn = load_scenario(write_scenario(tmp_path, body))
    target = tmp_path / "ee"
    with pytest.raises(ConfigError, match="no Monte Carlo estimator"):
        run_scenario(scn, output_dir=target)
    assert not target.exists()


def test_load_scenario_rejects_unknown_keys(tmp_path):
    body = json.loads(
        BUNDLED_SCENARIOS.joinpath("hybrid_bias.json").read_text())
    mc = {"drops": 100, "seed": 1, "window_radius": 5.0, "chunkz": 4}
    for change, message in (
            ({"monte_carlo": mc},
             "monte_carlo has unknown keys: chunkz, window_radius"),
            ({"grid": dict(body["grid"], bias_dbb=[1.0])},
             "HYBRID_BIAS grid has unknown keys: bias_dbb"),
            ({"wokers": 2}, "scenario has unknown keys: wokers"),
            ({"exclusion_zone": "with_gains"},
             "scenario has unknown keys: exclusion_zone")):
        path = write_scenario(tmp_path, dict(body, **change))
        with pytest.raises(ConfigError, match=message):
            load_scenario(path)


def test_load_scenario_accepts_bundled_files():
    names = sorted(f.name for f in BUNDLED_SCENARIOS.iterdir()
                   if f.name.endswith(".json"))
    assert len(names) == 5
    for name in names:
        with resources.as_file(BUNDLED_SCENARIOS.joinpath(name)) as path:
            assert load_scenario(path).name == name[:-len(".json")]


def test_snr_mode_takes_closed_form_in_every_experiment(tmp_path):
    # small_config has exponents (2, 4), so every SNR-mode cell is in
    # closed form and has quad_error 0
    cfg = network_from_dict(small_config())
    thresholds = [-5.0, 5.0]

    def rows_of(result, name):
        return read_csv(result.output_dir / name)[1]

    gain = run_scenario(Scenario(
        name="g", config=cfg, experiment=Experiment.GAIN_SWEEP,
        grid={"threshold_db": thresholds, "main_gain_db": [12.0]},
        mode="snr"), output_dir=tmp_path / "g")
    wider = replace(
        cfg, pattern=replace(cfg.pattern, main_gain=db_to_linear(12.0)))
    for row, t in zip(rows_of(gain, "cov_gain12db.csv"), thresholds):
        want = sinr_coverage(wider, [db_to_linear(t)], mode="snr")
        assert row[1:3] == [f"{want.probability[0]:.12g}", "0"]

    # the sinr curve of SINR_VS_SNR stays on quadrature
    both = run_scenario(Scenario(
        name="s", config=cfg, experiment=Experiment.SINR_VS_SNR,
        grid={"threshold_db": thresholds}, mode="snr"),
        output_dir=tmp_path / "s")
    for row, t in zip(rows_of(both, "sinr_tiers1.csv"), thresholds):
        want = sinr_coverage(cfg, [db_to_linear(t)])
        assert want.error[0] > 0.0
        assert row[1:3] == [f"{want.probability[0]:.12g}",
                            f"{want.error[0]:.12g}"]
    for row, t in zip(rows_of(both, "snr_tiers1.csv"), thresholds):
        want = sinr_coverage(cfg, [db_to_linear(t)], mode="snr")
        assert row[1:3] == [f"{want.probability[0]:.12g}", "0"]

    # beam, rate and energy metrics take the closed form too: each cell is
    # the library's value in SNR mode, with no quadrature error
    for exp, grid, name, x, want in (
            (Experiment.BEAM_ERROR,
             {"threshold_db": [0.0], "sigma_be_deg": [5.0]},
             "cov_sigma5deg.csv", 0.0,
             coverage_with_beam_error(cfg, [1.0], math.radians(5.0),
                                      mode="snr").probability[0]),
            (Experiment.RATE, {"rate_bps": [1e8]}, "rate_coverage.csv", 1e8,
             rate_coverage(cfg, [1e8], mode="snr").probability[0]),
            (Experiment.ENERGY, {"bias_db": [0.0]}, "ee_base.csv", 0.0,
             energy_efficiency(with_bias(cfg, {0: 1.0}), 1.0,
                               mode="snr").energy_efficiency)):
        result = run_scenario(Scenario(name="x", config=cfg, experiment=exp,
                                       grid=grid, mode="snr"),
                              output_dir=tmp_path / exp.value)
        assert rows_of(result, name) == [[f"{x:.12g}", f"{want:.12g}", "0",
                                          ""]]


def test_hybrid_experiments_require_hybrid_config(tmp_path):
    import hetnetsim.model as model
    cfg = model.network_from_dict(small_config())
    for exp, grid in ((Experiment.HYBRID_BIAS,
                       {"threshold_db": [0.0], "bias_db": [0.0]}),
                      (Experiment.HYBRID_DENSITY,
                       {"threshold_db": [0.0], "density_mult": [2.0]})):
        target = tmp_path / exp.value
        with pytest.raises(ConfigError, match="requires a hybrid config"):
            run_scenario(Scenario(name="h", config=cfg, experiment=exp,
                                  grid=grid), output_dir=target)
        assert not target.exists()


def _coverage(cfg, t_db):
    return sinr_coverage(cfg, [db_to_linear(t_db)])


def _biased(cfg, b_db, tier=1):
    return with_bias(cfg, {tier: db_to_linear(b_db)})


def _assoc(k):
    return lambda cfg, b: association_table(_biased(cfg, b)).per_tier[k]


# experiment: (hybrid config?, key of the x column, grid,
#              {file: direct library value at (config, x)})
END_TO_END = {
    Experiment.SINR_VS_SNR: (False, "threshold_db", {
        "threshold_db": [-5.0, 5.0], "tier_counts": [2]}, {
        "sinr_tiers2.csv": _coverage,
        "snr_tiers2.csv": lambda cfg, t: sinr_coverage(
            cfg, [db_to_linear(t)], mode="snr")}),
    Experiment.GAIN_SWEEP: (False, "threshold_db", {
        "threshold_db": [0.0], "main_gain_db": [5.0]}, {
        "cov_gain5db.csv": lambda cfg, t: _coverage(replace(
            cfg, pattern=replace(cfg.pattern, main_gain=db_to_linear(5.0))),
            t)}),
    Experiment.BALL_PARAMS: (False, "threshold_db", {
        "threshold_db": [0.0], "variants": [
            {"name": "wide", "tier": 0, "radii": [30, 80],
             "los_prob": [0.9, 0.1]}]}, {
        "cov_wide.csv": lambda cfg, t: _coverage(
            with_balls(cfg, 0, [30, 80], [0.9, 0.1]), t)}),
    Experiment.BIAS_SWEEP: (False, "bias_db", {
        "bias_db": [0.0, 6.0], "threshold_db": 0.0}, {
        "coverage_vs_bias.csv": lambda cfg, b: _coverage(_biased(cfg, b), 0.0),
        "assoc_a_vs_bias.csv": _assoc(0),
        "assoc_b_vs_bias.csv": _assoc(1)}),
    Experiment.BEAM_ERROR: (False, "threshold_db", {
        "threshold_db": [0.0], "sigma_be_deg": [5.0]}, {
        "cov_sigma5deg.csv": lambda cfg, t: coverage_with_beam_error(
            cfg, [db_to_linear(t)], sigma_be_rad=math.radians(5.0))}),
    Experiment.RATE: (False, "rate_bps", {"rate_bps": [1e8, 1e9]}, {
        "rate_coverage.csv": lambda cfg, r: rate_coverage(cfg, [r])}),
    Experiment.ENERGY: (False, "bias_db", {"bias_db": [0.0, 6.0], "tier": 1}, {
        "ee_base.csv": lambda cfg, b: energy_efficiency(
            _biased(cfg, b), 1.0).energy_efficiency}),
    Experiment.ASSOC_VS_BIAS: (False, "bias_db", {
        "bias_db": [0.0, 6.0], "tier": 1}, {
        "assoc_a.csv": _assoc(0), "assoc_b.csv": _assoc(1)}),
    Experiment.HYBRID_BIAS: (True, "threshold_db", {
        "threshold_db": [0.0], "bias_db": [5.0]}, {
        "cov_bias5db.csv": lambda cfg, t: _coverage(with_bias(
            cfg, {1: db_to_linear(5.0), 2: db_to_linear(5.0)}), t)}),
    Experiment.HYBRID_DENSITY: (True, "threshold_db", {
        "threshold_db": [0.0], "density_mult": [2.0]}, {
        "cov_density2x.csv": lambda cfg, t: _coverage(
            with_density_scale(cfg, {0: 2.0}), t)}),
}


@pytest.mark.parametrize("experiment", list(Experiment),
                         ids=lambda e: e.value)
def test_every_experiment_end_to_end(tmp_path, experiment):
    hybrid, x_key, grid, expected = END_TO_END[experiment]
    body = {"name": "e2e", "experiment": experiment.value,
            "config": "bundled:hybrid" if hybrid else small_config(2),
            "grid": grid}
    # energy efficiency has no Monte Carlo estimator and refuses the block
    if experiment is not Experiment.ENERGY:
        body["monte_carlo"] = {"drops": 3000, "seed": 2, "chunks": 2}
    scn = load_scenario(write_scenario(tmp_path, body))
    result = run_scenario(scn, output_dir=tmp_path / "out")
    assert result.files == tuple(sorted(expected))
    xs = [float(x) for x in grid[x_key]]
    for name, direct in expected.items():
        header, rows = read_csv(tmp_path / "out" / name)
        # energy efficiency has no Monte Carlo columns
        assert len(header) == (4 if experiment is Experiment.ENERGY else 6)
        assert [float(r[0]) for r in rows] == xs
        for row, x in zip(rows, xs):
            value = direct(scn.config, x)
            value = getattr(value, "probability", [value])[0]
            assert row[1] == f"{float(value):.12g}"


def test_filename_tags():
    assert _tag(-5) == "m5"
    assert _tag(0.5) == "0p5"
    assert _tag(10.0) == "10"
