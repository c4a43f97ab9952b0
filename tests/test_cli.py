"""Command line behaviour: exit codes, files written, summary output."""

import json
import math
from pathlib import Path

import pytest

from hetnetsim import cli, montecarlo, scenarios
from hetnetsim.model import load_config
from test_scenarios import basic_scenario, small_config, write_scenario


@pytest.fixture()
def config_file(tmp_path) -> Path:
    path = tmp_path / "net.json"
    path.write_text(json.dumps(small_config(2)))
    return path


def test_validate_ok(config_file, capsys):
    assert cli.main(["validate", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK: 2 tier(s)")
    assert "a[mmwave]" in out


def test_validate_rejects_bad_config(tmp_path, capsys):
    body = small_config()
    body["tiers"][0]["density_per_m2"] = -1.0
    bad = write_scenario(tmp_path, body, name="bad.json")
    assert cli.main(["validate", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err
    assert cli.main(["validate", str(tmp_path / "nope.json")]) == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{")
    assert cli.main(["validate", str(garbled)]) == 1


def test_run_writes_outputs(tmp_path, capsys):
    scn = basic_scenario(tmp_path)
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(scn), "--out", str(out_dir)]) == 0
    assert "wrote 2 curve(s)" in capsys.readouterr().out
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "sinr_tiers1.csv").exists()
    assert (out_dir / "snr_tiers1.csv").exists()


def test_run_reruns_byte_identical(tmp_path):
    scn = basic_scenario(tmp_path)
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "r1")]) == 0
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "r2")]) == 0
    for name in ("sinr_tiers1.csv", "snr_tiers1.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes()


def test_run_bad_scenario_exits_one(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 1
    body = {"name": "x", "experiment": "SINR_VS_SNR",
            "config": small_config(), "grid": {"threshold_db": []}}
    assert cli.main(["run", str(write_scenario(tmp_path, body))]) == 1
    capsys.readouterr()


def test_run_mode_override_conflicts_exit_one(tmp_path, capsys):
    # the closed form needs path-loss exponents (2, 4) on every ball
    config = small_config()
    config["tiers"][0]["balls"][0]["alpha_nlos"] = 3.5
    body = {"name": "r", "experiment": "RATE", "config": config,
            "grid": {"rate_bps": [1e8]}}
    scn = write_scenario(tmp_path, body)
    assert cli.main(["run", str(scn), "--mode", "closed24",
                     "--out", str(tmp_path / "never")]) == 1
    assert not (tmp_path / "never").exists()
    assert "closed form requires" in capsys.readouterr().err


def test_run_flags_nonconvergence_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenarios, "_eval_analytic",
                        lambda job: (0.5, 1.0, False))
    body = {"name": "basic", "experiment": "SINR_VS_SNR",
            "config": small_config(),
            "grid": {"threshold_db": [-5.0, 5.0], "tier_counts": [1]}}
    scn = write_scenario(tmp_path, body)
    out_dir = tmp_path / "flagged"
    assert cli.main(["run", str(scn), "--out", str(out_dir)]) == 2
    assert "did not converge" in capsys.readouterr().err
    rows = (out_dir / "sinr_tiers1.csv").read_text().strip().split("\n")[1:]
    assert all(row.split(",")[3] == "nonconverged" for row in rows)


def test_mc_summary_and_trace(config_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = cli.main(["mc", str(config_file), "--drops", "500", "--seed", "3",
                     "--chunks", "4", "--thresholds-db=-10,0",
                     "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    lines = dict(line.split(",", 1) for line in out.strip().split("\n"))
    assert lines["drops"] == "500"
    assert lines["seed"] == "3"
    assert lines["chunks"] == "4"
    assert "assoc_a" in lines and "assoc_b" in lines
    assert "coverage_sinr_-10dB" in lines and "coverage_sinr_0dB" in lines
    assert float(lines["mean_rate_bps"].split(",")[0]) > 0.0

    rows = trace.read_text().strip().split("\n")
    assert rows[0] == "drop_id,tier,state,path_loss,sinr_db,snr_db,rate_bps"
    assert len(rows) == 501
    first = rows[1].split(",")
    assert first[0] == "0"
    assert first[2] in ("los", "nlos", "outage")


def test_mc_determinism(config_file, capsys):
    args = ["mc", str(config_file), "--drops", "400", "--seed", "9",
            "--chunks", "4"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args + ["--workers", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_mc_bad_inputs(config_file, capsys):
    assert cli.main(["mc", str(config_file), "--drops", "100",
                     "--thresholds-db", "abc"]) == 1
    assert cli.main(["mc", str(config_file), "--drops", "0"]) == 1
    capsys.readouterr()


def test_mc_checks_thresholds_before_simulating(config_file, tmp_path,
                                                capsys):
    trace = tmp_path / "t.csv"
    assert cli.main(["mc", str(config_file), "--drops", "2000",
                     "--thresholds-db", "abc", "--trace", str(trace)]) == 1
    assert "--thresholds-db" in capsys.readouterr().err
    assert not trace.exists()


def test_mc_rejects_bad_pointing_error(config_file, capsys):
    for sigma_deg in ("-5", "nan", "inf"):
        assert cli.main(["mc", str(config_file), "--drops", "100",
                         f"--sigma-be-deg={sigma_deg}"]) == 1
        assert "sigma_be" in capsys.readouterr().err
    cfg = load_config(config_file)
    for sigma in (-0.1, math.nan):
        with pytest.raises(ValueError, match="sigma_be"):
            montecarlo.simulate(cfg, montecarlo.SimConfig(drops=10, seed=1),
                                sigma_be_rad=sigma)


def test_mc_snr_mode(config_file, capsys):
    assert cli.main(["mc", str(config_file), "--drops", "300", "--mode",
                     "snr", "--thresholds-db", "0"]) == 0
    out = capsys.readouterr().out
    assert "coverage_snr_0dB" in out
