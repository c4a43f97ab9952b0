"""Config parsing, unit conversion, antenna pmf and blockage geometry."""

import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from conftest import make_network, make_tier
from hetnetsim.intensity import state_segments
from hetnetsim.model import (AntennaPattern, Band, ConfigError, FadingConfig,
                             LinkState, NetworkConfig, cross_gain_pmf,
                             db_to_linear, dbm_to_watts, friis_kappa,
                             network_from_dict, noise_power_w, validate,
                             with_bias, with_density_scale)


def test_db_roundtrip():
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert dbm_to_watts(30.0) == pytest.approx(1.0)


def test_friis_kappa_28ghz():
    kappa = friis_kappa(28e9)
    # (4 pi f / c)^2 at 28 GHz, roughly 61.4 dB
    assert 10.0 * math.log10(kappa) == pytest.approx(61.4, abs=0.05)


def test_noise_power():
    # -174 dBm/Hz + 10 log10(1 GHz) + 10 dB figure = -74 dBm
    # rel 2.3e-10 is 1e-9 dB
    assert noise_power_w(1e9, noise_figure_db=10.0) == \
        pytest.approx(dbm_to_watts(-74.0), rel=2.3e-10)


def test_table1_accepted(table1):
    assert table1.n_tiers == 3
    assert [t.name for t in table1.tiers] == ["micro", "pico", "femto"]
    assert not table1.is_hybrid


def test_nonincreasing_radii_rejected():
    with pytest.raises(ConfigError):
        make_network([make_tier(radii=(60.0, 40.0), betas=(0.5, 0.5))])


def test_los_prob_above_one_rejected():
    with pytest.raises(ConfigError):
        make_network([make_tier(radii=(50.0,), betas=(1.3,))])


def test_gain_pmf_full_main_lobe():
    pat = AntennaPattern(main_gain=10.0, side_gain=0.1,
                         beamwidth_rad=2.0 * math.pi)
    pmf = cross_gain_pmf(pat, pat)
    probs = {g: p for g, p in pmf}
    assert probs[100.0] == pytest.approx(1.0)
    assert sum(p for _, p in pmf) == pytest.approx(1.0)


def test_gain_pmf_half_beamwidth():
    pat = AntennaPattern(main_gain=4.0, side_gain=0.5, beamwidth_rad=math.pi)
    probs = [p for _, p in cross_gain_pmf(pat, pat)]
    assert probs == pytest.approx([0.25, 0.5, 0.25])


def test_gain_pmf_table1_values():
    pat = AntennaPattern(main_gain=db_to_linear(10.0),
                         side_gain=db_to_linear(-10.0),
                         beamwidth_rad=math.radians(30.0))
    pmf = cross_gain_pmf(pat, pat)
    probs = [p for _, p in pmf]
    assert probs == pytest.approx([(1 / 12) ** 2, 2 * (1 / 12) * (11 / 12),
                                   (11 / 12) ** 2])
    gains = [g for g, _ in pmf]
    assert gains == pytest.approx([100.0, 1.0, 0.01])


def test_cross_gain_pmf_normalizes():
    a = AntennaPattern(main_gain=2.0, side_gain=0.5, beamwidth_rad=2.0)
    b = AntennaPattern(main_gain=8.0, side_gain=0.25, beamwidth_rad=0.7)
    pmf = cross_gain_pmf(a, b)
    assert len(pmf) == 4
    assert sum(p for _, p in pmf) == pytest.approx(1.0)
    # mean gain factorizes over independent ends
    mean = sum(g * p for g, p in pmf)
    ma = sum(g * p for g, p in cross_gain_pmf(a, a)) ** 0.5
    assert mean == pytest.approx(
        (a.main_gain * a.main_prob + a.side_gain * (1 - a.main_prob))
        * (b.main_gain * b.main_prob + b.side_gain * (1 - b.main_prob)))


def test_like_patterns_merge_to_three_atoms():
    # equal-gain atoms merge in first-seen order, bit for bit the
    # square/cross/complement pmf of one pattern at both ends
    rng = np.random.default_rng(11)
    for _ in range(2000):
        side, main = np.sort(rng.uniform(0.01, 100.0, size=2))
        pat = AntennaPattern(main_gain=float(main), side_gain=float(side),
                             beamwidth_rad=float(rng.uniform(0.01, 6.28)))
        q = pat.main_prob
        assert cross_gain_pmf(pat, pat) == (
            (main * main, q * q), (main * side, 2.0 * q * (1.0 - q)),
            (side * side, (1.0 - q) * (1.0 - q)))
    omni = AntennaPattern(main_gain=1.0, side_gain=1.0, beamwidth_rad=1.0)
    (gain, prob), = cross_gain_pmf(omni, omni)
    assert gain == 1.0 and prob == pytest.approx(1.0, abs=1e-15)


def test_los_probability_annuli(table1):
    micro = table1.tiers[0]
    los = state_segments(micro, LinkState.LOS)
    nlos = state_segments(micro, LinkState.NLOS)
    assert [s.weight for s in los] == pytest.approx([0.8, 0.2])
    assert [s.weight for s in nlos] == pytest.approx([0.2, 0.8])
    assert [s.hi_r2 for s in los] == pytest.approx([50.0 ** 2, 200.0 ** 2])
    assert micro.outage_radius == 200.0


def test_path_loss_direct():
    # segment edges are kappa * R**alpha per state
    tier = make_tier(radii=(10.0, 50.0), betas=(1.0, 0.5), alpha_los=2.0,
                     alpha_nlos=4.0, kappa_los=1.0)
    los = state_segments(tier, LinkState.LOS)
    nlos = state_segments(tier, LinkState.NLOS)
    assert [x for s in los for x in (s.lo_x, s.hi_x)] == \
        pytest.approx([0.0, 100.0, 100.0, 2500.0])
    assert [(s.lo_x, s.hi_x) for s in nlos] == [(10.0 ** 4, 50.0 ** 4)]


def test_path_loss_table1_kappa(table1):
    micro = table1.tiers[0]
    kappa = friis_kappa(table1.carrier)
    assert micro.balls[0].kappa_los == pytest.approx(kappa, rel=1e-12)
    assert state_segments(micro, LinkState.LOS)[0].hi_x == \
        pytest.approx(kappa * 50.0 ** 2, rel=1e-12)


def test_validate_collects_field_names():
    raw_tier = make_tier(density=-1.0)
    cfg = NetworkConfig(
        tiers=(raw_tier,), ue_density=1e-3, bandwidth=1e9, carrier=28e9,
        pattern=AntennaPattern(main_gain=10.0, side_gain=0.1,
                               beamwidth_rad=1.0),
        fading=FadingConfig())
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert "tiers[0].density" in str(err.value)


def test_network_from_dict_round_trip(table1):
    assert table1.tiers[1].balls[0].radius == 40.0
    assert table1.tiers[1].balls[0].los_prob == 1.0
    assert table1.tiers[2].bias == pytest.approx(1.0)
    assert table1.tiers[0].tx_power == pytest.approx(dbm_to_watts(53.0))
    assert table1.tiers[0].static_power == 130.0
    assert table1.tiers[0].amp_slope == 4.0


def test_hybrid_loading(hybrid):
    assert hybrid.is_hybrid
    micro = hybrid.tiers[0]
    assert micro.band is Band.MICROWAVE
    # microwave serving gain couples the BS-side pattern with the UE pattern
    assert hybrid.serving_gain(0) == \
        hybrid.mu_pattern.main_gain * hybrid.pattern.main_gain
    assert hybrid.bs_pattern(0) is hybrid.mu_pattern
    assert hybrid.bs_pattern(1) is hybrid.pattern
    assert len(hybrid.interferer_gain_pmf(0)) == 4
    assert len(hybrid.interferer_gain_pmf(1)) == 3
    assert hybrid.same_band_tiers(0) == (0,)
    assert hybrid.same_band_tiers(1) == (1, 2)


def test_subset(table1):
    sub = table1.subset((0, 2))
    assert sub.n_tiers == 2
    assert [t.name for t in sub.tiers] == ["micro", "femto"]


def test_with_bias_and_density(table1):
    cfg = with_bias(table1, {2: 5.0})
    assert cfg.tiers[2].bias == 5.0
    assert cfg.tiers[1].bias == table1.tiers[1].bias
    cfg2 = with_density_scale(table1, {0: 10.0})
    assert cfg2.tiers[0].density == pytest.approx(10.0 * table1.tiers[0].density)


def test_pattern_swap_updates_serving_gain(table1):
    pat = replace(table1.pattern, main_gain=db_to_linear(15.0))
    cfg = replace(table1, pattern=pat)
    assert [cfg.serving_gain(k) for k in range(3)] == \
        [pat.main_gain * pat.main_gain] * 3


_DB_FIELDS = [
    ("tiers", 0, "tx_power_dbm"), ("tiers", 1, "bias_db"),
    ("tiers", 2, "noise_figure_db"), ("tiers", 0, "psd_dbm_hz"),
    ("tiers", 0, "balls", 1, "kappa_los_db"),
    ("tiers", 1, "balls", 0, "kappa_nlos_db"),
    ("antenna", "main_db"), ("antenna", "side_db")]


@pytest.mark.parametrize("path, value", [
    (("tiers", 0, "density_per_m2"), math.nan),
    (("tiers", 1, "bias_db"), math.inf),
    (("tiers", 2, "tx_power_dbm"), math.nan),
    (("antenna", "main_db"), math.inf),
    (("tiers", 0, "balls", 1, "radius_m"), math.inf),
    (("tiers", 0, "balls", 0, "alpha_nlos"), math.nan),
    (("carrier_hz",), math.nan),
] + [(path, value) for path in _DB_FIELDS
     for value in (-math.inf, math.nan, 4000.0)])
def test_validate_refuses_non_finite_numbers(path, value):
    raw = json.loads(resources.files("hetnetsim").joinpath(
        "data", "table1.json").read_text())
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError) as err:
        network_from_dict(raw)
    name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in path).lstrip(".")
    assert name in str(err.value)
    # a dB field is refused as written: converted, -inf dB reads 0 and
    # 4000 dB overflows
    if path[-1] in {p[-1] for p in _DB_FIELDS}:
        assert str(err.value) == (f"{name}: must be a finite dB value with a "
                                  f"finite linear value > 0, got {value!r}")


def test_sweep_builders_validate(table1):
    with pytest.raises(ConfigError, match=r"tiers\[0\].density_per_m2"):
        with_density_scale(table1, {0: -1.0})
    with pytest.raises(ConfigError, match=r"tiers\[2\].bias_db"):
        with_bias(table1, {2: math.inf})


def test_outage_radius(table1):
    assert table1.tiers[0].outage_radius == 200.0
    assert table1.tiers[1].outage_radius == 60.0


def _table1_with(path, value, raw=None):
    """table1's JSON object (or raw) with the value at path replaced."""
    raw = json.loads(resources.files("hetnetsim").joinpath(
        "data", "table1.json").read_text()) if raw is None else raw
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


@pytest.mark.parametrize("path, where", [
    (("noise_figure",), "config"),
    (("antenna", "gain_db"), "antenna"),
    (("fading", "n"), "fading"),
    (("tiers", 1, "noise_figure"), "tiers[1]"),
    (("tiers", 0, "balls", 1, "radius"), "tiers[0].balls[1]"),
])
def test_config_refuses_unknown_keys(path, where):
    with pytest.raises(ConfigError) as err:
        network_from_dict(_table1_with(path, 10))
    assert str(err.value) == f"{where} has unknown keys: {path[-1]}"


def test_hybrid_config_refuses_unknown_mu_antenna_keys():
    raw = json.loads(resources.files("hetnetsim").joinpath(
        "data", "hybrid.json").read_text())
    raw["mu_antenna"]["beamwidth"] = 120
    with pytest.raises(ConfigError,
                       match="^mu_antenna has unknown keys: beamwidth$"):
        network_from_dict(raw)


# each was read as a number or an integer: n_los 2.7 as N = 2, true as 1
# (N = 1 and a density of 1 /m^2), and "3" and "1e-5" as numbers
@pytest.mark.parametrize("path, value, message", [
    (("fading", "n_los"), 2.7, "fading.n_los must be an integer, got 2.7"),
    (("fading", "n_los"), True, "fading.n_los must be an integer, got True"),
    (("fading", "n_los"), "3", "fading.n_los must be an integer, got '3'"),
    (("tiers", 0, "density_per_m2"), True,
     "tiers[0].density_per_m2 must be a number, got True"),
    (("tiers", 0, "density_per_m2"), "1e-5",
     "tiers[0].density_per_m2 must be a number, got '1e-5'"),
])
def test_config_refuses_silent_coercions(path, value, message):
    with pytest.raises(ConfigError) as err:
        network_from_dict(_table1_with(path, value))
    assert str(err.value) == message


def test_validate_refuses_a_ball_whose_outer_edge_loss_overflows():
    # kappa * 200 ** 1e308 is not a float: the intensity measure of the
    # tier would overflow where it maps the ball's outer edge
    with pytest.raises(ConfigError) as err:
        network_from_dict(_table1_with(
            ("tiers", 0, "balls", 1, "alpha_los"), 1e308))
    assert ("tiers[0].balls[1].kappa_los_db (or the Friis loss at "
            "carrier_hz) * radius_m ** alpha_los: must be finite and > 0 in "
            "linear units, got inf") in str(err.value)
