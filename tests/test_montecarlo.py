"""Simulator invariants: determinism, sampling laws, association rule."""

import math

import numpy as np
import pytest

from conftest import make_network, make_tier
from hetnetsim.coverage import sinr_coverage
from hetnetsim.montecarlo import (DropBatch, SimConfig, drop_rates,
                                  empirical_association, empirical_coverage,
                                  simulate)
from oracles import lambda_total


def batches_equal(a: DropBatch, b: DropBatch) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("tier", "state", "path_loss", "sinr", "snr"))


def test_bit_identical_across_workers(table1):
    sim = SimConfig(drops=4000, seed=123, parallel_chunks=8)
    serial = simulate(table1, sim, workers=1)
    parallel = simulate(table1, sim, workers=4)
    assert batches_equal(serial, parallel)
    again = simulate(table1, sim, workers=1)
    assert batches_equal(serial, again)
    other = simulate(table1, SimConfig(drops=4000, seed=124,
                                       parallel_chunks=8))
    assert not batches_equal(serial, other)


def test_chunking_changes_stream_not_law(table1):
    # chunk layout is part of the reproducibility key
    a = simulate(table1, SimConfig(drops=2000, seed=5, parallel_chunks=1))
    b = simulate(table1, SimConfig(drops=2000, seed=5, parallel_chunks=4))
    assert not batches_equal(a, b)
    assert a.n_drops == b.n_drops == 2000


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(drops=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(drops=10, seed=1, parallel_chunks=11)


def test_outage_matches_void_probability():
    lam, r_d = 1e-6, 200.0
    cfg = make_network([make_tier(density=lam, radii=(r_d,), betas=(0.5,))])
    sim = SimConfig(drops=100_000, seed=31, parallel_chunks=8)
    _, _, outage, se = empirical_association(cfg, simulate(cfg, sim,
                                                           workers=4))
    void = math.exp(-lam * math.pi * r_d ** 2)
    assert outage == pytest.approx(void, abs=max(3.0 * se, 1e-4))


def test_min_path_loss_ccdf_matches_intensity():
    # single all-LOS unit-kappa tier: P(min loss > x) = exp(-Lambda(x))
    tier = make_tier(density=5e-5, radii=(100.0,), betas=(1.0,), kappa_los=1.0)
    cfg = make_network([tier])
    sim = SimConfig(drops=100_000, seed=13, parallel_chunks=8)
    batch = simulate(cfg, sim, workers=4)
    for x in (400.0, 2500.0, 8100.0):
        emp = np.count_nonzero(batch.path_loss > x) / batch.n_drops
        want = math.exp(-lambda_total(tier, x))
        se = math.sqrt(want * (1.0 - want) / batch.n_drops)
        assert emp == pytest.approx(want, abs=3.0 * se)


def test_serving_fading_is_unit_mean_nakagami():
    tier = make_tier(density=5e-4, radii=(100.0,), betas=(1.0,))
    cfg = make_network([tier])
    sim = SimConfig(drops=100_000, seed=17, parallel_chunks=4)
    batch = simulate(cfg, sim)
    live = batch.tier >= 0
    h = (batch.snr[live] * tier.noise_power * batch.path_loss[live]
         / (tier.tx_power * cfg.serving_gain(0)))
    n_fad = cfg.fading.n_los
    se = math.sqrt(1.0 / n_fad / live.sum())
    assert h.mean() == pytest.approx(1.0, abs=3.0 * se)
    assert h.var() == pytest.approx(1.0 / n_fad, rel=0.05)


def test_sinr_bounded_by_snr(table1):
    sim = SimConfig(drops=20_000, seed=2, parallel_chunks=4)
    batch = simulate(table1, sim)
    live = batch.tier >= 0
    assert np.all(batch.sinr[live] <= batch.snr[live] + 1e-12)
    probs, _ = empirical_coverage(batch, [1e-30])
    assert probs[0] == pytest.approx(live.mean())


def test_identical_tiers_split_evenly():
    tier = make_tier(density=1e-4, radii=(150.0,), betas=(0.6,))
    cfg = make_network([tier, tier])
    sim = SimConfig(drops=50_000, seed=23, parallel_chunks=4)
    joint, joint_se, _, _ = empirical_association(cfg, simulate(cfg, sim))
    a = joint.sum(axis=1)
    se = math.hypot(*(joint_se.sum(axis=1)))
    assert abs(a[0] - a[1]) <= 3.0 * se + 1e-3


def test_all_los_tier_never_serves_nlos():
    cfg = make_network([make_tier(radii=(80.0,), betas=(1.0,))])
    batch = simulate(cfg, SimConfig(drops=20_000, seed=3))
    live = batch.tier >= 0
    assert np.all(batch.state[live] == 0)


def test_bias_dominates_association():
    # an astronomically biased twin tier wins every drop in which it has any
    # station at all, so the unbiased twin only serves when the twin is empty
    tier = make_tier(density=3e-5, radii=(120.0,), betas=(1.0,))
    boosted = make_tier(density=3e-5, radii=(120.0,), betas=(1.0,), bias=1e12)
    cfg = make_network([tier, boosted])
    sim = SimConfig(drops=100_000, seed=29, parallel_chunks=8)
    joint, _, outage, _ = empirical_association(cfg, simulate(cfg, sim,
                                                              workers=4))
    void = math.exp(-3e-5 * math.pi * 120.0 ** 2)
    want_plain = void * (1.0 - void)
    se = math.sqrt(want_plain * (1.0 - want_plain) / sim.drops)
    assert joint.sum(axis=1)[0] == pytest.approx(want_plain, abs=3.0 * se)
    assert outage == pytest.approx(void * void, abs=3.0 * se)


def test_rate_uses_load_shared_bandwidth(table1):
    sim = SimConfig(drops=5000, seed=41)
    loads = np.array([2.0, 4.0, 8.0])
    batch = simulate(table1, sim)
    live = batch.tier >= 0
    expect = (table1.bandwidth / loads[batch.tier[live]]) \
        * np.log2(1.0 + batch.sinr[live])
    assert np.allclose(drop_rates(table1, batch, loads)[live], expect,
                       rtol=1e-12)
    with pytest.raises(ValueError):
        drop_rates(table1, batch, np.ones(2))


def test_beam_error_degrades_coverage(table1):
    sim = SimConfig(drops=30_000, seed=47, parallel_chunks=4)
    aligned, se_a = empirical_coverage(simulate(table1, sim), [1.0])
    blurred, se_b = empirical_coverage(
        simulate(table1, sim, sigma_be_rad=math.radians(60.0)), [1.0])
    assert aligned[0] - blurred[0] > 3.0 * (se_a[0] + se_b[0])


def test_coverage_agrees_with_analytic(table1):
    sim = SimConfig(drops=40_000, seed=53, parallel_chunks=8)
    thresholds = [10.0 ** (x / 10.0) for x in (-10.0, 0.0, 10.0)]
    probs, ses = empirical_coverage(simulate(table1, sim, workers=4),
                                    thresholds)
    curve = sinr_coverage(table1, thresholds)
    for p, se, want in zip(probs, ses, curve.probability):
        assert p == pytest.approx(want, abs=max(3.0 * se, 0.01))


def test_empirical_coverage_rejects_bad_mode(table1):
    with pytest.raises(ValueError):
        empirical_coverage(simulate(table1, SimConfig(drops=10, seed=1)),
                           [1.0], mode="sir")
