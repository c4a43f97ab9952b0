"""Acceptance criteria: one test per numbered criterion.

Each test prints one [criterion NN] PASS/FAIL line with the measured
numbers, then asserts.  Criteria that the implementation cannot reach are
asserted at their stated tolerances anyway so they fail visibly rather
than being weakened; the measured values appear in the failure message.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_network
from test_association import two_tier
from hetnetsim import intensity, quadrature
from hetnetsim.association import (association_approx,
                                   association_closed_form_2tier,
                                   association_table)
from hetnetsim.coverage import coverage_with_beam_error, psi, sinr_coverage
from hetnetsim.metrics import energy_efficiency, rate_coverage
from hetnetsim.model import (AntennaPattern, Band, LinkState, db_to_linear,
                             with_balls, with_bias, with_density_scale)
from hetnetsim.montecarlo import (SimConfig, empirical_coverage,
                                  empirical_rate_coverage, simulate)

GRID_DB = (-20.0, -10.0, 0.0, 10.0, 20.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_sinr_vs_monte_carlo(table1):
    t0 = time.perf_counter()
    gammas = [db_to_linear(g) for g in GRID_DB]
    curve = sinr_coverage(table1, gammas)
    sim = SimConfig(drops=20_000, seed=101, parallel_chunks=8)
    probs, ses = empirical_coverage(simulate(table1, sim, workers=4), gammas)
    elapsed = time.perf_counter() - t0
    diffs = np.abs(curve.probability - probs)
    tols = np.maximum(0.03, 3.0 * ses)
    ok = bool(np.all(diffs <= tols)) and curve.converged.all() \
        and elapsed < 600.0
    _report(1, ok, f"max|analytic-mc|={diffs.max():.4f} "
                   f"(tol {tols.min():.3f}), {elapsed:.1f}s")


def test_criterion_02_snr_vs_monte_carlo(table1):
    gammas = [db_to_linear(g) for g in GRID_DB]
    curve = sinr_coverage(table1, gammas, mode="snr")
    sim = SimConfig(drops=100_000, seed=102, parallel_chunks=8)
    probs, _ = empirical_coverage(simulate(table1, sim, workers=4), gammas,
                                  mode="snr")
    diffs = np.abs(curve.probability - probs)
    ok = bool(np.all(diffs <= 0.02)) and curve.converged.all()
    _report(2, ok, f"max|analytic-mc|={diffs.max():.4f} (tol 0.02)")


def test_criterion_03_closed_form_equals_quadrature(table1):
    gammas = np.array([db_to_linear(g) for g in np.linspace(-25.0, 25.0, 50)])
    quad = sinr_coverage(table1, gammas, mode="snr")
    closed = sinr_coverage(table1, gammas, mode="closed24")
    diff = float(np.abs(quad.probability - closed.probability).max())
    ok = diff <= 1e-4 and quad.converged.all() and closed.converged.all()
    _report(3, ok, f"max diff over 50 thresholds = {diff:.2e} (tol 1e-4)")


def test_criterion_04_association_completeness(table1):
    def gap(cfg):
        table = association_table(cfg)
        void = math.exp(-math.pi * sum(t.density * t.outage_radius ** 2
                                       for t in cfg.tiers))
        return abs(table.total + void - 1.0)

    worst = gap(table1)
    rng = np.random.default_rng(104)
    for _ in range(100):
        worst = max(worst, gap(random_network(rng)))
    ok = worst <= 1e-6
    _report(4, ok, f"worst |total+void-1| over table1+100 random = {worst:.2e}")


def test_criterion_05_two_tier_closed_form_and_limit():
    rng = np.random.default_rng(105)
    worst_exact, worst_limit = 0.0, 0.0
    for _ in range(50):
        cfg = two_tier(rng, common_kappa=True, dense=True)
        table = association_table(cfg)
        for k in range(2):
            closed = association_closed_form_2tier(cfg, k)
            worst_exact = max(worst_exact,
                              abs(closed - float(table.per_tier[k])))
        big = cfg
        for k, tier in enumerate(cfg.tiers):
            big = with_balls(big, k, [10.0 * tier.balls[0].radius], [1.0])
        big_table = association_table(big)
        for k in range(2):
            share = association_approx(big, k)
            worst_limit = max(
                worst_limit,
                abs(association_closed_form_2tier(big, k) - share),
                abs(float(big_table.per_tier[k]) - share))
    ok = worst_exact <= 1e-6 and worst_limit <= 1e-2
    _report(5, ok, f"closed vs quadrature {worst_exact:.2e} (tol 1e-6); "
                   f"x10 radii vs density-power share {worst_limit:.2e} "
                   f"(tol 1e-2)")


def test_criterion_06_interference_gap_structure(table1):
    gammas = np.array([db_to_linear(g) for g in np.linspace(-20.0, 20.0, 9)])
    solo = table1.subset((0,))
    gap1 = sinr_coverage(solo, gammas, mode="snr").probability \
        - sinr_coverage(solo, gammas).probability
    gap3 = sinr_coverage(table1, gammas, mode="snr").probability \
        - sinr_coverage(table1, gammas).probability
    ok = bool(np.all(np.abs(gap1) <= 0.01) and np.all(gap3 > 0.0)
              and np.all(np.diff(gap3) > 0.0))
    _report(6, ok, f"single-tier max gap {np.abs(gap1).max():.2e} (tol 0.01); "
                   f"3-tier gap {gap3[0]:.1e} -> {gap3[-1]:.1e}, "
                   f"strictly growing")


def test_criterion_07_coverage_grows_with_main_gain(table1):
    covs = []
    for m_db in (0.0, 5.0, 10.0, 15.0):
        pat = AntennaPattern(main_gain=db_to_linear(m_db),
                             side_gain=table1.pattern.side_gain,
                             beamwidth_rad=table1.pattern.beamwidth_rad)
        covs.append(float(sinr_coverage(replace(table1, pattern=pat), [1.0],
                                        mode="snr").probability[0]))
    ok = all(b > a for a, b in zip(covs, covs[1:]))
    _report(7, ok, "snr coverage over M=0/5/10/15 dB: "
                   + " -> ".join(f"{c:.4f}" for c in covs))


def test_criterion_08_bias_offloads_without_gaining_coverage(table1):
    a23, covs = [], []
    for b_db in (0.0, 5.0, 10.0, 15.0):
        cfg = with_bias(table1, {1: db_to_linear(b_db),
                                 2: db_to_linear(b_db)})
        table = association_table(cfg)
        a23.append(float(table.per_tier[1] + table.per_tier[2]))
        covs.append(float(sinr_coverage(cfg, [1.0]).probability[0]))
    ok = all(b > a for a, b in zip(a23, a23[1:])) \
        and all(c <= covs[0] + 0.01 for c in covs)
    _report(8, ok, f"A2+A3 {a23[0]:.3f}->{a23[-1]:.3f} rising; coverage "
                   f"{covs[0]:.4f}->{covs[-1]:.4f} never above unbiased+0.01")


def test_criterion_09_beam_error_monotone_and_oracle(table1):
    sigmas_deg = (0.0, 3.0, 7.0, 10.0)
    covs = [float(coverage_with_beam_error(
        table1, [1.0], sigma_be_rad=math.radians(s)).probability[0])
        for s in sigmas_deg]
    sim = SimConfig(drops=20_000, seed=109, parallel_chunks=8)
    probs, ses = empirical_coverage(simulate(
        table1, sim, sigma_be_rad=math.radians(7.0), workers=4), [1.0])
    diff = abs(covs[2] - float(probs[0]))
    ok = all(b <= a + 1e-12 for a, b in zip(covs, covs[1:])) \
        and diff <= 3.0 * float(ses[0])
    _report(9, ok, "coverage over sigma=0/3/7/10 deg: "
                   + " -> ".join(f"{c:.4f}" for c in covs)
                   + f"; MC at 7 deg within {diff / float(ses[0]):.1f} se")


def test_criterion_10_rate_coverage_prose_values(table1):
    # Rate targets in bit/s on a log10 axis: 10^9 and 10^9.5.  Read as 9 and
    # 9.5 Gbit/s, they raise each SINR threshold by only 5.6 % in bits.  On
    # the log axis 0.5 and 0.25 are the coverage left once the micro tier,
    # then also the pico tier, can no longer carry the rate.  The axis is
    # inferred: the paper's rate figure is not in PAPER.md.
    rates = [1e9, 10 ** 9.5]
    curve = rate_coverage(table1, rates)
    sim = SimConfig(drops=20_000, seed=110, parallel_chunks=8)
    mc, mc_se = empirical_rate_coverage(
        table1, simulate(table1, sim, workers=4), rates,
        curve.meta["mean_loads"])
    r9, r95 = curve.probability
    consistent = all(abs(a - m) <= max(3.0 * s, 0.005)
                     for a, m, s in zip(curve.probability, mc, mc_se))
    ok = abs(r9 - 0.5) <= 0.1 and abs(r95 - 0.25) <= 0.1 and consistent
    _report(10, ok,
            f"rate coverage = {r9:.4f} @1e9 bit/s (target 0.5+-0.1), "
            f"{r95:.4f} @10^9.5 bit/s (target 0.25+-0.1); "
            f"simulator ({mc[0]:.4f}, {mc[1]:.4f}) within max(3se, 0.005) "
            f"of quadrature: {consistent}")


def test_criterion_11_energy_efficiency_bias_shape(table1):
    biases = np.arange(0.0, 21.0, 2.0)

    def ee_curve(cfg):
        return np.array([energy_efficiency(
            with_bias(cfg, {2: db_to_linear(b)}), 1.0).energy_efficiency
            for b in biases])

    base = ee_curve(table1)
    micro10 = ee_curve(with_density_scale(table1, {0: 10.0}))
    femto2 = ee_curve(with_density_scale(table1, {2: 2.0}))
    i = int(np.argmax(base))
    interior = 0 < i < len(biases) - 1
    lower = bool(np.all(micro10 < base))
    higher = bool(np.all(femto2 > base))
    ok = interior and lower and higher
    _report(11, ok,
            f"EE argmax at bias {biases[i]:g} dB "
            f"({'interior' if interior else 'endpoint'}; curve "
            f"{base[0]:.4f}->{base[-1]:.4f} is maximal unbiased at every "
            f"fixed threshold tried, so the rise-then-fall shape is not "
            f"reachable from the documented efficiency ratio); "
            f"micro x10 lowers curve: {lower}; femto x2 raises curve: "
            f"{higher}")


def test_criterion_12_hybrid_monotonicity(hybrid):
    gamma = [db_to_linear(0.0)]
    mm = [i for i, t in enumerate(hybrid.tiers) if t.band is Band.MMWAVE]
    by_bias = [float(sinr_coverage(
        with_bias(hybrid, {k: db_to_linear(b) for k in mm}),
        gamma).probability[0]) for b in (0.0, 5.0, 10.0)]
    by_density = [float(sinr_coverage(
        with_density_scale(hybrid, {0: m}), gamma).probability[0])
        for m in (1.0, 2.0, 4.0)]
    ok = all(b >= a - 1e-12 for a, b in zip(by_bias, by_bias[1:])) \
        and all(b <= a + 1e-12 for a, b in zip(by_density, by_density[1:]))
    _report(12, ok,
            "coverage vs mm bias 0/5/10 dB: "
            + " -> ".join(f"{c:.4f}" for c in by_bias)
            + "; vs microwave density x1/x2/x4: "
            + " -> ".join(f"{c:.4f}" for c in by_density))


def test_criterion_13_property_suite_on_random_configs():
    rng = np.random.default_rng(113)
    n_configs = 1000
    for _ in range(n_configs):
        cfg = random_network(rng)
        for n_fad in {cfg.fading.n_los, cfg.fading.n_nlos}:
            coefs = [(-1.0) ** (n + 1) * math.comb(n_fad, n)
                     for n in range(1, n_fad + 1)]
            assert sum(coefs) == 1.0
            for x in rng.uniform(0.01, 50.0, size=2):
                assert psi(n_fad, x) == pytest.approx(
                    1.0 - (1.0 + x) ** -n_fad, rel=1e-12)
        for k, tier in enumerate(cfg.tiers):
            pmf = cfg.interferer_gain_pmf(k)
            assert all(p >= 0.0 for _, p in pmf)
            assert sum(p for _, p in pmf) == pytest.approx(1.0, abs=1e-12)

            x_hi = max(intensity.max_loss(tier, LinkState.LOS),
                       intensity.max_loss(tier, LinkState.NLOS))
            xs = rng.uniform(0.0, 1.1 * x_hi, size=4)
            split = intensity.lambda_split(tier, LinkState.LOS, xs) \
                + intensity.lambda_split(tier, LinkState.NLOS, xs)
            total = intensity.lambda_total(tier, xs)
            assert np.allclose(split, total, rtol=1e-12, atol=1e-15)

            x_top = float(xs.max())
            if x_top > 0.0:
                res = quadrature.integrate(
                    lambda t: (intensity.lambda_density(tier, LinkState.LOS, t)
                               + intensity.lambda_density(
                                   tier, LinkState.NLOS, t)),
                    (0.0, x_top), intensity.breakpoints(tier),
                    abs_tol=1e-13, rel_tol=1e-11)
                want = float(intensity.lambda_total(tier, x_top))
                assert res.value == pytest.approx(
                    want, rel=1e-8, abs=1e-8 * max(want, 1e-6))

            bps = [0.0] + [b for b in intensity.breakpoints(tier)
                           if b <= x_hi] + [x_hi]
            bps = sorted(set(bps))
            gaps = np.diff(bps)
            j = int(np.argmax(gaps))
            mid, h = 0.5 * (bps[j] + bps[j + 1]), gaps[j] * 1e-5
            if h > 0.0:
                fd = (intensity.lambda_total(tier, mid + h)
                      - intensity.lambda_total(tier, mid - h)) / (2.0 * h)
                dens = intensity.lambda_density(tier, LinkState.LOS, mid) \
                    + intensity.lambda_density(tier, LinkState.NLOS, mid)
                assert fd == pytest.approx(dens, rel=1e-6,
                                           abs=1e-12 * max(1.0, dens))
    _report(13, True, f"intensity additivity, measure/density consistency, "
                      f"finite differences, tail-sum and gain-pmf identities "
                      f"on {n_configs} random configs")
