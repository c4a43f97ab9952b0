"""SINR/SNR coverage: Alzer terms, interference oracle, closed forms."""

import itertools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy.special import exprel

from conftest import make_network, make_tier
from hetnetsim import coverage, intensity
from hetnetsim.association import association_table, power_ratios
from hetnetsim.coverage import (alignment_probability,
                                coverage_with_beam_error, eta, psi,
                                sinr_coverage)
from hetnetsim.model import (AntennaPattern, Band, FadingConfig, LinkState,
                             db_to_linear)
from hetnetsim.montecarlo import SimConfig, empirical_coverage, simulate
from oracles import (interference_term, lambda_density, lambda_total,
                     quadrature_coverage)


def test_psi_values():
    assert psi(1, 0.0) == 0.0
    assert psi(1, 1.0) == pytest.approx(0.5)
    assert psi(3, 2.0) == pytest.approx(26.0 / 27.0)
    # stable for tiny arguments where 1-(1+x)^-N cancels
    assert psi(2, 1e-15) == pytest.approx(2e-15, rel=1e-6)


def test_eta_values():
    assert eta(1) == pytest.approx(1.0)
    assert eta(2) == pytest.approx(math.sqrt(2.0))
    assert eta(3) == pytest.approx(3.0 / 6.0 ** (1.0 / 3.0))


def test_alzer_sum_identity():
    # sum_n (-1)^(n+1) C(N,n) = 1 for every N >= 1
    for n_fad in range(1, 8):
        coefs = [(-1.0) ** (n + 1) * math.comb(n_fad, n)
                 for n in range(1, n_fad + 1)]
        assert sum(coefs) == pytest.approx(1.0)


def desk_config():
    tier = make_tier(density=3e-4, p_dbm=30.0, radii=(60.0,), betas=(1.0,),
                     alpha_los=2.0, kappa_los=1.0)
    return make_network([tier])


def test_interference_term_zero_threshold():
    cfg = desk_config()
    val = interference_term(cfg, 0, LinkState.LOS, 0, 1, 0.0, 500.0)
    assert val == 0.0


def test_interference_term_vanishing_density():
    cfg = desk_config()
    thin = make_network([replace(cfg.tiers[0], density=1e-30)],
                        pattern=cfg.pattern, fading=cfg.fading)
    val = interference_term(thin, 0, LinkState.LOS, 0, 2, 2.0, 500.0)
    assert abs(val) < 1e-25


def test_interference_term_against_expectation_oracle():
    # the defining expectation by nested quadrature: E_h[1 - exp(-z h / t)]
    # against the Gamma(N, 1/N) density of h, then over the flat
    # squared-radius measure (t equals v here), summed over the gain pmf
    cfg = desk_config()
    tier = cfg.tiers[0]
    n, gamma = 2, 2.0
    l = 0.3 * 60.0 ** 2
    term = interference_term(cfg, 0, LinkState.LOS, 0, n, gamma, l)

    n_fad = cfg.fading.n(LinkState.LOS)
    log_norm = n_fad * math.log(n_fad) - math.lgamma(n_fad)

    def fading_pdf(h):
        return math.exp(log_norm + (n_fad - 1) * math.log(h) - n_fad * h)

    def expectation(s):
        return sp_integrate.quad(lambda h: -math.expm1(-s * h) * fading_pdf(h),
                                 0.0, math.inf, epsabs=0.0, epsrel=1e-13)[0]

    oracle = 0.0
    for gain, prob in cfg.interferer_gain_pmf(0):
        z = n * eta(n_fad) * gamma * gain * l / cfg.serving_gain(0)
        oracle += prob * sp_integrate.quad(
            lambda v: expectation(z / v), l, 60.0 ** 2,
            epsabs=0.0, epsrel=1e-12)[0]
    oracle *= math.pi * tier.density
    assert term == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("alpha", [1.0, 1.8, 2.0 - 1e-6, 2.0, 2.0 + 1e-6,
                                   2.6, 4.0, 4.5])
def test_annulus_integral_against_mpmath(alpha):
    # the per-annulus integral of 1 - (1 + c v^-delta)^-N at 40 digits, cut
    # where c v^-delta = 1; c = 1e4 and 1e8 put that knee inside [v0, v1],
    # and N = 40 checks the series split for strong fading; one array call
    # per N mixes every c, and so fast and slow series, with an empty piece
    delta = alpha / 2.0
    v0, v1 = 2500.0, 40000.0
    cs = (1e-6, 1.0, 1e4, 1e8)
    for n in (1, 3, 5, 40):
        assert coverage._annulus_integral(n, delta, 0.0, v0, v1) == 0.0
        mixed = coverage._annulus_integral(
            n, delta, np.array((0.0,) + cs + (1.0,)),
            np.array([v0] * (len(cs) + 1) + [v1]), v1)
        assert mixed[0] == 0.0 and mixed[-1] == 0.0
        for c, in_array in zip(cs, mixed[1:]):
            got = float(coverage._annulus_integral(n, delta, c, v0, v1))
            knee = min(max(c ** (1.0 / delta), v0), v1)
            with mpmath.workdps(40):
                exact = mpmath.quad(
                    lambda v: 1 - (1 + c * v ** -mpmath.mpf(delta)) ** -n,
                    sorted({v0, knee, v1}))
            assert got == pytest.approx(float(exact), rel=1e-12, abs=0.0)
            assert in_array == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def _annulus_integral_reference(n, delta, c, v0, v1):
    """The kernel's series as first written: exprel terms, one global stop.

    Every element runs until the slowest one converges, and the 2F1 piece is
    evaluated per element at both ends.
    """
    c, v0 = np.broadcast_arrays(c, v0)
    p = 1.0 / delta
    x_s = min(0.5, 3.0 / n)
    mid = np.clip((c / x_s) ** p, v0, v1)
    near = mid > v0
    closed = np.zeros(c.shape)
    closed[near] = (coverage._psi_antiderivative(n, p, c[near], mid[near])
                    - coverage._psi_antiderivative(n, p, c[near], v0[near]))
    x_mid = np.minimum(c * mid ** -delta, x_s)
    x_hi = np.minimum(c * v1 ** -delta, x_s)
    span = np.log1p((v1 - mid) / mid)
    series = np.zeros(c.shape)
    coef, pow_mid, pow_hi = -1.0, 1.0, 1.0
    for k in itertools.count(1):
        coef *= -(n + k - 1.0) / k
        pow_mid = pow_mid * x_mid
        pow_hi = pow_hi * x_hi
        e = 1.0 - delta * k
        if e > 0.0:
            term = coef * v1 * pow_hi * span * exprel(-e * span)
        else:
            term = coef * mid * pow_mid * span * exprel(e * span)
        series += term
        if k >= n and not np.any(np.abs(term) > 1e-17 * np.abs(series)):
            break
    return closed + series


@st.composite
def annulus_batches(draw):
    """(N, delta, c, v0, v1): one annulus, mixed c, some empty pieces."""
    alpha = draw(st.sampled_from([1.8, 2.0 - 1e-6, 2.0, 2.0 + 1e-6, 2.6,
                                  4.5]))
    n = draw(st.integers(1, 40))
    size = draw(st.integers(1, 12))
    v1 = 10.0 ** draw(st.floats(0.0, 6.0))
    c = draw(st.lists(st.just(0.0) | st.floats(-12.0, 10.0).map(
        lambda e: 10.0 ** e), min_size=size, max_size=size))
    # v0 as a fraction of v1; 1.0 makes an empty piece
    frac = draw(st.lists(st.just(1.0) | st.floats(1e-3, 1.0),
                         min_size=size, max_size=size))
    return n, alpha / 2.0, np.array(c), v1 * np.array(frac), v1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(annulus_batches())
def test_annulus_integral_matches_reference_series(batch):
    # the suffix loop, the expm1 terms and the shared split sum change only
    # rounding.  An array call equals its elements' scalar calls: the terms
    # an element still gets while it waits in the suffix are each below half
    # an ulp of its sum, and they only shrink, so each rounds away
    n, delta, c, v0, v1 = batch
    got = coverage._annulus_integral(n, delta, c, v0, v1)
    want = _annulus_integral_reference(n, delta, c, v0, v1)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    scalar = [float(coverage._annulus_integral(n, delta, ci, v0i, v1))
              for ci, v0i in zip(c, v0)]
    np.testing.assert_array_equal(got, scalar)
    # 0 <= psi <= 1, up to the kernel's rounding
    assert np.all(got >= 0.0) and np.all(got <= (v1 - v0) * (1.0 + 1e-13))


def test_zero_threshold_limit_is_association_mass(table1):
    cv = sinr_coverage(table1, [1e-12])
    t = association_table(table1)
    assert cv.probability[0] == pytest.approx(t.total, abs=1e-6)


def test_rayleigh_single_term_against_reference(table1):
    # with N = 1 the alternating sum has one term; rebuild it through an
    # unrelated integrator as a cross-check of the full pipeline
    cfg = replace(table1, fading=FadingConfig(n_los=1, n_nlos=1))
    gamma = db_to_linear(3.0)
    cv = sinr_coverage(cfg, [gamma])

    total = 0.0
    for k, tier in enumerate(cfg.tiers):
        ratios = power_ratios(cfg, k)
        g0 = cfg.serving_gain(k)
        for state in (LinkState.LOS, LinkState.NLOS):
            a1 = gamma * tier.noise_power / (tier.tx_power * g0)

            # evaluated on whole node arrays of any shape
            def integrand(l):
                flat = l.ravel()
                expo = -a1 * flat
                for j, other in enumerate(cfg.tiers):
                    expo -= lambda_total(other, ratios[j] * flat)
                    for s2 in (LinkState.LOS, LinkState.NLOS):
                        expo -= coverage._interference_batch(
                            cfg, k, j, s2, gamma, flat, np.array([1]), g0,
                            ratios[j])[0]
                dens = lambda_density(tier, state, flat)
                return (dens * np.exp(expo)).reshape(l.shape)

            hi = max((s.hi_x for s in intensity.state_segments(tier, state)),
                     default=0.0)
            if hi == 0.0:
                continue
            # every kink of the density, the void and the exclusion zones
            pts = {0.0, hi}
            for j, other in enumerate(cfg.tiers):
                pts.update(b / ratios[j] for b in intensity.breakpoints(other))
            pts = np.array(sorted(p for p in pts if 0.0 <= p <= hi))
            res = sp_integrate.tanhsinh(integrand, pts[:-1], pts[1:],
                                        atol=1e-12, rtol=1e-10)
            assert np.all(res.success)
            total += float(np.sum(res.integral))
    assert cv.probability[0] == pytest.approx(total, abs=5e-5)


def test_snr_equals_sinr_with_interference_removed(table1, monkeypatch):
    gammas = [db_to_linear(x) for x in (-5.0, 5.0)]
    snr = sinr_coverage(table1, gammas, mode="snr")

    def no_interference(cfg, k, j, s_int, gamma_k, l, n_values, g0,
                        excl_ratio, **kw):
        return np.zeros((np.size(n_values), np.size(l)))

    monkeypatch.setattr(coverage, "_interference_batch", no_interference)
    forced = sinr_coverage(table1, gammas)
    assert np.allclose(snr.probability, forced.probability, atol=1e-9)


def test_noise_free_snr_is_association_mass(table1):
    quiet = replace(table1, tiers=tuple(replace(t, noise_power=1e-300)
                                        for t in table1.tiers))
    cv = sinr_coverage(quiet, [db_to_linear(30.0)], mode="snr")
    t = association_table(table1)
    assert cv.probability[0] == pytest.approx(t.total, abs=1e-6)


def test_closed_form_matches_quadrature(table1):
    gammas = np.array([db_to_linear(x) for x in np.linspace(-25.0, 25.0, 11)])
    quad, _, _ = quadrature_coverage(table1, gammas)
    closed = sinr_coverage(table1, gammas, mode="snr")
    assert np.abs(quad - closed.probability).max() <= 1e-4
    assert closed.converged.all()


def test_snr_mode_selects_closed_form_by_exponents(table1, hybrid):
    # exponents 2 and 4 only: the closed form, with zero error, agrees with
    # quadrature within quadrature's own error
    gammas = [db_to_linear(x) for x in np.linspace(-20.0, 30.0, 6)]
    for base in (table1, hybrid):
        for a_los, a_nlos in itertools.product((2.0, 4.0), repeat=2):
            cfg = replace(base, tiers=tuple(replace(t, balls=tuple(
                replace(b, alpha_los=a_los, alpha_nlos=a_nlos)
                for b in t.balls)) for t in base.tiers))
            closed = sinr_coverage(cfg, gammas, mode="snr")
            quad, err, _ = quadrature_coverage(cfg, gammas)
            assert (closed.error == 0.0).all() and closed.converged.all()
            assert (np.abs(closed.probability - quad) <= err + 1e-15).all()
    # any other exponent: quadrature, bit for bit
    cfg = make_network([make_tier(alpha_los=2.5)])
    curve = sinr_coverage(cfg, gammas, mode="snr")
    quad, err, _ = quadrature_coverage(cfg, gammas)
    assert np.array_equal(curve.probability, quad)
    assert np.array_equal(curve.error, err) and (err > 0.0).any()
    with pytest.raises(ValueError, match="sinr or snr"):
        sinr_coverage(cfg, gammas, mode="closed24")


def test_single_tier_hand_gaussian_formula():
    # one all-LOS ball with exponent 2: the coverage integral reduces to
    # sum_n coef_n * rho/(n a1 + rho) * (1 - exp(-(n a1 + rho) kappa R^2))
    # with rho = pi lambda / kappa, integrated in the path-loss variable
    lam, r_ball, kappa = 2e-4, 80.0, 50.0
    tier = make_tier(density=lam, p_dbm=33.0, radii=(r_ball,), betas=(1.0,),
                     alpha_los=2.0, kappa_los=kappa, noise=2e-10)
    cfg = make_network([tier])
    gamma = db_to_linear(5.0)
    n_fad = cfg.fading.n_los
    a1 = eta(n_fad) * gamma * tier.noise_power / (tier.tx_power * 100.0)
    rho = math.pi * lam / kappa
    l_max = kappa * r_ball ** 2
    hand = 0.0
    for n in range(1, n_fad + 1):
        coef = (-1.0) ** (n + 1) * math.comb(n_fad, n)
        p = n * a1 + rho
        hand += coef * rho / p * (1.0 - math.exp(-p * l_max))
    for value in (sinr_coverage(cfg, [gamma], mode="snr").probability[0],
                  quadrature_coverage(cfg, [gamma])[0][0]):
        assert value == pytest.approx(hand, abs=1e-9)


def test_threshold_shapes(table1):
    gamma = db_to_linear(0.0)
    scalar = sinr_coverage(table1, gamma)
    grid = sinr_coverage(table1, [gamma, gamma])
    per_tier = sinr_coverage(table1, np.full((1, 3), gamma))
    assert scalar.probability.shape == (1,)
    assert grid.probability.shape == (2,)
    assert grid.probability[0] == pytest.approx(grid.probability[1])
    assert per_tier.probability[0] == pytest.approx(scalar.probability[0],
                                                    abs=1e-9)
    with pytest.raises(ValueError):
        sinr_coverage(table1, [-1.0])
    with pytest.raises(ValueError):
        sinr_coverage(table1, [0.0])


def test_conditional_decomposition(table1):
    cv = sinr_coverage(table1, [db_to_linear(0.0)])
    t = association_table(table1)
    mix = sum(cv.conditional(k, t)[0] * t.per_tier[k] for k in range(3))
    assert mix == pytest.approx(cv.probability[0], rel=1e-9)


def test_alignment_probability_limits():
    theta = math.radians(30.0)
    assert alignment_probability(theta, 0.0) == 1.0
    assert alignment_probability(theta, 1e9) == pytest.approx(0.0, abs=1e-6)
    assert alignment_probability(theta, math.radians(7.0)) == pytest.approx(
        math.erf(theta / (2.0 * math.sqrt(2.0) * math.radians(7.0))))


def test_alignment_probability_rejects_bad_pointing_error(table1):
    for sigma in (math.nan, math.inf, -math.inf, -0.1):
        with pytest.raises(ValueError, match="finite and >= 0"):
            alignment_probability(0.5, sigma)
    with pytest.raises(ValueError, match="finite and >= 0"):
        coverage_with_beam_error(table1, [1.0], sigma_be_rad=math.nan)


def test_beam_error_limits(table1):
    gammas = [db_to_linear(0.0)]
    base = sinr_coverage(table1, gammas)
    perfect = coverage_with_beam_error(table1, gammas, sigma_be_rad=0.0)
    assert perfect.probability[0] == pytest.approx(base.probability[0],
                                                   rel=1e-12)
    m_gain = table1.pattern.main_gain * table1.pattern.side_gain
    mm_gain = table1.pattern.side_gain ** 2
    blind = coverage_with_beam_error(table1, gammas, sigma_be_rad=1e9)
    worst = sinr_coverage(table1, [[g * table1.serving_gain(k) / mm_gain
                                    for k in range(3)] for g in gammas])
    assert blind.probability[0] == pytest.approx(worst.probability[0],
                                                 rel=1e-6)
    # monotone in the error spread
    sigmas = [0.0, math.radians(3.0), math.radians(7.0), math.radians(10.0)]
    covs = [coverage_with_beam_error(table1, gammas, sigma_be_rad=s)
            .probability[0] for s in sigmas]
    assert all(covs[i] >= covs[i + 1] - 1e-12 for i in range(len(covs) - 1))
    assert m_gain > mm_gain


def test_beam_error_skips_zero_weight_parts(table1, monkeypatch):
    # at sigma 0 only the aligned part has weight; the others are not run
    calls = []
    real = coverage.sinr_coverage

    def counted(cfg, grid, **kwargs):
        # the serving gain each grid row stands for: G gamma / grid
        calls.extend(cfg.serving_gain(0)
                     * np.resize(gammas, len(grid)) / grid[:, 0])
        return real(cfg, grid, **kwargs)

    monkeypatch.setattr(coverage, "sinr_coverage", counted)
    gammas = [db_to_linear(x) for x in (-5.0, 5.0)]
    perfect = coverage_with_beam_error(table1, gammas, sigma_be_rad=0.0)
    assert calls == [table1.pattern.main_gain ** 2] * len(gammas)
    base = real(table1, gammas)
    for field in ("probability", "joint", "error", "converged"):
        assert np.array_equal(getattr(perfect, field), getattr(base, field))


def test_beam_error_hybrid_zero_spread_is_sinr_coverage(hybrid):
    gammas = [db_to_linear(x) for x in (0.0, 10.0)]
    perfect = coverage_with_beam_error(hybrid, gammas, sigma_be_rad=0.0)
    base = sinr_coverage(hybrid, gammas)
    for field in ("probability", "joint", "error", "converged"):
        assert np.array_equal(getattr(perfect, field), getattr(base, field))


def test_beam_error_hybrid_against_monte_carlo(hybrid):
    # the microwave tier's base-station end keeps its own wide beam; the
    # analytic-minus-Monte-Carlo gap at sigma 0 is the Gamma-tail bias, so
    # only the change of the gap with sigma is held to sampling noise
    gammas = [db_to_linear(x) for x in (0.0, 10.0)]
    sigma = math.radians(10.0)
    sim = SimConfig(drops=100_000, seed=4, parallel_chunks=4)
    gaps, ses = [], []
    for s in (0.0, sigma):
        analytic = coverage_with_beam_error(hybrid, gammas, sigma_be_rad=s)
        mc, se = empirical_coverage(simulate(hybrid, sim, sigma_be_rad=s),
                                    gammas)
        gaps.append(analytic.probability - mc)
        ses.append(se)
    assert np.all(np.abs(gaps[1] - gaps[0]) <= 4.0 * (ses[0] + ses[1]))


def test_hybrid_high_thresholds_converge(hybrid):
    gammas = [db_to_linear(x) for x in (15.0, 20.0)]
    assert sinr_coverage(hybrid, gammas).converged.all()


def test_cross_band_isolation(hybrid):
    # a microwave-side lobe change affects only the microwave tier's own
    # interference; mmWave joint terms must not move at all
    gammas = [db_to_linear(0.0)]
    base = sinr_coverage(hybrid, gammas)
    mu_pat = hybrid.mu_pattern
    bent = replace(hybrid, mu_pattern=AntennaPattern(
        main_gain=mu_pat.main_gain, side_gain=0.25 * mu_pat.side_gain,
        beamwidth_rad=mu_pat.beamwidth_rad))
    moved = sinr_coverage(bent, gammas)
    mm = [k for k, t in enumerate(hybrid.tiers) if t.band is Band.MMWAVE]
    for k in mm:
        assert np.allclose(base.joint[:, k, :], moved.joint[:, k, :],
                           atol=1e-12)
    assert abs(base.joint[0, 0, :].sum() - moved.joint[0, 0, :].sum()) > 1e-9


def test_mu_pattern_main_gain_moves_the_microwave_tier(hybrid):
    # the serving gain follows the pattern it is derived from, in the
    # analytic coverage and in the drop simulator alike
    mu_pat = hybrid.mu_pattern
    louder = replace(hybrid, mu_pattern=replace(
        mu_pat, main_gain=4.0 * mu_pat.main_gain))
    assert louder.serving_gain(0) == pytest.approx(
        4.0 * hybrid.serving_gain(0), rel=1e-15)
    assert louder.serving_gain(1) == hybrid.serving_gain(1)
    gammas = [db_to_linear(10.0)]
    base, moved = sinr_coverage(hybrid, gammas), sinr_coverage(louder, gammas)
    assert moved.joint[0, 0, :].sum() > base.joint[0, 0, :].sum() + 0.01
    sim = SimConfig(drops=4000, seed=6)
    mc_base, se_base = empirical_coverage(simulate(hybrid, sim), gammas)
    mc_moved, se_moved = empirical_coverage(simulate(louder, sim), gammas)
    assert mc_moved[0] - mc_base[0] > 4.0 * (se_base[0] + se_moved[0])


def test_coverage_monotone_in_threshold(table1):
    gammas = [db_to_linear(x) for x in (-10.0, 0.0, 10.0)]
    cv = sinr_coverage(table1, gammas)
    assert cv.probability[0] >= cv.probability[1] >= cv.probability[2]
