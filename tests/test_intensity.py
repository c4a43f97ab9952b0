"""Path-loss intensity measures, their densities and breakpoints.

The counting oracles here realize the defining property directly: the
measure at x is the expected number of stations whose path loss falls
below x, estimated by sampling plain Poisson scatters and counting.
"""

import math

import numpy as np
import pytest

from conftest import make_network, make_tier, random_network
from hetnetsim import quadrature
from hetnetsim.association import _void_exponent
from hetnetsim.intensity import breakpoints, state_segments, total_mass
from hetnetsim.model import LinkState
from oracles import lambda_density, lambda_split


def _measure(tier, xs):
    """Lambda_k([0, x)) as the library evaluates it, bitwise lambda_total."""
    return _void_exponent(make_network([tier]), np.ones(1))(np.array(xs))


def _count_below(tier, x_grid, n_real, rng, state=None):
    """Empirical mean count of stations with path loss below each x."""
    r_max = tier.outage_radius
    counts = rng.poisson(tier.density * math.pi * r_max * r_max, size=n_real)
    total = int(counts.sum())
    r = r_max * np.sqrt(rng.uniform(size=total))
    real_id = np.repeat(np.arange(n_real), counts)
    radii = np.array([b.radius for b in tier.balls])
    ball = np.searchsorted(radii, r, side="right")
    is_los = rng.uniform(size=total) < np.array(
        [b.los_prob for b in tier.balls])[ball]
    if state is LinkState.LOS:
        keep = is_los
    elif state is LinkState.NLOS:
        keep = ~is_los
    else:
        keep = np.ones(total, dtype=bool)
    kl = np.array([b.kappa_los for b in tier.balls])[ball]
    kn = np.array([b.kappa_nlos for b in tier.balls])[ball]
    al = np.array([b.alpha_los for b in tier.balls])[ball]
    an = np.array([b.alpha_nlos for b in tier.balls])[ball]
    loss = np.where(is_los, kl * r ** al, kn * r ** an)
    means = np.empty(len(x_grid))
    ses = np.empty(len(x_grid))
    for i, x in enumerate(x_grid):
        per_real = np.bincount(real_id[keep & (loss < x)], minlength=n_real)
        means[i] = per_real.mean()
        ses[i] = per_real.std(ddof=1) / math.sqrt(n_real)
    return means, ses


def test_single_ball_hand_value_and_counting_oracle():
    # lambda = 1e-4, R = 50, beta = 1, alpha = 2, kappa = 1: at x = 900 the
    # measure is pi * 1e-4 * 900 because (x/kappa)^(2/alpha) = 900 < R^2
    tier = make_tier(density=1e-4, radii=(50.0,), betas=(1.0,),
                     alpha_los=2.0, kappa_los=1.0)
    value = _measure(tier, [900.0])[0]
    assert value == pytest.approx(math.pi * 1e-4 * 900.0, rel=1e-12)

    rng = np.random.default_rng(1234)
    mean, se = _count_below(tier, [900.0], 100_000, rng)
    assert abs(mean[0] - value) <= 3.0 * se[0]


def test_split_saturation_matches_state_counting(table1):
    pico = table1.tiers[1]
    lam = pico.density
    big = 1e300
    assert lambda_split(pico, LinkState.LOS, big) == \
        pytest.approx(math.pi * lam * 40.0 ** 2, rel=1e-12)
    assert lambda_split(pico, LinkState.NLOS, big) == \
        pytest.approx(math.pi * lam * (60.0 ** 2 - 40.0 ** 2), rel=1e-12)

    rng = np.random.default_rng(99)
    for state, x in ((LinkState.LOS, big), (LinkState.NLOS, big)):
        mean, se = _count_below(pico, [x], 60_000, rng, state=state)
        expect = lambda_split(pico, state, x)
        assert abs(mean[0] - expect) <= 3.0 * max(se[0], 1e-4)


def test_all_los_has_no_nlos_mass():
    tier = make_tier(radii=(30.0, 80.0), betas=(1.0, 1.0))
    assert state_segments(tier, LinkState.NLOS) == ()
    tier0 = make_tier(radii=(30.0, 80.0), betas=(0.0, 0.0))
    assert state_segments(tier0, LinkState.LOS) == ()


def test_measure_limits(table1):
    for tier in table1.tiers:
        empty, full = _measure(tier, [0.0, 1e300])
        assert empty == 0.0
        assert full == pytest.approx(
            math.pi * tier.density * tier.outage_radius ** 2, rel=1e-12)
        assert total_mass(tier) == pytest.approx(
            math.pi * tier.density * tier.outage_radius ** 2)


def test_density_flat_for_single_unit_ball():
    tier = make_tier(density=2e-4, radii=(50.0,), betas=(1.0,),
                     alpha_los=2.0, kappa_los=1.0)
    xs = np.linspace(1.0, 2499.0, 37)
    dens = lambda_density(tier, LinkState.LOS, xs)
    assert np.allclose(dens, math.pi * 2e-4, rtol=1e-12)
    assert lambda_density(tier, LinkState.LOS, 2501.0) == 0.0


def test_density_compact_support():
    rng = np.random.default_rng(21)
    for _ in range(10):
        cfg = random_network(rng)
        tier = cfg.tiers[0]
        for state in (LinkState.LOS, LinkState.NLOS):
            hi = max((s.hi_x for s in state_segments(tier, state)),
                     default=0.0)
            if hi == 0.0:
                continue
            assert lambda_density(tier, state, hi * 1.0001) == 0.0
            assert lambda_density(tier, state, -1.0) == 0.0


def test_finite_difference_density():
    rng = np.random.default_rng(3)
    for _ in range(12):
        cfg = random_network(rng)
        tier = cfg.tiers[0]
        for state in (LinkState.LOS, LinkState.NLOS):
            segs = state_segments(tier, state)
            if not segs:
                continue
            bps = breakpoints(tier)
            for seg in segs:
                x = 0.5 * (seg.lo_x + seg.hi_x)
                if x <= 0 or min(abs(x - b) for b in bps) < 1e-6 * x:
                    continue
                h = 1e-6 * x
                fd = (lambda_split(tier, state, x + h)
                      - lambda_split(tier, state, x - h)) / (2.0 * h)
                dens = lambda_density(tier, state, x)
                assert fd == pytest.approx(dens, rel=1e-6, abs=1e-18)


def test_density_integrates_to_measure():
    rng = np.random.default_rng(17)
    for _ in range(10):
        cfg = random_network(rng)
        tier = cfg.tiers[0]
        for state in (LinkState.LOS, LinkState.NLOS):
            hi = max((s.hi_x for s in state_segments(tier, state)),
                     default=0.0)
            if hi == 0.0:
                continue
            x = 0.73 * hi
            res = quadrature.integrate(
                lambda t: lambda_density(tier, state, t), (0.0, x),
                breakpoints(tier), abs_tol=1e-12, rel_tol=1e-10)
            assert res.value == pytest.approx(
                lambda_split(tier, state, x), rel=1e-8, abs=1e-14)


def test_breakpoints_single_ball():
    tier = make_tier(radii=(50.0,), betas=(1.0,), alpha_los=2.0,
                     kappa_los=1.0)
    assert breakpoints(tier) == (2500.0,)


def test_breakpoints_table1_candidates(table1):
    micro = table1.tiers[0]
    candidates = [edge for state in (LinkState.LOS, LinkState.NLOS)
                  for seg in state_segments(micro, state)
                  for edge in (seg.lo_x, seg.hi_x)]
    assert len(candidates) == 8
    bps = breakpoints(micro)
    assert all(b > 0 for b in bps)
    assert len(set(bps)) == len(bps)
    positive = {c for c in candidates if c > 0}
    assert set(bps) == positive


def test_breakpoints_dedup_coincident_edges():
    # two balls tuned so the outer LOS edge of ball 1 lands exactly on the
    # inner edge value of ball 2's segment
    tier = make_tier(radii=(10.0, 20.0), betas=(1.0, 1.0), alpha_los=2.0,
                     kappa_los=1.0)
    bps = breakpoints(tier)
    assert len(set(bps)) == len(bps)
    assert bps == tuple(sorted(bps))
