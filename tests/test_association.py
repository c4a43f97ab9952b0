"""Tier/state association probabilities: quadrature, closed form, limits."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_network, make_tier, random_network
from hetnetsim import intensity
from hetnetsim.association import (AssociationTable, _void_exponent,
                                   association_table, outage_probability,
                                   power_ratios)
from hetnetsim.model import BallSpec, LinkState
from hetnetsim.metrics import mean_loads
from hetnetsim.model import validate
from hetnetsim.montecarlo import SimConfig, empirical_association, simulate
from oracles import (association_approx, association_closed_form_2tier,
                     lambda_total)


def two_tier(rng, common_kappa=False, dense=False):
    """Random config admissible for the closed form: one all-LOS ball, alpha 2.

    The plain density-power-bias share is the large-radius limit only when
    tiers share the path-loss intercept, so limit checks set common_kappa;
    dense keeps the residual outage negligible after radius scaling.
    """
    kappa = float(10.0 ** rng.uniform(0.0, 6.0))
    lo = -4.5 if dense else -5.0
    tiers = [make_tier(density=float(10.0 ** rng.uniform(lo, -3.0)),
                       p_dbm=float(rng.uniform(20.0, 50.0)),
                       bias=float(10.0 ** rng.uniform(-1.0, 1.0)),
                       radii=(float(rng.uniform(50.0, 300.0)),),
                       betas=(1.0,), alpha_los=2.0,
                       kappa_los=(kappa if common_kappa else
                                  float(10.0 ** rng.uniform(0.0, 6.0))))
             for _ in range(2)]
    return make_network(tiers)


def test_identical_tiers_symmetric():
    tier = make_tier(density=2e-4, radii=(80.0,), betas=(0.6,))
    cfg = make_network([tier, tier])
    t = association_table(cfg)
    for s in range(2):
        assert t.joint[0, s] == pytest.approx(t.joint[1, s], rel=1e-9)


def test_single_tier_all_los_is_void_complement():
    tier = make_tier(density=1e-4, radii=(60.0,), betas=(1.0,))
    cfg = make_network([tier])
    t = association_table(cfg)
    assert t.joint[0, 1] == 0.0
    assert t.joint[0, 0] == pytest.approx(
        1.0 - math.exp(-math.pi * 1e-4 * 60.0 ** 2), abs=1e-9)


def test_completeness_table1(table1):
    t = association_table(table1)
    assert t.total + t.outage == pytest.approx(1.0, abs=1e-6)


def test_completeness_random_configs():
    rng = np.random.default_rng(42)
    for _ in range(20):
        cfg = random_network(rng)
        t = association_table(cfg)
        assert t.total + t.outage == pytest.approx(1.0, abs=1e-6)


def test_monte_carlo_oracle_table1(table1):
    t = association_table(table1)
    sim = SimConfig(drops=100_000, seed=2024, parallel_chunks=8)
    joint, joint_se, outage, outage_se = empirical_association(
        table1, simulate(table1, sim))
    for k in range(3):
        for s in range(2):
            se = max(joint_se[k, s], 1e-4)
            assert abs(joint[k, s] - t.joint[k, s]) <= 3.0 * se
    assert abs(outage - t.outage) <= 3.0 * max(outage_se, 1e-4)


def test_loss_falling_between_balls_keeps_all_mass():
    # the inner ball's kappa puts its edge loss (2.5e7) far above the outer
    # ball's (1e4), so the support must end at the largest edge, not the last
    tier = make_tier(density=2e-4, radii=(50.0, 100.0), betas=(1.0, 1.0))
    balls = (replace(tier.balls[0], kappa_los=1e4, kappa_nlos=1e4),
             replace(tier.balls[1], kappa_los=1.0, kappa_nlos=1.0))
    cfg = make_network([replace(tier, balls=balls)])
    t = association_table(cfg)
    assert t.total + t.outage == pytest.approx(1.0, abs=t.error + 1e-9)
    joint, joint_se, _, _ = empirical_association(
        cfg, simulate(cfg, SimConfig(drops=200_000, seed=3)))
    assert abs(joint[0, 0] - t.joint[0, 0]) <= 4.0 * joint_se[0, 0]


def test_closed_form_matches_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(50):
        cfg = two_tier(rng)
        for k in (0, 1):
            closed = association_closed_form_2tier(cfg, k)
            quad = association_table(cfg, abs_tol=1e-12,
                                     rel_tol=1e-10).joint[k, 0]
            assert closed == pytest.approx(quad, abs=1e-6)


def test_closed_form_rejects_inadmissible(table1):
    with pytest.raises(ValueError):
        association_closed_form_2tier(table1, 0)


def test_approx_identical_tiers_and_bias_algebra():
    tier = make_tier(density=1e-4, radii=(50.0,), betas=(1.0,))
    cfg = make_network([tier, tier, tier])
    for k in range(3):
        assert association_approx(cfg, k) == pytest.approx(1.0 / 3.0)

    cfg2 = make_network([tier, tier])
    before = association_approx(cfg2, 0)
    doubled = make_network([replace(tier, bias=2.0 * tier.bias), tier])
    after = association_approx(doubled, 0)
    assert after == pytest.approx(2.0 * before / (1.0 + before), rel=1e-12)


def test_mean_load_limits(table1):
    cfg0 = replace(table1, ue_density=0.0)
    validate(cfg0)
    t = association_table(cfg0)
    for k in range(3):
        assert mean_loads(cfg0, t)[k] == pytest.approx(1.0)

    empty = AssociationTable(joint=np.zeros((3, 2)), outage=1.0,
                             error=0.0, converged=True)
    assert mean_loads(table1, empty)[0] == pytest.approx(1.0)

    t1 = association_table(table1)
    loads = mean_loads(table1, t1)
    assert all(load >= 1.0 for load in loads)


def test_outage_probability_value(table1):
    expect = math.exp(-math.pi * (1e-5 * 200.0 ** 2 + 1e-4 * 60.0 ** 2
                                  + 5e-4 * 40.0 ** 2))
    assert outage_probability(table1) == pytest.approx(expect, rel=1e-12)


def test_association_prob_converges(table1):
    t = association_table(table1)
    assert t.converged
    assert np.all((0.0 <= t.joint) & (t.joint <= 1.0))


def test_association_mass_complete_on_extreme_tiers():
    # tier 0 (weak power, large intercept, tiny bias) holds only about
    # 3.6e-7 of the mass; an integral that steps over it misses completeness
    # by more than its own error estimate
    cfg = make_network([
        make_tier(density=6.128e-4, p_dbm=19.54, bias=0.01349,
                  radii=(202.0, 1118.5, 1561.1),
                  betas=(0.5361, 0.7483, 0.8966), alpha_los=1.776,
                  kappa_los=2.491e6),
        make_tier(density=4.026e-4, p_dbm=59.84, bias=3262.0,
                  radii=(1937.1,), betas=(0.843,), alpha_los=2.688,
                  kappa_los=1.348e5),
        make_tier(density=6.144e-4, p_dbm=46.06, bias=0.3617,
                  radii=(561.5, 2280.9), betas=(0.3782, 0.4198),
                  alpha_los=2.0, kappa_los=2.183e4),
    ])
    t = association_table(cfg)
    assert t.total + t.outage == pytest.approx(1.0, abs=t.error + 1e-9)


def test_bias_shifts_association(table1):
    from hetnetsim.model import with_bias
    base = association_table(table1)
    boosted = association_table(with_bias(table1, {2: 100.0}))
    assert boosted.per_tier[2] > base.per_tier[2]
    assert boosted.per_tier[0] < base.per_tier[0]


# path-loss exponents at and around the alpha = 2 corner, and elsewhere
_ALPHAS = st.one_of(st.sampled_from([2.0, 2.0 - 1e-6, 2.0 + 1e-6]),
                    st.floats(1.5, 4.5))
_FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)


@st.composite
def void_cases(draw):
    """A 1-3 tier network at the awkward corners, and loss abscissae at 0,
    inside every tier's segments and beyond all of them, per serving tier."""
    tiers = []
    for _ in range(draw(st.integers(1, 3))):
        radii = sorted(draw(st.lists(st.floats(1.0, 1e4), min_size=1,
                                     max_size=3, unique=True)))
        balls = tuple(BallSpec(
            radius=r,
            los_prob=draw(st.one_of(st.sampled_from([0.0, 1.0]),
                                    st.floats(0.0, 1.0))),
            alpha_los=draw(_ALPHAS), alpha_nlos=draw(_ALPHAS),
            kappa_los=10.0 ** draw(st.floats(0.0, 8.0)),
            kappa_nlos=10.0 ** draw(st.floats(0.0, 8.0))) for r in radii)
        tier = make_tier(density=10.0 ** draw(st.floats(-8.0, -2.0)),
                         p_dbm=draw(st.floats(10.0, 50.0)),
                         bias=10.0 ** (draw(st.floats(-40.0, 40.0)) / 10.0))
        tiers.append(replace(tier, balls=balls))
    cfg = make_network(tiers)
    fractions = draw(_FRACTIONS)
    cases = []
    for k in range(cfg.n_tiers):
        ratios = power_ratios(cfg, k)
        ls, top = [0.0], 0.0
        for j, tier in enumerate(cfg.tiers):
            for state in (LinkState.LOS, LinkState.NLOS):
                for seg in intensity.state_segments(tier, state):
                    ls += [(seg.lo_x + u * (seg.hi_x - seg.lo_x)) / ratios[j]
                           for u in fractions]
                    top = max(top, seg.hi_x / ratios[j])
        ls.append(2.0 * top)
        cases.append((ratios, np.array(ls)))
    return cfg, cases


@settings(max_examples=200, deadline=None, derandomize=True)
@given(void_cases())
def test_stacked_void_matches_lambda_total(case):
    cfg, cases = case
    for ratios, ls in cases:
        want = np.zeros_like(ls)
        for j, tier in enumerate(cfg.tiers):
            want += lambda_total(tier, ratios[j] * ls)
        # the evaluator keeps lambda_split's arithmetic, so it is exact
        np.testing.assert_array_equal(_void_exponent(cfg, ratios)(ls), want)
