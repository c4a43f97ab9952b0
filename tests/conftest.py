"""Shared builders for compact test networks and randomized configs."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hetnetsim.model import (AntennaPattern, BallSpec, Band, FadingConfig,
                             NetworkConfig, TierConfig, bundled_config,
                             dbm_to_watts, validate)


def make_tier(density=1e-4, p_dbm=30.0, bias=1.0, radii=(50.0,), betas=(1.0,),
              alpha_los=2.0, alpha_nlos=4.0, kappa_los=1.0, kappa_nlos=None,
              noise=1e-10, static=10.0, slope=4.0,
              band=Band.MMWAVE, name=""):
    if kappa_nlos is None:
        kappa_nlos = kappa_los
    balls = tuple(BallSpec(radius=float(r), los_prob=float(b),
                           alpha_los=alpha_los, alpha_nlos=alpha_nlos,
                           kappa_los=kappa_los, kappa_nlos=kappa_nlos)
                  for r, b in zip(radii, betas))
    return TierConfig(density=density, tx_power=dbm_to_watts(p_dbm),
                      bias=bias, balls=balls, noise_power=noise,
                      static_power=static, amp_slope=slope, band=band,
                      name=name)


def make_network(tiers, pattern=None, fading=None, ue_density=1e-3,
                 bandwidth=1e9, carrier=28e9, mu_pattern=None):
    if pattern is None:
        pattern = AntennaPattern(main_gain=10.0, side_gain=0.1,
                                 beamwidth_rad=math.pi / 6.0)
    if fading is None:
        fading = FadingConfig()
    cfg = NetworkConfig(tiers=tuple(tiers), ue_density=ue_density,
                        bandwidth=bandwidth, carrier=carrier, pattern=pattern,
                        fading=fading, mu_pattern=mu_pattern)
    validate(cfg)
    return cfg


def random_network(rng: np.random.Generator, max_tiers=3,
                   max_balls=2) -> NetworkConfig:
    """A valid random config spanning the admissible parameter space."""
    n_tiers = int(rng.integers(1, max_tiers + 1))
    main = float(10.0 ** rng.uniform(0.3, 2.0))
    side = float(main * 10.0 ** rng.uniform(-2.5, -0.5))
    pattern = AntennaPattern(main_gain=main, side_gain=side,
                             beamwidth_rad=float(rng.uniform(0.1, 5.0)))
    fading = FadingConfig(n_los=int(rng.integers(1, 5)),
                          n_nlos=int(rng.integers(1, 4)))
    tiers = []
    for _ in range(n_tiers):
        n_balls = int(rng.integers(1, max_balls + 1))
        radii = np.sort(rng.uniform(20.0, 400.0, size=n_balls))
        betas = rng.uniform(0.0, 1.0, size=n_balls)
        alpha_los = float(rng.uniform(1.8, 2.6))
        alpha_nlos = float(rng.uniform(3.0, 4.5))
        kappa = float(10.0 ** rng.uniform(0.0, 6.0))
        tiers.append(make_tier(
            density=float(10.0 ** rng.uniform(-6.0, -3.0)),
            p_dbm=float(rng.uniform(10.0, 50.0)),
            bias=float(10.0 ** rng.uniform(-1.0, 1.0)),
            radii=radii, betas=betas, alpha_los=alpha_los,
            alpha_nlos=alpha_nlos, kappa_los=kappa,
            kappa_nlos=kappa * float(10.0 ** rng.uniform(0.0, 1.0)),
            noise=float(10.0 ** rng.uniform(-13.0, -9.0))))
    return make_network(tiers, pattern=pattern, fading=fading)


@pytest.fixture(scope="session")
def table1() -> NetworkConfig:
    return bundled_config("table1")


@pytest.fixture(scope="session")
def hybrid() -> NetworkConfig:
    return bundled_config("hybrid")
