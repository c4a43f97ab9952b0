"""Network model: tiers, blockage balls, antennas, fading and unit handling.

All public numeric fields are linear SI units (meters, watts, Hz, unitless
gains).  Decibel values appear only at the JSON/CLI boundary and are converted
on load.  Instances are frozen after validation; noise power and default
kappa are resolved once by the loaders, and a tier's serving gain is derived
from its band's antenna patterns wherever it is read.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Sequence

SPEED_OF_LIGHT = 2.998e8  # m/s
NOISE_PSD_DBM_HZ = -174.0  # thermal noise power spectral density


class ConfigError(ValueError):
    """Raised when a configuration violates the model's preconditions."""


class LinkState(enum.Enum):
    LOS = "los"
    NLOS = "nlos"
    OUTAGE = "outage"


class Band(enum.Enum):
    MMWAVE = "mmwave"
    MICROWAVE = "microwave"


def db_to_linear(db: float) -> float:
    """Power ratio from decibels."""
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    """Decibels from a positive power ratio."""
    if x <= 0:
        raise ValueError(f"cannot express non-positive ratio {x!r} in dB")
    return 10.0 * math.log10(x)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(w: float) -> float:
    return linear_to_db(w) + 30.0


def friis_kappa(carrier_hz: float) -> float:
    """Free-space reference loss (4 pi f / c)^2, the path-loss value at 1 m."""
    return (4.0 * math.pi * carrier_hz / SPEED_OF_LIGHT) ** 2


def noise_power_w(bandwidth_hz: float, noise_figure_db: float,
                  psd_dbm_hz: float = NOISE_PSD_DBM_HZ) -> float:
    """Thermal noise power in watts over a bandwidth, including noise figure."""
    dbm = psd_dbm_hz + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return dbm_to_watts(dbm)


@dataclass(frozen=True)
class AntennaPattern:
    """Sectored pattern: main-lobe gain over a beamwidth, side-lobe elsewhere."""

    main_gain: float       # linear
    side_gain: float       # linear
    beamwidth_rad: float

    @property
    def main_prob(self) -> float:
        # probability a uniformly aimed lobe covers a given direction
        return self.beamwidth_rad / (2.0 * math.pi)

    def validate(self, where: str) -> list[str]:
        errs = []
        if not (0.0 < self.beamwidth_rad <= 2.0 * math.pi):
            errs.append(f"{where}.beamwidth_deg: must be in (0, 360], "
                        f"got {math.degrees(self.beamwidth_rad)}")
        errs += _positive(f"{where}.main_db", self.main_gain)
        errs += _positive(f"{where}.side_db", self.side_gain)
        if self.main_gain < self.side_gain:
            errs.append(f"{where}: main-lobe gain below side-lobe gain")
        return errs


def _positive(name: str, value: float) -> list[str]:
    """An error naming the field unless value is finite and > 0 (linear)."""
    if 0.0 < value < math.inf:
        return []
    return [f"{name}: must be finite and > 0 in linear units, got {value}"]


def _nonnegative(name: str, value: float) -> list[str]:
    """An error naming the field unless value is finite and >= 0."""
    if 0.0 <= value < math.inf:
        return []
    return [f"{name}: must be finite and >= 0, got {value}"]


def cross_gain_pmf(bs: AntennaPattern, ue: AntennaPattern) -> tuple[tuple[float, float], ...]:
    """Gain pmf of an interfering BS with pattern bs at a UE with pattern ue.

    Each end points its main lobe uniformly at random, so the composite gain
    is one of four lobe products with the product probabilities.  Products of
    equal gain merge into one atom, in first-seen order: like patterns give
    MM, Mm and mm.
    """
    qb, qu = bs.main_prob, ue.main_prob
    pmf: dict[float, float] = {}
    for gain, prob in ((bs.main_gain * ue.main_gain, qb * qu),
                       (bs.main_gain * ue.side_gain, qb * (1.0 - qu)),
                       (bs.side_gain * ue.main_gain, (1.0 - qb) * qu),
                       (bs.side_gain * ue.side_gain, (1.0 - qb) * (1.0 - qu))):
        pmf[gain] = pmf.get(gain, 0.0) + prob
    return tuple(pmf.items())


@dataclass(frozen=True)
class FadingConfig:
    """Nakagami-m parameters per link state; unit-mean Gamma small-scale power."""

    n_los: int = 3
    n_nlos: int = 2

    def n(self, state: LinkState) -> int:
        if state is LinkState.LOS:
            return self.n_los
        if state is LinkState.NLOS:
            return self.n_nlos
        raise ValueError("fading is undefined for outage links")

    def validate(self) -> list[str]:
        errs = []
        for name, n in (("n_los", self.n_los), ("n_nlos", self.n_nlos)):
            if not isinstance(n, int) or n < 1:
                errs.append(f"fading.{name}: must be a positive integer, got {n!r}")
        return errs


@dataclass(frozen=True)
class BallSpec:
    """One annulus of the concentric blockage model.

    `radius` is the outer edge; the inner edge is the previous ball's radius.
    Within the annulus a link is line-of-sight with probability `los_prob`,
    otherwise non-line-of-sight.  Path loss is kappa * r**alpha per state.
    """

    radius: float
    los_prob: float
    alpha_los: float
    alpha_nlos: float
    kappa_los: float
    kappa_nlos: float

    def alpha(self, state: LinkState) -> float:
        return self.alpha_los if state is LinkState.LOS else self.alpha_nlos

    def kappa(self, state: LinkState) -> float:
        return self.kappa_los if state is LinkState.LOS else self.kappa_nlos


@dataclass(frozen=True)
class TierConfig:
    """One base-station tier: a homogeneous PPP with its radio parameters."""

    density: float            # BS per m^2
    tx_power: float           # watts
    bias: float               # linear association bias
    balls: tuple[BallSpec, ...]
    noise_power: float        # watts, resolved over this tier's bandwidth
    static_power: float = 0.0  # watts, load-independent consumption
    amp_slope: float = 1.0     # amplifier slope in the linear power model
    band: Band = Band.MMWAVE
    name: str = ""

    @property
    def outage_radius(self) -> float:
        return self.balls[-1].radius


@dataclass(frozen=True)
class NetworkConfig:
    """Complete K-tier network description used by every analytic operation."""

    tiers: tuple[TierConfig, ...]
    ue_density: float          # UE per m^2
    bandwidth: float           # Hz, rate bandwidth
    carrier: float             # Hz
    pattern: AntennaPattern    # mmWave pattern shared by BS and UE ends
    fading: FadingConfig
    mu_pattern: AntennaPattern | None = None  # BS-side pattern of a microwave tier

    @property
    def n_tiers(self) -> int:
        return len(self.tiers)

    @property
    def is_hybrid(self) -> bool:
        return any(t.band is Band.MICROWAVE for t in self.tiers)

    def bs_pattern(self, tier_index: int) -> AntennaPattern:
        """Base-station pattern of a tier: its band's, facing the mmWave UE."""
        if self.tiers[tier_index].band is Band.MICROWAVE:
            if self.mu_pattern is None:
                raise ConfigError(f"tiers[{tier_index}]: microwave tier "
                                  "requires mu_antenna")
            return self.mu_pattern
        return self.pattern

    def serving_gain(self, tier_index: int) -> float:
        """Aligned gain G_k: the tier's BS main lobe times the UE main lobe."""
        return self.bs_pattern(tier_index).main_gain * self.pattern.main_gain

    def interferer_gain_pmf(self, tier_index: int) -> tuple[tuple[float, float], ...]:
        """Gain pmf of an interfering BS in the given tier."""
        return cross_gain_pmf(self.bs_pattern(tier_index), self.pattern)

    def same_band_tiers(self, tier_index: int) -> tuple[int, ...]:
        band = self.tiers[tier_index].band
        return tuple(j for j, t in enumerate(self.tiers) if t.band is band)

    def subset(self, indices: Sequence[int]) -> "NetworkConfig":
        """Network restricted to the given tier indices (association renormalizes)."""
        if not indices:
            raise ConfigError("subset: at least one tier index required")
        _check_tier_indices(self, indices, "subset")
        return replace(self, tiers=tuple(self.tiers[i] for i in indices))


def _check_tier_indices(cfg: NetworkConfig, indices, where: str) -> None:
    """Refuse, naming it, the first index that is not a tier of cfg."""
    for i in indices:
        if not 0 <= i < cfg.n_tiers:
            raise ConfigError(f"{where}: tier index {i} is outside "
                              f"0..{cfg.n_tiers - 1}")


def with_bias(cfg: NetworkConfig, bias: dict[int, float]) -> NetworkConfig:
    """New config with linear association biases replaced per tier index."""
    _check_tier_indices(cfg, bias, "with_bias")
    tiers = tuple(replace(t, bias=float(bias[i])) if i in bias else t
                  for i, t in enumerate(cfg.tiers))
    return validate(replace(cfg, tiers=tiers))


def with_density_scale(cfg: NetworkConfig, scale: dict[int, float]) -> NetworkConfig:
    """New config with tier densities multiplied per tier index."""
    _check_tier_indices(cfg, scale, "with_density_scale")
    tiers = tuple(replace(t, density=t.density * float(scale[i]))
                  if i in scale else t for i, t in enumerate(cfg.tiers))
    return validate(replace(cfg, tiers=tiers))


def with_balls(cfg: NetworkConfig, tier_index: int,
               radii: Sequence[float],
               los_probs: Sequence[float]) -> NetworkConfig:
    """New config with one tier's ball radii and LOS probabilities replaced.

    Exponents and kappa come from the tier's existing balls (last one extends
    if the new list is longer).
    """
    if len(radii) != len(los_probs):
        raise ConfigError("radii and los_probs must have equal length")
    _check_tier_indices(cfg, [tier_index], "with_balls")
    tier = cfg.tiers[tier_index]
    balls = []
    for d, (r, b) in enumerate(zip(radii, los_probs)):
        tmpl = tier.balls[min(d, len(tier.balls) - 1)]
        balls.append(replace(tmpl, radius=float(r), los_prob=float(b)))
    tiers = tuple(replace(t, balls=tuple(balls)) if i == tier_index else t
                  for i, t in enumerate(cfg.tiers))
    return validate(replace(cfg, tiers=tiers))


def validate(cfg: NetworkConfig) -> NetworkConfig:
    """Return cfg if it meets every precondition; otherwise raise ConfigError
    naming each tier index and field at fault.

    Every number must be finite: NaN fails no comparison, so each check is
    written as the range the value must be in.
    """
    errs: list[str] = []
    if cfg.n_tiers == 0:
        errs.append("tiers: at least one tier required")
    errs += _nonnegative("ue_density_per_m2", cfg.ue_density)
    errs += _positive("bandwidth_hz", cfg.bandwidth)
    errs += _positive("carrier_hz", cfg.carrier)
    errs += cfg.pattern.validate("antenna")
    if cfg.mu_pattern is not None:
        errs += cfg.mu_pattern.validate("mu_antenna")
    errs += cfg.fading.validate()
    for k, tier in enumerate(cfg.tiers):
        where = f"tiers[{k}]"
        errs += _positive(f"{where}.density_per_m2", tier.density)
        errs += _positive(f"{where}.tx_power_dbm", tier.tx_power)
        errs += _positive(f"{where}.bias_db", tier.bias)
        errs += _positive(f"{where}.noise_power (from bandwidth_hz, "
                          "noise_figure_db and psd_dbm_hz)", tier.noise_power)
        errs += _nonnegative(f"{where}.static_power_w", tier.static_power)
        errs += _nonnegative(f"{where}.amp_slope", tier.amp_slope)
        if not tier.balls:
            errs.append(f"{where}.balls: at least one ball required")
        prev = 0.0
        for d, ball in enumerate(tier.balls):
            bw = f"{where}.balls[{d}]"
            if not (prev < ball.radius < math.inf):
                errs.append(f"{bw}.radius_m: radii must be finite and "
                            f"strictly increasing ({ball.radius} after {prev})")
            prev = ball.radius
            if not (0.0 <= ball.los_prob <= 1.0):
                errs.append(f"{bw}.los_prob: must be in [0, 1], got {ball.los_prob}")
            errs += _positive(f"{bw}.alpha_los", ball.alpha_los)
            errs += _positive(f"{bw}.alpha_nlos", ball.alpha_nlos)
            errs += _positive(f"{bw}.kappa_los_db", ball.kappa_los)
            errs += _positive(f"{bw}.kappa_nlos_db", ball.kappa_nlos)
        if tier.band is Band.MICROWAVE and cfg.mu_pattern is None:
            errs.append(f"{where}.band: microwave tier requires top-level mu_antenna")
    if errs:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errs))
    return cfg


def _pattern_from_dict(d: dict, where: str) -> AntennaPattern:
    try:
        return AntennaPattern(
            main_gain=db_to_linear(float(d["main_db"])),
            side_gain=db_to_linear(float(d["side_db"])),
            beamwidth_rad=math.radians(float(d["beamwidth_deg"])),
        )
    except KeyError as e:
        raise ConfigError(f"{where}: missing field {e.args[0]!r}") from None


def network_from_dict(raw: dict) -> NetworkConfig:
    """Build and validate a NetworkConfig from the JSON schema dict.

    dB fields are converted here; kappa defaults to the Friis constant at the
    tier's carrier (per-tier `carrier_hz` overrides the top level, as does
    `bandwidth_hz` for that tier's noise power).
    """
    try:
        carrier = float(raw["carrier_hz"])
        bandwidth = float(raw["bandwidth_hz"])
        ue_density = float(raw["ue_density_per_m2"])
        pattern = _pattern_from_dict(raw["antenna"], "antenna")
        fading_raw = raw.get("fading", {})
        fading = FadingConfig(n_los=int(fading_raw.get("n_los", 3)),
                              n_nlos=int(fading_raw.get("n_nlos", 2)))
        mu_pattern = None
        if "mu_antenna" in raw:
            mu_pattern = _pattern_from_dict(raw["mu_antenna"], "mu_antenna")
        tiers = []
        for k, traw in enumerate(raw["tiers"]):
            band = Band(traw.get("band", "mmwave"))
            tier_carrier = float(traw.get("carrier_hz", carrier))
            tier_bandwidth = float(traw.get("bandwidth_hz", bandwidth))
            kappa_default = friis_kappa(tier_carrier)
            balls = []
            for d, braw in enumerate(traw["balls"]):
                kl = (db_to_linear(float(braw["kappa_los_db"]))
                      if "kappa_los_db" in braw else kappa_default)
                kn = (db_to_linear(float(braw["kappa_nlos_db"]))
                      if "kappa_nlos_db" in braw else kappa_default)
                balls.append(BallSpec(
                    radius=float(braw["radius_m"]),
                    los_prob=float(braw["los_prob"]),
                    alpha_los=float(braw["alpha_los"]),
                    alpha_nlos=float(braw["alpha_nlos"]),
                    kappa_los=kl,
                    kappa_nlos=kn,
                ))
            tiers.append(TierConfig(
                density=float(traw["density_per_m2"]),
                tx_power=dbm_to_watts(float(traw["tx_power_dbm"])),
                bias=db_to_linear(float(traw.get("bias_db", 0.0))),
                balls=tuple(balls),
                noise_power=noise_power_w(
                    tier_bandwidth, float(traw.get("noise_figure_db", 0.0)),
                    float(traw.get("psd_dbm_hz", NOISE_PSD_DBM_HZ))),
                static_power=float(traw.get("static_power_w", 0.0)),
                amp_slope=float(traw.get("amp_slope", 1.0)),
                band=band,
                name=str(traw.get("name", f"tier{k + 1}")),
            ))
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError(f"missing required config field {e.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"malformed config value: {e}") from None
    return validate(NetworkConfig(
        tiers=tuple(tiers), ue_density=ue_density, bandwidth=bandwidth,
        carrier=carrier, pattern=pattern, fading=fading,
        mu_pattern=mu_pattern))


def load_config(path: str) -> NetworkConfig:
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return network_from_dict(raw)


def bundled_config(name: str = "table1") -> NetworkConfig:
    """Load a configuration shipped with the package (table1, hybrid)."""
    text = resources.files("hetnetsim").joinpath(f"data/{name}.json").read_text()
    return network_from_dict(json.loads(text))
