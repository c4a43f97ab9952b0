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
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
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
    """Power ratio from decibels; infinite where it overflows."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def dbm_to_watts(dbm: float) -> float:
    return db_to_linear(dbm - 30.0)


def friis_kappa(carrier_hz: float) -> float:
    """Free-space loss (4 pi f / c)^2 at 1 m; infinite where it overflows."""
    try:
        return (4.0 * math.pi * carrier_hz / SPEED_OF_LIGHT) ** 2
    except OverflowError:
        return math.inf


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
    for where, pat in (("antenna", cfg.pattern), ("mu_antenna", cfg.mu_pattern)):
        if pat is None:
            continue
        if not (0.0 < pat.beamwidth_rad <= 2.0 * math.pi):
            errs.append(f"{where}.beamwidth_deg: must be in (0, 360], "
                        f"got {math.degrees(pat.beamwidth_rad)}")
        errs += _positive(f"{where}.main_db", pat.main_gain)
        errs += _positive(f"{where}.side_db", pat.side_gain)
        if pat.main_gain < pat.side_gain:
            errs.append(f"{where}: main-lobe gain below side-lobe gain")
    for name, n in (("n_los", cfg.fading.n_los), ("n_nlos", cfg.fading.n_nlos)):
        if not isinstance(n, int) or n < 1:
            errs.append(f"fading.{name}: must be a positive integer, got {n!r}")
    for k, tier in enumerate(cfg.tiers):
        where = f"tiers[{k}]"
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
            # the loss at the outer edge bounds the state's intensity measure
            for s in (LinkState.LOS, LinkState.NLOS) if ball.radius > 0 else ():
                try:
                    loss = ball.kappa(s) * ball.radius ** ball.alpha(s)
                except OverflowError:
                    loss = math.inf
                errs += _positive(f"{bw}.kappa_{s.value}_db (or the Friis loss "
                                  f"at carrier_hz) * radius_m ** alpha_{s.value}",
                                  loss)
        if prev > 0:  # the mean station count in the outage ball
            errs += _positive(f"{where}.density_per_m2 * pi * radius_m ** 2",
                              math.pi * tier.density * prev * prev)
        if tier.band is Band.MICROWAVE and cfg.mu_pattern is None:
            errs.append(f"{where}.band: microwave tier requires top-level mu_antenna")
    if errs:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errs))
    return cfg


# ---------------------------------------------------------------------------
# JSON input: each key is described once, by its kind, and `read` checks a
# raw value against it.  Ranges stay with validate.

NUMBER, POSITIVE, NONNEGATIVE, DB = "number", "positive", "nonnegative", "dB"
INTEGER, TEXT, ANY = "integer", "string", "any"


def _float(value, default=None):
    """value as a float if a JSON number (no bool, no int beyond floats)."""
    if isinstance(value, float) or type(value) is int and abs(value) < 1e308:
        return float(value)
    return default


# scalar kind: (test of a raw value, what it must be).  NUMBER's range is
# validate's; a dB value is checked as written, since validate sees it linear.
_SCALARS = {
    ANY: (lambda v: True, ""),
    TEXT: (lambda v: isinstance(v, str), " must be a string"),
    INTEGER: (lambda v: type(v) is int, " must be an integer"),
    NUMBER: (lambda v: _float(v) is not None, " must be a number"),
    POSITIVE: (lambda v: 0.0 < _float(v, math.nan) < math.inf,
               " must be a number, finite and > 0"),
    NONNEGATIVE: (lambda v: 0.0 <= _float(v, math.nan) < math.inf,
                  " must be a number, finite and >= 0"),
    DB: (lambda v: 0.0 < db_to_linear(_float(v, math.nan)) < math.inf,
         ": must be a finite dB value with a finite linear value > 0"),
}


def read(kind, value, path: str, name: str = "", sep: str = "."):
    """value checked against kind, with its numbers as floats; otherwise a
    ConfigError naming the first entry at fault by its path and its value.

    A kind is a scalar kind above; a tuple of the strings allowed; [item], a
    non-empty list; {int: item}, an object from tier indices to item; or
    {key: kind}, an object whose keys ending in "?" are optional and which
    has no other keys.  Messages call an object `name`, if given, and `sep`
    joins its path to a key.
    """
    if isinstance(kind, str):
        test, must = _SCALARS[kind]
        if not test(value):
            raise ConfigError(f"{path}{must}, got {value!r}")
        return value if kind in (ANY, TEXT, INTEGER) else float(value)
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{path} must be one of {', '.join(kind)}, "
                              f"got {value!r}")
        return value
    if isinstance(kind, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        if not value:
            raise ConfigError(f"{path} must be a non-empty list")
        item, = kind
        if isinstance(item, dict):  # each entry has the required keys
            needs = [k for k in item if k[-1] != "?"]
            for v in value:
                if not (isinstance(v, dict) and all(k in v for k in needs)):
                    raise ConfigError(f"{path} entries must be objects with "
                                      f"{', '.join(needs)}, got {v!r}")
        return [read(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    subject = name or path
    if not isinstance(value, dict):
        raise ConfigError(f"{subject} must be an object, got {value!r}")
    if int in kind:
        for k in value:
            if not str(k).removeprefix("-").isdecimal():
                raise ConfigError(f"{subject} keys must be tier indices, "
                                  f"got {k!r}")
        return {int(k): read(kind[int], v, f"{path}.{k}")
                for k, v in value.items()}
    missing = [k for k in kind if k[-1] != "?" and k not in value]
    if missing:
        raise ConfigError(f"{subject} is missing keys: {', '.join(missing)}")
    kinds = {k.rstrip("?"): v for k, v in kind.items()}
    unknown = sorted(set(value) - kinds.keys())
    if unknown:
        raise ConfigError(f"{subject} has unknown keys: {', '.join(unknown)}")
    return {k: read(kinds[k], v, f"{path}{sep}{k}" if path else k)
            for k, v in value.items()}


_PATTERN = {"main_db": DB, "side_db": DB, "beamwidth_deg": NUMBER}
_BALL = {"radius_m": NUMBER, "los_prob": NUMBER, "alpha_los": NUMBER,
         "alpha_nlos": NUMBER, "kappa_los_db?": DB, "kappa_nlos_db?": DB}
_TIER = {"density_per_m2": NUMBER, "tx_power_dbm": DB, "balls": [_BALL],
         "name?": TEXT, "band?": tuple(b.value for b in Band), "bias_db?": DB,
         "noise_figure_db?": DB, "psd_dbm_hz?": DB, "static_power_w?": NUMBER,
         "amp_slope?": NUMBER, "carrier_hz?": POSITIVE,
         "bandwidth_hz?": POSITIVE}
CONFIG = {"ue_density_per_m2": NUMBER, "bandwidth_hz": POSITIVE,
          "carrier_hz": POSITIVE, "antenna": _PATTERN, "tiers": [_TIER],
          "mu_antenna?": _PATTERN,
          "fading?": {"n_los?": INTEGER, "n_nlos?": INTEGER}}


def _pattern(d: dict) -> AntennaPattern:
    return AntennaPattern(main_gain=db_to_linear(d["main_db"]),
                          side_gain=db_to_linear(d["side_db"]),
                          beamwidth_rad=math.radians(d["beamwidth_deg"]))


def network_from_dict(raw: dict) -> NetworkConfig:
    """Build and validate a NetworkConfig from a JSON object of kind CONFIG.

    dB fields are converted here; kappa defaults to the Friis constant at the
    tier's carrier (per-tier `carrier_hz` overrides the top level, as does
    `bandwidth_hz` for that tier's noise power).
    """
    raw = read(CONFIG, raw, "", name="config")
    tiers = []
    for k, t in enumerate(raw["tiers"]):
        kappa_default = friis_kappa(t.get("carrier_hz", raw["carrier_hz"]))
        balls = tuple(BallSpec(
            radius=b["radius_m"], los_prob=b["los_prob"],
            alpha_los=b["alpha_los"], alpha_nlos=b["alpha_nlos"],
            kappa_los=db_to_linear(b["kappa_los_db"])
            if "kappa_los_db" in b else kappa_default,
            kappa_nlos=db_to_linear(b["kappa_nlos_db"])
            if "kappa_nlos_db" in b else kappa_default) for b in t["balls"])
        tiers.append(TierConfig(
            density=t["density_per_m2"],
            tx_power=dbm_to_watts(t["tx_power_dbm"]),
            bias=db_to_linear(t.get("bias_db", 0.0)),
            balls=balls,
            noise_power=noise_power_w(
                t.get("bandwidth_hz", raw["bandwidth_hz"]),
                t.get("noise_figure_db", 0.0),
                t.get("psd_dbm_hz", NOISE_PSD_DBM_HZ)),
            static_power=t.get("static_power_w", 0.0),
            amp_slope=t.get("amp_slope", 1.0),
            band=Band(t.get("band", "mmwave")),
            name=t.get("name", f"tier{k + 1}")))
    return validate(NetworkConfig(
        tiers=tuple(tiers), ue_density=raw["ue_density_per_m2"],
        bandwidth=raw["bandwidth_hz"], carrier=raw["carrier_hz"],
        pattern=_pattern(raw["antenna"]),
        fading=FadingConfig(**raw.get("fading", {})),
        mu_pattern=_pattern(raw["mu_antenna"]) if "mu_antenna" in raw else None))


def _read_json(path) -> object:
    """The JSON value a file holds; a ConfigError if it cannot be read."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def load_config(path: str) -> NetworkConfig:
    return network_from_dict(_read_json(path))


def _bundled_raw(name: str) -> dict:
    """The JSON object of a configuration shipped with the package."""
    data = resources.files("hetnetsim").joinpath("data")
    ref = data.joinpath(f"{name}.json")
    if not ref.is_file():
        known = sorted(p.name[:-5] for p in data.iterdir()
                       if p.name.endswith(".json"))
        raise ConfigError(f"no bundled config {name!r} "
                          f"(bundled: {', '.join(known)})")
    return json.loads(ref.read_text())


def bundled_config(name: str = "table1") -> NetworkConfig:
    """Load a configuration shipped with the package (table1, hybrid)."""
    return network_from_dict(_bundled_raw(name))
