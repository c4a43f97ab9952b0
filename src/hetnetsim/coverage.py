"""SINR and SNR coverage probability of the typical user.

The coverage integral runs over the serving link's path loss, weighting the
per-(tier, state) serving densities by the void probabilities of stronger
competitors, a noise exponential, and the Laplace transforms of the per-tier
interference (a sum over the interferer gain pmf of integrals against the
path-loss density above the association exclusion zone).  The Nakagami gamma
tail is handled with the standard alternating binomial bound, so every term is
a finite n-sum of exponentials.

Integrals are computed in the squared-radius variable per blockage annulus,
which makes the serving density constant and every integrand analytic.  The
interference exponents are exact there; only the serving-loss integral is
adaptive.  Mode "closed24" is noise-limited coverage for exponents (2, 4)
with no quadrature at all: each (tier, state) term is in error functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import erf, erfcx, hyp2f1

from . import intensity
from .association import AssociationTable, _serving_integral, power_ratios
from .model import LinkState, NetworkConfig

_STATES = (LinkState.LOS, LinkState.NLOS)

# tolerances of the serving-loss integral of every coverage term
OUTER_ABS_TOL = 1e-7
OUTER_REL_TOL = 1e-6


def eta(n: int) -> float:
    """Tightest exponential-bound rate n*(n!)**(-1/n) for a Gamma(n) tail."""
    if n < 1:
        raise ValueError("shape must be a positive integer")
    return n * math.exp(-math.lgamma(n + 1.0) / n)


def psi(n: int, x) -> np.ndarray | float:
    """1 - (1 + x)^(-n): one minus the Gamma(n, 1/n) Laplace transform at n*x."""
    return -np.expm1(-n * np.log1p(x))


def _psi_antiderivative(n: int, p: float, c, v):
    """An antiderivative in v of psi(n, c * v**(-1/p)) for the 2F1 piece."""
    with np.errstate(divide="ignore"):
        y = 1.0 / (1.0 + c * v ** (-1.0 / p))
    return p * v * (1.0 - y) ** p * sum(
        y ** (m - 1) * hyp2f1(m + p - 1.0, p, m + p, y) / (m + p - 1.0)
        for m in range(1, n + 1))


def _annulus_integral(n: int, delta: float, c, v0, v1) -> np.ndarray:
    """Exact integral of psi(n, c * v**-delta) dv over [v0, v1], elementwise.

    c >= 0 and 0 < v0 <= v1 broadcast together.  With x = c * v**-delta,
    psi(n, x) = sum_{m=1..n} x (1+x)^-m.  Above x_s = min(1/2, 3/n) each term
    has the antiderivative p v (1-y)^p y^(m-1) 2F1(m+p-1, p; m+p; y)/(m+p-1),
    with p = 1/delta and y = 1/(1+x): no pole for any delta > 0, and y stays
    off 1, where 2F1 is slow.  Below x_s the binomial series of psi is
    integrated term by term; its absolute terms sum to (1-x_s)^-n at most.
    """
    c, v0, v1 = np.broadcast_arrays(c, v0, v1)
    shape = c.shape
    c, v0, v1 = c.ravel(), v0.ravel(), v1.ravel()
    p = 1.0 / delta
    x_s = min(0.5, 3.0 / n)
    # x = x_s at v = (c/x_s)^p: [v0, mid] is the 2F1 piece, [mid, v1] the series
    mid = np.clip((c / x_s) ** p, v0, v1)
    out = np.zeros(c.size)
    near = np.flatnonzero(mid > v0)
    out[near] = -_psi_antiderivative(n, p, c[near], v0[near])
    # a split inside the annulus has x = x_s, so its antiderivative there is
    # mid times one number; one that reaches v1 is evaluated per element
    reach = mid[near] == v1[near]
    inner, top = near[~reach], near[reach]
    out[inner] += mid[inner] * _psi_antiderivative(n, p, x_s, 1.0)
    out[top] += _psi_antiderivative(n, p, c[top], v1[top])
    # psi = sum_k (-1)^(k+1) C(n+k-1, k) x^k, and with e = 1 - delta k and
    # L = log(v1 / mid), int_mid^v1 v^(-delta k) dv = mid^e expm1(e L) / e
    # = -v1^e expm1(-e L) / e; the form with e L <= 0 cannot overflow.  Each
    # series piece sums only until its own terms die out: the pieces are
    # sorted by x at mid, roughly slowest last, and the loop runs over the
    # suffix not yet converged; empty pieces (L = 0) are left out.
    span = np.log1p((v1 - mid) / mid)
    live = np.flatnonzero(span != 0.0)
    # x <= x_s on a nonempty series piece
    x_mid = np.minimum(c[live] * mid[live] ** -delta, x_s)
    order = np.argsort(x_mid)
    live, x_mid, span = live[order], x_mid[order], span[live[order]]
    x_hi = np.minimum(c[live] * v1[live] ** -delta, x_s)
    pow_mid, pow_hi = mid[live], v1[live]     # mid x_mid^k and v1 x_hi^k
    series = np.zeros(live.size)
    coef, start = -1.0, 0
    for k in itertools.count(1):
        coef *= -(n + k - 1.0) / k
        e = 1.0 - delta * k
        pm = pow_mid[start:]
        pm *= x_mid[start:]
        if e > 0.0:
            ph = pow_hi[start:]
            ph *= x_hi[start:]
            term = np.expm1(-e * span[start:])
            term *= ph
            term *= coef / -e
        elif e == 0.0:
            term = coef * pm * span[start:]
        else:
            term = np.expm1(e * span[start:])
            term *= pm
            term *= coef / e
        acc = series[start:]
        acc += term
        # the terms shrink geometrically once k >= n, as x <= x_s <= 1/2;
        # a NaN counts as converged
        if k >= n:
            busy = (np.abs(term) > 1e-17 * np.abs(acc)).nonzero()[0]
            if not busy.size:
                break
            start += int(busy[0])
    out[live] += series
    return out.reshape(shape)


def _interference_batch(cfg: NetworkConfig, k: int, j: int, s_int: LinkState,
                        gamma_k: float, l: np.ndarray, n_values: np.ndarray,
                        g0: float, excl_ratio: float) -> np.ndarray:
    """Interference exponents for tier j in state s_int at serving losses l.

    Returns values shaped (len(n_values), len(l)).  Each value is
    sum_G p_G * integral over t > excl_ratio*l of psi(N, q_nG * l / t)
    dLambda_{j,s_int}(t), computed exactly per annulus in the squared-radius
    variable, where the measure is flat and t = kappa * v**(alpha/2).
    """
    segs = intensity.state_segments(cfg.tiers[j], s_int)
    out = np.zeros((n_values.size, l.size))
    n_fad = cfg.fading.n(s_int)
    pmf = cfg.interferer_gain_pmf(j)
    gains = np.array([g for g, _ in pmf])
    probs = np.array([p for _, p in pmf])
    # q[n, G] * l / t is the psi argument
    q = (n_values[:, None] * eta(n_fad) * gamma_k * cfg.tiers[j].tx_power
         * gains[None, :] / (cfg.tiers[k].tx_power * g0 * n_fad))
    a = excl_ratio * l
    for seg in segs:
        v_lo = np.clip((a / seg.kappa) ** (2.0 / seg.alpha), seg.lo_r2, seg.hi_r2)
        c = q[:, :, None] * (l / seg.kappa)[None, None, :]       # (n, G, L)
        vals = _annulus_integral(n_fad, 0.5 * seg.alpha, c, v_lo, seg.hi_r2)
        out += (math.pi * cfg.tiers[j].density * seg.weight
                * np.einsum("g,ngi->ni", probs, vals))
    return out


def interference_term(cfg: NetworkConfig, j: int, s_int: LinkState, k: int,
                      n: int, gamma: float, l: float) -> float:
    """One tier/state interference exponent at a single serving path loss.

    This is the gain-pmf-weighted integral of psi against tier j's state-s_int
    path-loss density from the exclusion boundary upward; it appears negated
    inside the coverage integrand's exponential.
    """
    return float(_interference_batch(cfg, k, j, s_int, float(gamma),
                                     np.array([float(l)]), np.array([int(n)]),
                                     cfg.serving_gain(k),
                                     power_ratios(cfg, k)[j])[0, 0])


@dataclass(frozen=True)
class CoverageCurve:
    """Coverage values over a grid, with the per-(tier, state) decomposition."""

    x: np.ndarray               # grid: linear SINR thresholds, or rate in bit/s
    probability: np.ndarray     # (n,)
    joint: np.ndarray           # (n, K, 2): joint coverage-and-association mass
    error: np.ndarray           # (n,) summed quadrature error estimates
    converged: np.ndarray       # (n,) bool
    mode: str
    meta: dict = field(default_factory=dict)

    def conditional(self, k: int, assoc: AssociationTable) -> np.ndarray:
        """P(covered | associated with tier k) over the grid.

        assoc is the association table of the config the curve was computed
        on; the curve itself carries only the joint masses.
        """
        a_k = float(assoc.per_tier[k])
        if a_k <= 0.0:
            return np.zeros_like(self.probability)
        return self.joint[:, k, :].sum(axis=1) / a_k


def _normalize_thresholds(cfg: NetworkConfig, thresholds) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if arr.ndim == 1:
        arr = np.repeat(arr[:, None], cfg.n_tiers, axis=1)
    if arr.ndim != 2 or arr.shape[1] != cfg.n_tiers:
        raise ValueError("thresholds must be a scalar, a grid, or a grid x K array")
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("thresholds must be positive and finite (linear units)")
    return arr


def _term(cfg: NetworkConfig, k: int, state: LinkState, gamma_k: float,
          mode: str, ratios: np.ndarray):
    """Joint mass of {associated via (k, state)} and {SINR > gamma_k}.

    ratios are power_ratios(cfg, k): a tier-j interferer is farther in loss
    than the serving station by at least the factor ratios[j].
    """
    tier = cfg.tiers[k]
    n_serv = cfg.fading.n(state)
    eta_s = eta(n_serv)
    n_arr = np.arange(1, n_serv + 1)
    coefs = np.array([(-1.0) ** (n + 1) * math.comb(n_serv, n) for n in n_arr])
    band = cfg.same_band_tiers(k) if mode == "sinr" else ()
    g0 = cfg.serving_gain(k)
    noise_rate = eta_s * gamma_k * tier.noise_power / (tier.tx_power * g0)

    def integrand(l: np.ndarray, void: np.ndarray) -> np.ndarray:
        logs = -void[None, :] - (n_arr[:, None] * noise_rate) * l[None, :]
        for j in band:
            for s_int in _STATES:
                logs -= _interference_batch(cfg, k, j, s_int, gamma_k, l,
                                            n_arr, g0, ratios[j])
        return coefs @ np.exp(logs)

    # the interferers' exclusion boundaries kink the integrand too
    kinks = [bp / ratios[j]
             for j in band for bp in intensity.breakpoints(cfg.tiers[j])]
    return _serving_integral(cfg, k, state, integrand, kinks,
                             abs_tol=OUTER_ABS_TOL, rel_tol=OUTER_REL_TOL)


def sinr_coverage(cfg: NetworkConfig, thresholds, *,
                  mode: str = "sinr") -> CoverageCurve:
    """Coverage probability across a threshold grid.

    thresholds are linear; pass an (n, K) array for per-tier values (rate
    coverage and beam error do).  mode "sinr" includes same-band
    interference, "snr" drops it, and "closed24" is "snr" in closed form,
    which needs alpha_los 2 and alpha_nlos 4 on every ball.
    """
    if mode not in ("sinr", "snr", "closed24"):
        raise ValueError(f"mode must be sinr, snr or closed24, got {mode!r}")
    term = _term
    if mode == "closed24":
        term = _closed_term
        for i, t in enumerate(cfg.tiers):
            for dd, ball in enumerate(t.balls):
                if ball.alpha_los != 2.0 or ball.alpha_nlos != 4.0:
                    raise ValueError(
                        f"tiers[{i}].balls[{dd}]: closed form requires "
                        "alpha_los 2 and alpha_nlos 4")
    grid = _normalize_thresholds(cfg, thresholds)
    n_pts = grid.shape[0]
    joint = np.zeros((n_pts, cfg.n_tiers, 2))
    errs = np.zeros(n_pts)
    conv = np.ones(n_pts, dtype=bool)
    for i in range(n_pts):
        for k in range(cfg.n_tiers):
            ratios = power_ratios(cfg, k)
            for col, state in enumerate(_STATES):
                v, e, ok = term(cfg, k, state, grid[i, k], mode, ratios)
                joint[i, k, col] = v
                errs[i] += e
                conv[i] = conv[i] and ok
    return CoverageCurve(
        x=grid[:, 0], probability=joint.sum(axis=(1, 2)), joint=joint,
        error=errs, converged=conv, mode=mode)


def _gauss_segment_integrals(p: float, c: float, x0: np.ndarray, x1: np.ndarray):
    """(int e^{-p x^2 - c x} dx, int x e^{-p x^2 - c x} dx) over [x0, x1].

    Stable for the large c^2/(4p) regime via the scaled complementary error
    function; requires p > 0 and c >= 0.
    """
    rp = math.sqrt(p)
    z0 = rp * x0 + c / (2.0 * rp)
    z1 = rp * x1 + c / (2.0 * rp)
    e0 = np.exp(-(p * x0 * x0 + c * x0))
    e1 = np.exp(-(p * x1 * x1 + c * x1))
    i_const = (math.sqrt(math.pi) / (2.0 * rp)) * (e0 * erfcx(z0) - e1 * erfcx(z1))
    i_lin = (e0 - e1) / (2.0 * p) - (c / (2.0 * p)) * i_const
    return i_const, i_lin


def _quadratic_pieces(cfg: NetworkConfig, ratios: np.ndarray, x_lo: float,
                      x_hi: float):
    """Piecewise (b, c, d) with sum_j Lambda_j(ratios_j x^2) = b x^2 + c x + d.

    Exact when every ball has alpha_los 2 and alpha_nlos 4.  Yields
    (x0, x1, b, c, d) sub-segments covering [x_lo, x_hi].
    """
    cuts = {x_lo, x_hi}
    for j, tj in enumerate(cfg.tiers):
        for bp in intensity.breakpoints(tj):
            x = math.sqrt(bp / ratios[j])
            if x_lo < x < x_hi:
                cuts.add(x)
    xs = sorted(cuts)
    for x0, x1 in zip(xs[:-1], xs[1:]):
        xm2 = (0.5 * (x0 + x1)) ** 2
        b = c = d = 0.0
        for j, tj in enumerate(cfg.tiers):
            pl = math.pi * tj.density
            for state in _STATES:
                for seg in intensity.state_segments(tj, state):
                    y = ratios[j] * xm2
                    if y >= seg.hi_x:
                        d += pl * seg.weight * (seg.hi_r2 - seg.lo_r2)
                    elif y > seg.lo_x:
                        if seg.alpha == 2.0:
                            b += pl * seg.weight * ratios[j] / seg.kappa
                        else:
                            c += pl * seg.weight * math.sqrt(ratios[j] / seg.kappa)
                        d -= pl * seg.weight * seg.lo_r2
        yield x0, x1, b, c, d


def _closed_term(cfg: NetworkConfig, k: int, state: LinkState,
                 gamma_k: float, mode: str, ratios: np.ndarray):
    """_term's noise-limited mass in closed form, for alpha pairs (2, 4).

    It takes _term's arguments and returns (value, 0.0, True).  In the
    x = sqrt(path loss) variable every exponent is piecewise quadratic, so
    each serving annulus reduces to error-function segments; no quadrature.
    """
    tier = cfg.tiers[k]
    n_serv = cfg.fading.n(state)
    a1 = (eta(n_serv) * gamma_k * tier.noise_power
          / (tier.tx_power * cfg.serving_gain(k)))
    acc = 0.0
    for seg in intensity.state_segments(tier, state):
        if seg.alpha == 2.0:
            x_lo = math.sqrt(seg.kappa) * math.sqrt(seg.lo_r2)
            x_hi = math.sqrt(seg.kappa) * math.sqrt(seg.hi_r2)
            pref = 2.0 * math.pi * tier.density * seg.weight / seg.kappa
        else:
            x_lo = math.sqrt(seg.kappa) * seg.lo_r2
            x_hi = math.sqrt(seg.kappa) * seg.hi_r2
            pref = math.pi * tier.density * seg.weight / math.sqrt(seg.kappa)
        seg_sum = 0.0
        pieces = list(_quadratic_pieces(cfg, ratios, x_lo, x_hi))
        for n in range(1, n_serv + 1):
            coef = (-1.0) ** (n + 1) * math.comb(n_serv, n)
            for x0, x1, b, c, d in pieces:
                i_const, i_lin = _gauss_segment_integrals(
                    n * a1 + b, c, np.float64(x0), np.float64(x1))
                pick = i_lin if seg.alpha == 2.0 else i_const
                seg_sum += coef * math.exp(-d) * float(pick)
        acc += pref * seg_sum
    return acc, 0.0, True


def alignment_probability(beamwidth_rad: float, sigma_be_rad: float) -> float:
    """P(|error| <= beamwidth/2) for a zero-mean Gaussian pointing error.

    The pointing error sigma_be_rad must be finite and non-negative.
    """
    if not (math.isfinite(sigma_be_rad) and sigma_be_rad >= 0.0):
        raise ValueError(
            f"sigma_be must be finite and >= 0, got {sigma_be_rad!r}")
    if sigma_be_rad == 0.0:
        return 1.0
    return float(erf(beamwidth_rad / (2.0 * math.sqrt(2.0) * sigma_be_rad)))


def coverage_with_beam_error(cfg: NetworkConfig, thresholds,
                             sigma_be_rad: float, *,
                             mode: str = "sinr") -> CoverageCurve:
    """Coverage with independent Gaussian alignment errors at both link ends.

    Each end stays on its main lobe with a probability set by its own
    beamwidth: the user end has the mmWave pattern, the base-station end its
    tier's band pattern.  The serving gain g is then a mixture over the lobe
    pairs.  It enters coverage only through gamma / g, so each part is
    coverage at the thresholds gamma G_k / g with the intended gains G_k, and
    all parts are rows of one grid.  Parts with equal gains on every tier
    merge, and a part of weight zero on every tier is not computed.
    """
    grid = _normalize_thresholds(cfg, thresholds)
    ue = cfg.pattern
    f_ue = alignment_probability(ue.beamwidth_rad, sigma_be_rad)
    # (probability, gain) of the main and the side lobe at each tier's BS end
    bs_lobes = []
    for k in range(cfg.n_tiers):
        bs = cfg.bs_pattern(k)
        f_bs = alignment_probability(bs.beamwidth_rad, sigma_be_rad)
        bs_lobes.append(((f_bs, bs.main_gain), (1.0 - f_bs, bs.side_gain)))
    # per-tier serving gains of each (user lobe, BS lobe) pair -> weights
    parts: dict[tuple, np.ndarray] = {}
    for f, g_ue in ((f_ue, ue.main_gain), (1.0 - f_ue, ue.side_gain)):
        for lobe in (0, 1):
            gains = tuple(g_ue * bs[lobe][1] for bs in bs_lobes)
            weights = np.array([f * bs[lobe][0] for bs in bs_lobes])
            parts[gains] = parts.get(gains, 0.0) + weights
    parts = {g: w for g, w in parts.items() if np.any(w > 0.0)}
    serving = np.array([cfg.serving_gain(k) for k in range(cfg.n_tiers)])
    curve = sinr_coverage(
        cfg, np.vstack([grid * (serving / np.array(g)) for g in parts]),
        mode=mode)
    w = np.array(list(parts.values()))                      # (parts, K)
    shape = (len(w), grid.shape[0])
    joint = (w[:, None, :, None]
             * curve.joint.reshape(*shape, cfg.n_tiers, 2)).sum(axis=0)
    error = (w.max(axis=1)[:, None] * curve.error.reshape(shape)).sum(axis=0)
    return CoverageCurve(
        x=grid[:, 0], probability=joint.sum(axis=(1, 2)), joint=joint,
        error=error, converged=curve.converged.reshape(shape).all(axis=0),
        mode=curve.mode,
        meta={"sigma_be_rad": sigma_be_rad, "alignment_probability": f_ue})
