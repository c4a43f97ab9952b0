"""Monte Carlo oracle: direct sampling of the base-station point processes.

Every drop realizes all tiers inside their outage radii (beyond which links
carry no power), assigns per-station blockage states, applies biased
max-received-power association, and draws Nakagami fading plus sectored-gain
orientations for every interferer.  Only distances matter, so stations are
sampled radially.  The stream is a counter-based Philox generator keyed by
(seed, chunk index): a fixed (seed, drops, chunks) triple is bit-identical no
matter how many workers execute the chunks.

`simulate` returns a DropBatch, and each empirical statistic is a reduction
of one batch, so one drop set serves every statistic a caller reads from it;
the scenario runner and `hetnet mc` compute none of their own.  Rates need
the tiers' mean loads, which the caller supplies: this module imports
nothing from the analytic side.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .model import Band, NetworkConfig

_BAND_INDEX = {Band.MMWAVE: 0, Band.MICROWAVE: 1}


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls."""

    drops: int
    seed: int
    parallel_chunks: int = 1

    def __post_init__(self) -> None:
        if self.drops < 1:
            raise ValueError("drops must be >= 1")
        if self.parallel_chunks < 1 or self.parallel_chunks > self.drops:
            raise ValueError("chunks must be in [1, drops]")


@dataclass(frozen=True)
class DropBatch:
    """Per-drop outcomes; tier/state are -1 on outage drops."""

    tier: np.ndarray
    state: np.ndarray       # 0 = LOS, 1 = NLOS
    path_loss: np.ndarray
    sinr: np.ndarray
    snr: np.ndarray

    @property
    def n_drops(self) -> int:
        return self.tier.size


def _segmented(op, values: np.ndarray, offsets: np.ndarray, counts: np.ndarray,
               empty_value: float) -> np.ndarray:
    """Per-drop reduction over contiguous point blocks, safe for empty blocks."""
    padded = np.append(values, empty_value)
    out = op.reduceat(padded, offsets)
    out[counts == 0] = empty_value
    return out


def _simulate_with_rng(cfg: NetworkConfig, n_drops: int,
                       rng: np.random.Generator,
                       sigma_be_rad: float) -> DropBatch:
    n_k = cfg.n_tiers
    n_los, n_nlos = cfg.fading.n_los, cfg.fading.n_nlos
    min_l = np.full((n_k, 2, n_drops), np.inf)
    tier_interf = np.zeros((n_k, n_drops))
    points = []  # per tier: (drop_id, loss, contrib) for serving exclusion
    for k, tier in enumerate(cfg.tiers):
        radii = np.array([b.radius for b in tier.balls])
        betas = np.array([b.los_prob for b in tier.balls])
        kap = np.array([[b.kappa_los, b.kappa_nlos] for b in tier.balls])
        alp = np.array([[b.alpha_los, b.alpha_nlos] for b in tier.balls])
        counts = rng.poisson(tier.density * math.pi * tier.outage_radius ** 2,
                             size=n_drops)
        total = int(counts.sum())
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        drop_id = np.repeat(np.arange(n_drops), counts)
        r = tier.outage_radius * np.sqrt(rng.random(total))
        ball = np.searchsorted(radii, r, side="right")
        los = rng.random(total) < betas[ball]
        state = np.where(los, 0, 1)
        loss = kap[ball, state] * r ** alp[ball, state]
        for s in (0, 1):
            vals = np.where(state == s, loss, np.inf)
            min_l[k, s] = _segmented(np.minimum, vals, offsets, counts, np.inf)
        # interferer orientation and fading for every station
        pmf = cfg.interferer_gain_pmf(k)
        cum = np.cumsum([p for _, p in pmf])
        gain_atoms = np.array([g for g, _ in pmf])
        g = gain_atoms[np.searchsorted(cum, rng.random(total), side="right")]
        shape = np.where(state == 0, n_los, n_nlos).astype(float)
        h = rng.gamma(shape, 1.0 / shape) if total else np.zeros(0)
        contrib = tier.tx_power * g * h / loss
        tier_interf[k] = _segmented(np.add, contrib, offsets, counts, 0.0)
        points.append((drop_id, loss, contrib, counts))

    best_l = np.minimum(min_l[:, 0], min_l[:, 1])      # (K, drops)
    pgb = np.array([t.tx_power * cfg.serving_gain(k) * t.bias
                    for k, t in enumerate(cfg.tiers)])
    with np.errstate(divide="ignore"):
        received = pgb[:, None] / best_l
    serving = np.argmax(received, axis=0)
    outage = ~np.isfinite(best_l.min(axis=0))
    l_serve = np.take_along_axis(best_l, serving[None, :], axis=0)[0]
    serve_los = np.take_along_axis(min_l[:, 0], serving[None, :], axis=0)[0]
    serve_nlos = np.take_along_axis(min_l[:, 1], serving[None, :], axis=0)[0]
    s_serve = np.where(serve_los <= serve_nlos, 0, 1)

    shape = np.where(s_serve == 0, n_los, n_nlos).astype(float)
    h_serve = rng.gamma(shape, 1.0 / shape)
    if sigma_be_rad > 0.0:
        eps = rng.normal(0.0, sigma_be_rad, size=(2, n_drops))
        ue_hit = np.abs(eps[0]) <= 0.5 * cfg.pattern.beamwidth_rad
        ue_gain = np.where(ue_hit, cfg.pattern.main_gain, cfg.pattern.side_gain)
        bs_pat = [cfg.bs_pattern(k) for k in range(n_k)]
        bs_main = np.array([p.main_gain for p in bs_pat])[serving]
        bs_side = np.array([p.side_gain for p in bs_pat])[serving]
        bs_width = np.array([p.beamwidth_rad for p in bs_pat])[serving]
        bs_gain = np.where(np.abs(eps[1]) <= 0.5 * bs_width, bs_main, bs_side)
        g0 = ue_gain * bs_gain
    else:
        g0 = np.array([cfg.serving_gain(k) for k in range(n_k)])[serving]

    # remove the serving station's own draw from its tier's interference sum
    serving_contrib = np.zeros(n_drops)
    for k in range(n_k):
        drop_id, loss, contrib, _ = points[k]
        sel = (serving[drop_id] == k) & (loss == l_serve[drop_id]) \
            & ~outage[drop_id]
        if np.any(sel):
            drops_sel, first = np.unique(drop_id[sel], return_index=True)
            serving_contrib[drops_sel] = contrib[np.flatnonzero(sel)[first]]

    band_of = np.array([_BAND_INDEX[t.band] for t in cfg.tiers])
    band_sum = np.zeros((2, n_drops))
    for k in range(n_k):
        band_sum[band_of[k]] += tier_interf[k]
    interference = band_sum[band_of[serving], np.arange(n_drops)] - serving_contrib
    interference = np.maximum(interference, 0.0)  # guard float residue

    p_serv = np.array([t.tx_power for t in cfg.tiers])[serving]
    noise = np.array([t.noise_power for t in cfg.tiers])[serving]
    with np.errstate(divide="ignore", invalid="ignore"):
        signal = p_serv * g0 * h_serve / l_serve
        sinr = signal / (noise + interference)
        snr = signal / noise
    tier_out = np.where(outage, -1, serving)
    state_out = np.where(outage, -1, s_serve)
    zero = np.zeros(n_drops)
    return DropBatch(
        tier=tier_out, state=state_out,
        path_loss=np.where(outage, np.inf, l_serve),
        sinr=np.where(outage, zero, sinr),
        snr=np.where(outage, zero, snr))


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_chunk(args) -> DropBatch:
    cfg, n_drops, seed, chunk_index, sigma_be_rad = args
    return _simulate_with_rng(cfg, n_drops, _chunk_rng(seed, chunk_index),
                              sigma_be_rad)


def simulate(cfg: NetworkConfig, sim: SimConfig, *, sigma_be_rad: float = 0.0,
             workers: int = 1) -> DropBatch:
    """Run all drops, combining fixed-size chunks in chunk order.

    The pointing error sigma_be_rad must be finite and non-negative.
    """
    if not (math.isfinite(sigma_be_rad) and sigma_be_rad >= 0.0):
        raise ValueError(
            f"sigma_be must be finite and >= 0, got {sigma_be_rad!r}")
    base, rem = divmod(sim.drops, sim.parallel_chunks)
    sizes = [base + (1 if i < rem else 0) for i in range(sim.parallel_chunks)]
    jobs = [(cfg, n, sim.seed, i, sigma_be_rad)
            for i, n in enumerate(sizes) if n > 0]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_run_chunk, jobs))
    else:
        batches = [_run_chunk(j) for j in jobs]
    return DropBatch(*(np.concatenate([getattr(b, f.name) for b in batches])
                       for f in fields(DropBatch)))


def _statistic(batch: DropBatch, mode: str) -> np.ndarray:
    """The per-drop SINR (mode "sinr") or SNR (mode "snr")."""
    if mode not in ("sinr", "snr"):
        raise ValueError(f"mode must be 'sinr' or 'snr', got {mode!r}")
    return batch.sinr if mode == "sinr" else batch.snr


def drop_rates(cfg: NetworkConfig, batch: DropBatch, loads, *,
               mode: str = "sinr") -> np.ndarray:
    """Per-drop rate in bit/s, 0 on outage drops.

    A drop served by tier k gets bandwidth / loads[k] times log2(1 + SINR),
    or of the SNR under mode "snr": its tier's mean load shares the band.
    """
    loads = np.asarray(loads, dtype=float)
    if loads.shape != (cfg.n_tiers,):
        raise ValueError("loads must be a length-K vector")
    rate = ((cfg.bandwidth / loads[batch.tier])
            * np.log2(1.0 + _statistic(batch, mode)))
    return np.where(batch.tier < 0, 0.0, rate)


def _with_stderr(p, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Proportions over n drops with their binomial standard errors."""
    return p, np.sqrt(np.maximum(p * (1.0 - p), 0.0) / n)


def empirical_association(cfg: NetworkConfig, batch: DropBatch):
    """Joint (tier, state) association frequencies, outage atom, and stderrs.

    Returns (joint, joint_se, outage, outage_se) with joint shaped (K, 2).
    """
    n = batch.n_drops
    joint = np.zeros((cfg.n_tiers, 2))
    for k in range(cfg.n_tiers):
        for s in (0, 1):
            joint[k, s] = np.count_nonzero((batch.tier == k) & (batch.state == s))
    joint, joint_se = _with_stderr(joint / n, n)
    outage, outage_se = _with_stderr(np.count_nonzero(batch.tier < 0) / n, n)
    return joint, joint_se, float(outage), float(outage_se)


def empirical_tier_share(cfg: NetworkConfig, batch: DropBatch):
    """Per-tier association frequencies (LOS plus NLOS) and their stderrs."""
    joint, _, _, _ = empirical_association(cfg, batch)
    return _with_stderr(joint.sum(axis=1), batch.n_drops)


def _exceedance(values: np.ndarray, grid) -> tuple[np.ndarray, np.ndarray]:
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    hits = np.array([np.count_nonzero(values > g) for g in grid], dtype=float)
    return _with_stderr(hits / values.size, values.size)


def empirical_coverage(batch: DropBatch, thresholds, *, mode: str = "sinr"):
    """P(SINR or SNR > threshold) over a grid, with binomial stderrs."""
    return _exceedance(_statistic(batch, mode), thresholds)


def empirical_rate_coverage(cfg: NetworkConfig, batch: DropBatch, rates,
                            loads, *, mode: str = "sinr"):
    """P(rate > rho) over bit/s targets under the given loads and mode."""
    return _exceedance(drop_rates(cfg, batch, loads, mode=mode), rates)
