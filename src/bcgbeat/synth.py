"""Synthetic multi-channel BCG generator with known groundtruth.

Plants a fixed heartbeat template along a configurable heart-rate profile,
with per-channel gain and delay (the cross-channel misalignment the
multiple-instance formulation exists for), per-beat timing jitter,
respiration drift, and white noise at a requested SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import Recording


@dataclass
class SynthConfig:
    """Generator settings; channel count follows len(gains)."""

    duration_s: float = 300.0
    fs: float = 100.0
    hr_bpm: float = 60.0
    hrv_amp_bpm: float = 0.0
    hrv_period_s: float = 60.0
    template_carrier_hz: float = 7.0
    template_width_s: float = 0.12
    half_len: int = 45
    gains: tuple = (1.0, 0.9, 0.8, 0.7)
    delays: tuple = (0, 3, 6, 9)
    jitter_sd_samples: float = 2.0
    respiration_amp: float = 0.05
    respiration_hz: float = 0.25
    noise_sd: float | None = None
    snr_db: float | None = 10.0
    artifact_rate_per_min: float = 0.0
    artifact_amp: float = 4.0
    artifact_width_s: tuple = (0.4, 1.2)
    seed: int = 0

    def validate(self):
        # each test states what must hold, so that NaN fails it
        for name in ("duration_s", "fs", "hrv_period_s", "template_width_s"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")
        for name in ("template_carrier_hz", "jitter_sd_samples", "respiration_hz", "noise_sd",
                     "artifact_rate_per_min", "artifact_amp"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("respiration_amp", "snr_db"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not self.duration_s * self.fs >= 2:
            raise ValueError("duration_s * fs must be >= 2")
        if not (0.0 < self.hr_bpm - abs(self.hrv_amp_bpm) and self.hr_bpm < np.inf):
            raise ValueError("heart rate profile must stay positive and finite")
        if not (self.hr_bpm + abs(self.hrv_amp_bpm)) / 60.0 <= self.fs / 2.0:
            raise ValueError("(hr_bpm + |hrv_amp_bpm|) / 60 must be <= fs / 2")
        if len(self.gains) != len(self.delays) or not self.gains:
            raise ValueError("gains and delays must be equal-length and non-empty")
        if not all(0.0 <= g < np.inf for g in self.gains):
            raise ValueError("gains must be finite and >= 0")
        if not self.half_len >= 1:
            raise ValueError("half_len must be >= 1")
        widths = self.artifact_width_s
        if not (len(widths) == 2 and 0 < widths[0] <= widths[1] < np.inf):
            raise ValueError("artifact_width_s must be an increasing positive (low, high) pair")


@dataclass
class SynthResult:
    """Recording plus everything the generator knows about it."""

    recording: Recording
    template: np.ndarray
    noise_sd: float
    config: SynthConfig


def make_template(
    fs: float = 100.0,
    carrier_hz: float = 7.0,
    width_s: float = 0.12,
    half_len: int = 45,
) -> np.ndarray:
    """Gaussian-windowed cosine burst, unit norm, central positive peak."""
    t = (np.arange(2 * half_len + 1) - half_len) / fs
    w = np.exp(-0.5 * (t / width_s) ** 2)
    tpl = w * np.cos(2.0 * np.pi * carrier_hz * t)
    return tpl / np.linalg.norm(tpl)


def _beat_phase_times(cfg: SynthConfig) -> np.ndarray:
    """Beat instants where the integrated rate crosses whole beats.

    The phase is strictly increasing (the rate stays positive), so all
    crossings are found at once by Newton steps, each kept inside a
    bracket around its root that shrinks as it goes (a step that would
    leave the bracket bisects it instead).
    """
    mean_bps = cfg.hr_bpm / 60.0
    amp_bps = cfg.hrv_amp_bpm / 60.0
    # first beat sits at phase zero, so a beat may land exactly on the
    # final sample boundary and be dropped by the index-range filter
    if cfg.hrv_amp_bpm == 0.0:
        return np.arange(int(np.floor(mean_bps * cfg.duration_s)) + 1) / mean_bps
    half_swing = amp_bps * cfg.hrv_period_s / (2.0 * np.pi)

    def phase(t):
        return mean_bps * t + half_swing * (1.0 - np.cos(2.0 * np.pi * t / cfg.hrv_period_s))

    k = np.arange(1, int(np.floor(phase(cfg.duration_s))) + 1, dtype=float)
    # phase(t) - mean_bps * t lies between 0 and 2 * half_swing
    lo = np.clip((k - max(2.0 * half_swing, 0.0)) / mean_bps, 0.0, cfg.duration_s)
    hi = np.clip((k - min(2.0 * half_swing, 0.0)) / mean_bps, 0.0, cfg.duration_s)
    t = (lo + hi) / 2.0
    for _ in range(100):
        f = phase(t) - k
        lo = np.where(f < 0, t, lo)
        hi = np.where(f > 0, t, hi)
        rate = mean_bps + amp_bps * np.sin(2.0 * np.pi * t / cfg.hrv_period_s)
        t_new = t - f / rate
        t_new = np.where((t_new < lo) | (t_new > hi), (lo + hi) / 2.0, t_new)
        converged = np.all(np.abs(t_new - t) <= 1e-12 * cfg.duration_s)
        t = t_new
        if converged:
            break
    return np.concatenate([[0.0], t])


def generate(config: SynthConfig) -> SynthResult:
    """Deterministically synthesize a recording from the config.

    Groundtruth beat times are the jittered (but undelayed) beat instants;
    each channel adds the template at beat + its fixed delay, scaled by its
    gain, plus respiration and white noise.  When snr_db is set (and
    noise_sd is not), the noise level is calibrated against the average
    power of the clean beat trains.
    """
    config.validate()
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    n = int(round(cfg.duration_s * cfg.fs))
    tpl = make_template(cfg.fs, cfg.template_carrier_hz, cfg.template_width_s, cfg.half_len)
    h = cfg.half_len

    base = _beat_phase_times(cfg)
    if cfg.jitter_sd_samples > 0:
        base = base + rng.normal(0.0, cfg.jitter_sd_samples, base.size) / cfg.fs
    base = np.sort(base)
    idx = np.round(base * cfg.fs).astype(int)
    keep = (idx >= 0) & (idx < n)
    # the sorted distinct indices (np.unique would import numpy.ma)
    idx = np.sort(idx[keep])
    idx = idx[np.diff(idx, prepend=idx[:1] - 1) != 0]

    def place(train: np.ndarray, center: int, gain: float):
        lo = center - h
        hi = center + h + 1
        s0 = max(lo, 0)
        s1 = min(hi, n)
        if s0 >= s1:
            return
        train[s0:s1] += gain * tpl[s0 - lo : s1 - lo]

    clean = np.zeros((len(cfg.gains), n))
    for ch, (gain, delay) in enumerate(zip(cfg.gains, cfg.delays)):
        for b in idx:
            place(clean[ch], int(b) + int(delay), float(gain))

    if cfg.noise_sd is not None:
        sd = float(cfg.noise_sd)
    elif cfg.snr_db is not None:
        p_clean = float(np.mean(clean**2))
        sd = float(np.sqrt(p_clean / 10.0 ** (cfg.snr_db / 10.0))) if p_clean > 0 else 0.0
    else:
        sd = 0.0

    # template has unit L2 norm over its 2h+1 samples
    tpl_rms = 1.0 / np.sqrt(tpl.size)

    def add_artifacts(sig: np.ndarray, gain: float):
        """Sporadic motion bursts: detrended random walks, Hann-windowed,
        scaled well above the beat train.  Independent per channel, so
        cross-channel voting can reject them while single-channel energy
        detectors cannot."""
        n_bursts = rng.poisson(cfg.artifact_rate_per_min * cfg.duration_s / 60.0)
        for _ in range(int(n_bursts)):
            width = rng.uniform(cfg.artifact_width_s[0], cfg.artifact_width_s[1])
            w = max(int(round(width * cfg.fs)), 4)
            start = int(rng.integers(0, max(n - w, 1)))
            walk = np.cumsum(rng.normal(0.0, 1.0, w))
            walk -= np.linspace(walk[0], walk[-1], w)
            win = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(w) / (w - 1)))
            burst = walk * win
            rms = float(np.sqrt(np.mean(burst**2)))
            if rms <= 0:
                continue
            target = cfg.artifact_amp * gain * tpl_rms
            sig[start : start + w] += burst * (target / rms)

    t = np.arange(n) / cfg.fs
    resp = cfg.respiration_amp * np.sin(2.0 * np.pi * cfg.respiration_hz * t)
    channels = []
    for ch in range(len(cfg.gains)):
        sig = clean[ch] + resp
        if sd > 0:
            sig = sig + rng.normal(0.0, sd, n)
        if cfg.artifact_rate_per_min > 0:
            add_artifacts(sig, float(cfg.gains[ch]))
        channels.append(sig)

    rec = Recording(channels=channels, sample_rate_hz=cfg.fs, gt_beat_times=idx)
    return SynthResult(
        recording=rec,
        template=tpl,
        noise_sd=sd,
        config=cfg,
    )
