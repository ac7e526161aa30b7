"""Carrier frequency offset estimation: coarse acquisition and tracking.

Coarse estimation runs once on the long single-tone preamble with a lag
correlator: the lag is a multiple of the tone period, so the lag product's
phase depends only on the CFO.  Residual tracking compares repeated identical
pilots over time; single-shot estimates are combined by a running mean so the
error keeps shrinking while the channel holds still.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import SampleStream
from .config import PhyConfig


@dataclass(frozen=True)
class CfoEstimate:
    """Per-link CFO tracking state; updates return a new value.

    ``residual_hz`` is the running mean over ``p_count`` single-shot
    estimates; ``prev_pilot`` holds the raw subcarrier values of the last
    pilot so the next update can measure the inter-pilot rotation.
    """

    residual_hz: float = 0.0
    p_count: int = 0
    last_t_s: float = 0.0
    prev_pilot: np.ndarray | None = None


def start_tracking(state: CfoEstimate, rx_pilot: np.ndarray, t_s: float) -> CfoEstimate:
    """Return ``state`` holding the reference pilot that later updates compare against."""
    return replace(state, prev_pilot=rx_pilot.copy(), last_t_s=t_s)


def coarse_cfo_estimate(r_init: SampleStream, phy: PhyConfig) -> float:
    """Lag-correlation CFO estimate from the initialization tone.

    f_hat = angle(sum_m conj(r[m]) r[m + L]) / (2 pi Ts L), unambiguous on
    (-1/(2 Ts L), 1/(2 Ts L)].  cp_len samples are excluded at both ends so
    multipath onset and decay transients cannot bias the estimate.
    """
    L = phy.l_span
    samples = r_init.samples
    skip = phy.cp_len
    n_prod = len(samples) - L - 2 * skip
    if n_prod < 1:
        raise ValueError(f"stream too short for lag {L}: {len(samples)} samples")
    head = samples[skip : skip + n_prod]
    tail = samples[skip + L : skip + L + n_prod]
    acc = np.sum(np.conj(head) * tail)
    return float(np.angle(acc) / (2.0 * np.pi * phy.t_s * L))


def track_residual_cfo(state: CfoEstimate, rx_pilot: np.ndarray, t_p: float) -> CfoEstimate:
    """One tracking update against the stored pilot; the one-row case of ``track_residual_cfo_rows``.

    The single-shot estimate averages per-carrier rotation angles, each
    reduced to (-pi, pi], and converts phase to Hz over the elapsed time.
    The running mean then equals the arithmetic mean of all shots so far.
    """
    return track_residual_cfo_rows([state], np.asarray(rx_pilot)[None], [t_p])[0]


def track_residual_cfo_rows(states: list[CfoEstimate], rx_pilots: np.ndarray, t_p) -> list[CfoEstimate]:
    """One tracking update per link: row k of ``rx_pilots``, received at ``t_p[k]``, against ``states[k]``."""
    if any(st.prev_pilot is None for st in states):
        raise ValueError("no reference pilot stored; call start_tracking first")
    t_p = np.asarray(t_p, dtype=float)
    dt = t_p - np.array([st.last_t_s for st in states])
    if np.any(dt <= 0):
        raise ValueError("pilot timestamps must increase")
    now = np.array(rx_pilots, dtype=np.complex128)  # a private copy: its rows become the next references
    prev = np.stack([st.prev_pilot for st in states])
    usable = (np.abs(prev) > 0) & (np.abs(now) > 0)
    if not np.all(np.any(usable, axis=-1)):
        raise ValueError("no usable carriers for tracking")
    if np.all(usable):
        mean_angle = np.mean(np.angle(now / prev), axis=-1)
    else:  # each row's mean over its own usable carriers
        mean_angle = np.array([np.mean(np.angle(n[u] / p[u])) for n, p, u in zip(now, prev, usable)])
    shot = mean_angle / (2.0 * np.pi * dt)
    p = np.array([st.p_count for st in states]) + 1
    mean = ((p - 1) / p) * np.array([st.residual_hz for st in states]) + shot / p
    return [CfoEstimate(residual_hz=m, p_count=c, last_t_s=t, prev_pilot=row)
            for m, c, t, row in zip(mean.tolist(), p.tolist(), t_p.tolist(), now)]


def needs_recorrection(state: CfoEstimate, delta_t_s: float) -> bool:
    """True when the residual would rotate more than half a cycle per period."""
    return delta_t_s * abs(state.residual_hz) > 0.5


def cfo_nmse(est, truth) -> float:
    """||est - truth||^2 / ||truth||^2 over matching vectors."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError("shape mismatch")
    denom = float(np.sum(truth**2))
    if denom == 0.0:
        raise ValueError("truth vector is identically zero")
    return float(np.sum((est - truth) ** 2) / denom)
