"""Two-stage pre-equalization protocol for over-the-air aggregation.

Stage 1 (pre-equalization): the access point broadcasts a digital frame;
each sensor stamps the arrival, estimates its downlink channel, and answers
with a channel-inverted digital frame carrying its orthogonal pilot slot.
From the per-sensor residual channels the AP extracts a phase intercept
phi_0 and a slope delay tau_0 for every sensor and broadcasts them.

Stage 2 (online aggregation rounds): each round the AP broadcasts a fresh
digital frame.  A sensor re-estimates its downlink channel, measures the
residual CFO from the rotation between consecutive estimates, advances its
phase estimate by -2 pi f_r (dt_DL + dt_UL), corrects integer-sample timing
drift, and transmits its payload pre-equalized by
x[n] / (exp(j(phi + 2 pi n fs tau / N)) * h_DL[n]).  All sensors transmit
simultaneously; the waveforms add at the AP antenna, which demodulates the
sum directly.

Receivers anchor their demodulation window ``rx_backoff`` samples early so
that every per-sensor misalignment lands on the cyclic-prefix side.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    SampleStream,
    SensorLinkState,
    add_noise_rows,
    check_finite,
    impair_rows,
    subcarrier_indices,
)
from .config import PhyConfig
from .framing import (
    FrameLayout,
    FtSequence,
    TimingDecision,
    assemble_frame,
    detect_frame,
    digital_frame_layout,
    gen_cfo_subframe,
    gen_ft,
    init_preamble_layout,
    ota_frame_layout,
    section_rows,
    slice_frame,
)
from .fl import chunk_payload, dechunk_payload, payload_scale
from .ofdm import (
    PilotPlan,
    average_estimates,
    demap_pam,
    floored_divisor,
    ls_channel_estimate,
    make_common_pilot,
    make_pilot_plan,
    map_pam,
    ofdm_demodulate,
    ofdm_modulate,
)
from .sync import (
    CfoEstimate,
    coarse_cfo_estimate,
    needs_recorrection,
    start_tracking,
    track_residual_cfo_rows,
)


class SyncLossError(RuntimeError):
    """Timing drift beyond one sample between rounds; the round is lost."""


class FrameDetectionError(RuntimeError):
    """No valid correlation peak where a frame was expected."""


class ProtocolAbort(RuntimeError):
    """The session cannot go on: set-up failed, or a round failed twice in a row."""


@dataclass(frozen=True)
class PreEqState:
    """One sensor's estimates carried across rounds.

    Each attempt builds new values from the session's ``states``; an attempt
    replaces ``states`` only when it succeeds.
    """

    phi_hat: float = 0.0
    tau_hat: float = 0.0
    dfr_hat: float = 0.0
    h_dl_prev: np.ndarray | None = None
    t_dl_prev: float = math.nan
    t_ul_prev: float = math.nan
    tracking: CfoEstimate = CfoEstimate()
    lo_corr_hz: float = 0.0      # coarse LO correction, summed over corrections
    recorrection: bool = False   # request a fresh coarse correction before the next round


def wrap_pi(angle):
    """Reduce an angle, or each of an array of angles, to (-pi, pi]."""
    w = (np.asarray(angle, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi
    w = np.where(w == -np.pi, np.pi, w)
    return float(w) if w.ndim == 0 else w


def tx_ofdm(freq: np.ndarray, phy: PhyConfig) -> SampleStream:
    """Modulate with a sqrt(N) transmit gain.

    The inverse-DFT convention leaves an OFDM body 1/N of its subcarrier
    power; the gain puts OFDM sections on the same per-sample air power as
    the BPSK timing and tone sections, so one frame-level SNR means the
    same thing for every section.  Receivers undo it before demodulation.
    """
    out = ofdm_modulate(freq, phy)
    return SampleStream(out.samples * np.sqrt(phy.n_fft), out.t0_s)


def rx_ofdm(section: np.ndarray, phy: PhyConfig) -> np.ndarray:
    """Undo the transmit gain and demodulate one symbol, or a (..., N + L) stack."""
    return ofdm_demodulate(np.asarray(section) / np.sqrt(phy.n_fft), phy)


def ft_search_len(phy: PhyConfig) -> int:
    """Samples at the head of a sensor's received copy that its FT search scans.

    The AP pads each broadcast with ``guard`` zeros, so the FT sequence is
    sent from sample ``guard`` on.  On the way it moves by the timing offset,
    |TO| < cp_len samples (``SensorLinkState.validate``), and each path adds
    its tap delay, below cp_len samples (``MultipathProfile.validate``).  So
    every path's FT copy starts before ``guard + 2 * cp_len`` and ends before
    ``guard + 2 * cp_len + m_ft``; the search scans one more ``guard`` on top.
    A peak further into the copy is never the frame start, so the search
    never looks there.
    """
    return 2 * phy.guard + 2 * phy.cp_len + phy.m_ft


# ---------------------------------------------------------------------------
# estimators on effective channels
# ---------------------------------------------------------------------------

def estimate_phi0(h_ota: np.ndarray) -> float:
    """Phase intercept of the residual channel's phase response.

    Averages unwrapped per-carrier phases over +-n pairs, which cancels any
    linear slope and leaves the common intercept (mod 2 pi).  Adjacent-
    carrier phase differences are confined to (-pi, pi] by the unwrap.
    """
    n_fft = len(h_ota)
    mid = n_fft // 2
    ang = np.unwrap(np.angle(h_ota))
    total = 0.0
    for n in range(1, mid):
        total += ang[mid - n] + ang[mid + n]
    return wrap_pi(total / (n_fft - 2))


def slope_delay(h: np.ndarray, phy: PhyConfig) -> float:
    """Delay read off the mean phase increment between adjacent carriers."""
    acc = np.sum(np.conj(h[:-1]) * h[1:])
    return float(phy.n_fft / (2.0 * np.pi * phy.fs_hz) * np.angle(acc))


def estimate_residual_cfo_sensor(h_dl_prev, h_dl_now, dt_dl_s, phy: PhyConfig, drift_samples=0):
    """Residual CFO from the rotation between two downlink estimates.

    A detected integer-sample timing drift is removed from the newer
    estimate first; otherwise the drift ramp would null the carrier sum.
    Unambiguous only while |f_r * dt| < 1/2 (monitored by the re-correction
    policy, not here).  Estimates may be (sensors, N) stacks with one period
    and one drift per row; the result then has one value per row.
    """
    dt_dl_s = np.asarray(dt_dl_s, dtype=float)
    if np.any(dt_dl_s <= 0):
        raise ValueError("downlink period must be positive")
    drift = np.asarray(drift_samples)
    now = h_dl_now
    if np.any(drift):
        now = np.where((drift != 0)[..., None], now * _drift_ramps(phy.n_fft, drift), now)
    acc = np.sum(np.conj(h_dl_prev) * now, axis=-1)
    f_r = np.angle(acc) / (2.0 * np.pi * dt_dl_s)
    return float(f_r) if f_r.ndim == 0 else f_r


@functools.lru_cache(maxsize=16)
def _drift_ramp(n_fft: int, d: int) -> np.ndarray:
    """The per-carrier ramp exp(-2 pi j n d / N) of a d-sample drift; shared, so read-only."""
    ramp = np.exp(-2j * np.pi * subcarrier_indices(n_fft) * d / n_fft)
    ramp.flags.writeable = False
    return ramp


def _drift_ramps(n_fft: int, drift) -> np.ndarray:
    """One drift ramp per entry of ``drift``, stacked along a new last axis."""
    drift = np.asarray(drift)
    rows = [_drift_ramp(n_fft, int(d)) for d in drift.ravel()]
    return np.stack(rows).reshape(drift.shape + (n_fft,))


def integer_sample_drift(h_dl_prev, h_dl_now, phy: PhyConfig,
                         candidates: tuple[int, ...] = (-2, -1, 0, 1, 2)):
    """Slope change between consecutive downlink estimates, on the sample grid.

    Works on the per-carrier ratio h_now * conj(h_prev), where the static
    multipath response cancels and only the drift ramp remains, and picks
    the integer ramp that matches it best.  This is the integer-rounded
    slope difference, but measured coherently across all carriers instead of
    from adjacent-carrier increments, whose noise on a frequency-selective
    channel is comparable to half a sample per round.  For (sensors, N)
    stacks the result is one drift per row.
    """
    ratio = h_dl_now * np.conj(h_dl_prev)
    scores = np.abs(np.sum(ratio[..., None, :] * _drift_ramps(phy.n_fft, candidates), axis=-1))
    best = np.asarray(candidates)[np.argmax(scores, axis=-1)]
    return int(best) if best.ndim == 0 else best


def update_phi(phi_hat, dfr_hat, dt_dl_s, dt_ul_s):
    """The phase estimate advanced by the residual-CFO rotation over one round (elementwise)."""
    return wrap_pi(phi_hat - 2.0 * np.pi * dfr_hat * (dt_dl_s + dt_ul_s))


def update_tau(tau_hat, drift, phy: PhyConfig):
    """The delay estimate after an integer-sample drift of the downlink slope (elementwise).

    A downlink drift of delta samples (see ``integer_sample_drift``) moves
    the downlink slope by +delta while the uplink side stays put, so the
    uplink-minus-downlink delay moves by -delta.  Drift beyond one sample
    signals sync loss.
    """
    if np.any(np.abs(drift) > 1):
        raise SyncLossError(f"drift {drift} samples")
    return tau_hat - drift * phy.t_s


@dataclass
class PreEqResult:
    symbol: np.ndarray               # the pre-equalized subcarrier values, row by row
    flagged: np.ndarray              # carriers at the division floor
    power_amplification: np.ndarray  # per row: mean output power / mean input power
    cap_exceeded: np.ndarray         # per row

    def flags(self) -> list[str]:
        """Each row's flags in row order: "power_cap" first, then "deep_fade"."""
        fade = ["deep_fade"] if np.any(self.flagged) else []
        return [f for cap in np.atleast_1d(self.cap_exceeded) for f in ["power_cap"] * bool(cap) + fade]


def pre_equalize(x: np.ndarray, state: PreEqState, h_dl_now: np.ndarray, phy: PhyConfig) -> PreEqResult:
    """Invert the predicted uplink effective channel ahead of transmission, row by row.

    The one-sensor case of ``pre_equalize_sensors``.
    """
    res = pre_equalize_sensors(np.asarray(x)[None], np.array([state.phi_hat]), np.array([state.tau_hat]),
                               np.asarray(h_dl_now)[None], phy)
    return PreEqResult(res.symbol[0], res.flagged[0], res.power_amplification[0], res.cap_exceeded[0])


def pre_equalize_sensors(x: np.ndarray, phi_hat: np.ndarray, tau_hat: np.ndarray, h_dl_now: np.ndarray,
                         phy: PhyConfig) -> PreEqResult:
    """Pre-equalize each sensor's rows: ``x`` is (sensors, ..., N), the estimates one per sensor.

    Every field of the result keeps the leading sensor axis.
    """
    n = subcarrier_indices(phy.n_fft)
    ramp = np.exp(1j * (phi_hat[:, None] + 2.0 * np.pi * n * phy.fs_hz * tau_hat[:, None] / phy.n_fft))
    safe, flagged = floored_divisor(ramp * h_dl_now, phy.eq_floor)
    out = x / safe.reshape(len(safe), *(1,) * (x.ndim - 2), phy.n_fft)
    p_in = np.mean(np.abs(x) ** 2, axis=-1)
    amp = np.divide(np.mean(np.abs(out) ** 2, axis=-1), p_in, out=np.zeros_like(p_in), where=p_in > 0)
    return PreEqResult(
        symbol=out,
        flagged=flagged,
        power_amplification=amp,
        cap_exceeded=amp > phy.power_cap,
    )


# ---------------------------------------------------------------------------
# air interface: the only place ground truth touches waveforms
# ---------------------------------------------------------------------------

class AirInterface:
    """Applies per-link impairments and injects receiver noise.

    The SNR is defined against the mean power of the occupied frame region
    (guard padding excluded), so zero padding around a frame does not change
    what "20 dB" means.  Every received copy, of one sensor or of all of
    them, goes through one kernel (``impair_rows``, then ``_noisy``), which
    also checks that its samples are finite.  Each link's taps and timing
    offsets are validated and converted to samples once, here.
    """

    def __init__(self, phy: PhyConfig, links: list[SensorLinkState], snr_db: float, rng: np.random.Generator):
        self.phy = phy
        self.links = links
        self.snr_db = snr_db
        self.rng = rng
        paths = [link.paths(phy) for link in links]
        self._dl = [dl for dl, _ in paths]
        self._ul = [ul for _, ul in paths]
        self._cfo_hz = np.array([link.cfo_hz for link in links], dtype=float)

    def _noisy(self, rows: np.ndarray, lengths, frame_len: int) -> np.ndarray:
        """Receiver noise on each row, in place and in row order; then the finiteness check."""
        if not (math.isinf(self.snr_db) and self.snr_db > 0):
            g = self.phy.guard
            p_ref = np.mean(np.abs(rows[:, g : g + frame_len]) ** 2, axis=-1)
            add_noise_rows(rows, p_ref, self.snr_db, self.rng, lengths)
        check_finite(rows)
        return rows

    def broadcast(self, tx: SampleStream, lo_corrs, frame_len: int, sensors=None) -> np.ndarray:
        """Received copies of an AP broadcast, one row per sensor (all sensors by default).

        The rows share ``tx.t0_s``; a copy shorter than the longest one is
        zero-padded after its own end.
        """
        ks = list(range(len(self.links))) if sensors is None else list(sensors)
        cfo = self._cfo_hz[ks] - np.asarray(lo_corrs, dtype=float)
        rows, lengths = impair_rows(tx.samples, tx.t0_s, [self._dl[k] for k in ks], cfo, self.phy)
        return self._noisy(rows, lengths, frame_len)

    def downlink(self, tx: SampleStream, k: int, lo_corr_hz: float, frame_len: int) -> SampleStream:
        """One sensor's received copy of an AP broadcast: the one-row case of ``broadcast``."""
        return SampleStream(self.broadcast(tx, [lo_corr_hz], frame_len, [k])[0], tx.t0_s)

    def uplink_aggregate(self, frames: np.ndarray, t0_s: float, lo_corrs, frame_len: int) -> SampleStream:
        """Sample-level sum of all sensors' uplink transmissions (row k from sensor k) plus noise.

        The arrivals are added to one zero-started sum in sensor order.
        """
        cfo = -(self._cfo_hz - np.asarray(lo_corrs, dtype=float))
        rows, lengths = impair_rows(frames, t0_s, self._ul, cfo, self.phy)
        total = np.zeros((1, rows.shape[-1]), dtype=np.complex128)
        for row, length in zip(rows, lengths):
            total[0, :length] += row[:length]
        return SampleStream(self._noisy(total, [total.shape[-1]], frame_len)[0], t0_s)


def _pad(stream: SampleStream, phy: PhyConfig, t_start: float) -> SampleStream:
    g = np.zeros(phy.guard, dtype=np.complex128)
    return SampleStream(np.concatenate([g, stream.samples, g]), t_start - phy.guard * phy.t_s)


# ---------------------------------------------------------------------------
# node logic
# ---------------------------------------------------------------------------

class SensorNode:
    """Receiver/transmitter logic of the sensors; sees only waveforms.

    One node serves every sensor of a session: each round method takes one
    row per sensor, row k for sensor k, and does each step for all rows at
    once.  Row k's outputs depend only on row k and ``states[k]``.  The node
    holds only constants: the estimates are the ``PreEqState`` values passed
    in and returned.
    """

    def __init__(self, phy: PhyConfig, ft: FtSequence, plan: PilotPlan,
                 common_pilot: np.ndarray, compensation: bool = True):
        self.phy = phy
        self.ft = ft
        self.plan = plan
        self.common_pilot = common_pilot
        self.compensation = compensation

    def _detect(self, rx: np.ndarray, t0_s: float) -> TimingDecision:
        """FT search over the head of one received copy (see ``ft_search_len``)."""
        return detect_frame(SampleStream(rx[: ft_search_len(self.phy)], t0_s), self.ft, self.phy)

    # -- initialization ----------------------------------------------------

    def receive_preamble(self, k: int, rx: SampleStream) -> float:
        """Sensor k's coarse CFO estimate from its received init preamble."""
        layout = init_preamble_layout(self.phy)
        dec = self._detect(rx.samples, rx.t0_s)
        if not dec.valid:
            raise FrameDetectionError(f"sensor {k}: preamble not detected")
        parts = slice_frame(rx.samples, layout, dec.m0)
        return coarse_cfo_estimate(SampleStream(parts["cfo"], rx.t0_s), self.phy)

    # -- downlink processing -------------------------------------------------

    def receive_dl_digital(self, rx: np.ndarray, t0_s: float, layout: FrameLayout):
        """Detect, stamp, and estimate the downlink channel from all pilots, row by row.

        Stops at the first row whose frame is not detected and returns the
        rows before it: the stamps, the (rows, N) estimates, each row's raw
        pilot 0 and the timing decisions.
        """
        phy = self.phy
        decs = []
        for row in rx:
            dec = self._detect(row, t0_s)
            if not dec.valid:
                break
            decs.append(dec)
        m0 = np.array([dec.m0 for dec in decs], dtype=int)
        t_stamp = t0_s + m0 * phy.t_s
        rows = section_rows(rx[: len(decs)], layout, m0 - phy.rx_backoff, "pilot0", self.plan.k_sensors)
        pilots = rx_ofdm(rows, phy)
        h_now = average_estimates(ls_channel_estimate(pilots, self.plan.pilot_symbols))
        return t_stamp, h_now, pilots[:, 0], decs

    def process_round_dl(self, states, rx: np.ndarray, t0_s: float, layout: FrameLayout,
                         t_ul_next: float) -> tuple[list[PreEqState], list[dict]]:
        """Per-round estimate updates: each sensor's next state and diagnostics dict.

        Errors are raised for the first sensor, in sensor order, whose
        processing fails: a lost sync before a missed frame further on.
        """
        phy = self.phy
        t_dl, h_now, raw0, decs = self.receive_dl_digital(rx, t0_s, layout)
        # rows that carry their estimates forward; the others (stage 1, or no
        # compensation) start tracking from this round's pilot
        upd = [k for k in range(len(decs)) if self.compensation and states[k].h_dl_prev is not None]
        if upd:
            old = [states[k] for k in upd]
            h_prev = np.stack([st.h_dl_prev for st in old])
            drift = integer_sample_drift(h_prev, h_now[upd], phy)
            lost = np.flatnonzero(np.abs(drift) > 1)
            if lost.size:
                raise SyncLossError(f"sensor {upd[lost[0]]}: drift {drift[lost[0]]} samples")
        if len(decs) < len(rx):
            raise FrameDetectionError(f"sensor {len(decs)}: downlink frame not detected")
        diags = [{"sensor": k, "detect_m0": dec.m0, "detect_peak": dec.peak} for k, dec in enumerate(decs)]
        t_list = t_dl.tolist()
        changes = [{"h_dl_prev": h_now[k], "t_dl_prev": t_list[k], "t_ul_prev": t_ul_next}
                   for k in range(len(rx))]
        for k in sorted(set(range(len(rx))) - set(upd)):
            changes[k]["tracking"] = start_tracking(states[k].tracking, raw0[k], t_list[k])
        if upd:
            dt_dl = t_dl[upd] - np.array([st.t_dl_prev for st in old])
            dt_ul = t_ul_next - np.array([st.t_ul_prev for st in old])
            tau = update_tau(np.array([st.tau_hat for st in old]), drift, phy).tolist()
            dfr = estimate_residual_cfo_sensor(h_prev, h_now[upd], dt_dl, phy, drift)
            phi = update_phi(np.array([st.phi_hat for st in old]), dfr, dt_dl, dt_ul).tolist()
            trackings = [st.tracking for st in old]
            on = [i for i, tr in enumerate(trackings) if tr.prev_pilot is not None]
            if on:
                rows = [upd[i] for i in on]
                tracked = track_residual_cfo_rows([trackings[i] for i in on], raw0[rows], t_dl[rows])
                for i, tr in zip(on, tracked):
                    trackings[i] = tr
            guard = phy.kappa * phy.n_fft * np.abs([tr.residual_hz for tr in trackings]) * phy.t_s
            for i, k in enumerate(upd):
                # check against a two-period horizon: an estimate aliased by a
                # residual already past the bound still lands above half of it
                if i in on and needs_recorrection(trackings[i], 2.0 * dt_dl[i]):
                    changes[k]["recorrection"] = diags[k]["recorrection"] = True
                if guard[i] >= 0.01:
                    diags[k]["phase_drift_guard"] = float(guard[i])
                diags[k].update(drift=int(drift[i]), dfr_hat=float(dfr[i]))
                changes[k].update(phi_hat=phi[i], tau_hat=tau[i], dfr_hat=float(dfr[i]),
                                  tracking=trackings[i])
        out = []
        for st, diag, change in zip(states, diags, changes):
            st = replace(st, **change)
            diag.update(t_dl=change["t_dl_prev"], phi_hat=st.phi_hat, tau_hat=st.tau_hat)
            out.append(st)
        return out, diags

    # -- uplink construction -------------------------------------------------

    def _preeq_rows(self, states, stack: np.ndarray) -> tuple[np.ndarray, list[list[str]]]:
        """Pre-equalize and modulate each sensor's (rows, N) stack.

        Returns the (sensors, rows * (N + L)) samples and each sensor's flags.
        """
        if self.compensation:
            phi = np.array([st.phi_hat for st in states])
            tau = np.array([st.tau_hat for st in states])
        else:
            phi = tau = np.zeros(len(states))
        res = pre_equalize_sensors(stack, phi, tau, np.stack([st.h_dl_prev for st in states]), self.phy)
        flags = [[] for _ in states]
        for k in np.flatnonzero(res.flagged.any(axis=-1) | res.cap_exceeded.any(axis=-1)):
            flags[k] = PreEqResult(res.symbol[k], res.flagged[k], res.power_amplification[k],
                                   res.cap_exceeded[k]).flags()
        return tx_ofdm(res.symbol, self.phy).samples.reshape(len(states), -1), flags

    def build_stage1_acks(self, states, layout: FrameLayout) -> tuple[np.ndarray, list[list[str]]]:
        """Each sensor's stage-1 answer, one frame per row.

        A sensor sends its own pilot slot pre-equalized and leaves the others silent.
        """
        phy = self.phy
        rows, flags = self._preeq_rows(states, self.plan.pilot_symbols[: len(states), None])
        frames = np.zeros((len(states), layout.total_len), dtype=np.complex128)
        ft, cfo = layout.section("ft"), layout.section("cfo")
        frames[:, : ft.length] = self.ft.symbols
        tone = gen_cfo_subframe(phy, phy.m_cfo_frame, phy.pilot_amp).samples
        frames[:, cfo.offset : cfo.offset + cfo.length] = tone
        for k, row in enumerate(rows):
            sec = layout.section(f"pilot{k}")
            frames[k, sec.offset : sec.offset + sec.length] = row
        return frames, flags

    def build_ota_frames(self, states, layout: FrameLayout,
                         chunks: np.ndarray) -> tuple[np.ndarray, list[list[str]]]:
        """The uplink frames, one per row: the common pilot, then one PAM symbol per payload chunk.

        ``chunks`` holds each sensor's (n_data, N) payload chunks.
        """
        stack = np.empty(chunks.shape[:1] + (1 + chunks.shape[1], self.phy.n_fft), dtype=np.complex128)
        stack[:, 0] = self.common_pilot
        stack[:, 1:] = map_pam(chunks, self.phy)
        rows, flags = self._preeq_rows(states, stack)
        frames = np.empty((len(states), layout.total_len), dtype=np.complex128)
        pilot = layout.section("pilot").offset
        frames[:, :pilot] = self.ft.symbols
        frames[:, pilot:] = rows
        return frames, flags


class AccessPoint:
    """AP logic: broadcast construction and aggregate reception."""

    def __init__(self, phy: PhyConfig, ft: FtSequence, plan: PilotPlan, common_pilot: np.ndarray):
        self.phy = phy
        self.ft = ft
        self.plan = plan
        self.common_pilot = common_pilot

    def build_preamble(self) -> SampleStream:
        phy = self.phy
        layout = init_preamble_layout(phy)
        return assemble_frame(layout, {
            "ft": self.ft.symbols.astype(np.complex128),
            "cfo": gen_cfo_subframe(phy, phy.m_cfo_init, phy.pilot_amp),
        })

    def build_dl_digital(self, layout: FrameLayout) -> SampleStream:
        phy = self.phy
        parts: dict[str, np.ndarray | SampleStream] = {
            "ft": self.ft.symbols.astype(np.complex128),
            "cfo": gen_cfo_subframe(phy, phy.m_cfo_frame, phy.pilot_amp),
        }
        rows = tx_ofdm(self.plan.pilot_symbols, phy).samples.reshape(self.plan.k_sensors, -1)
        parts.update({f"pilot{j}": row for j, row in enumerate(rows)})
        return assemble_frame(layout, parts)

    def _ul_anchor(self) -> int:
        return self.phy.guard - self.phy.rx_backoff

    def receive_stage1(self, rx: SampleStream, layout: FrameLayout):
        """Per-sensor residual channel, phase intercept, and slope delay."""
        phy = self.phy
        rows = section_rows(rx.samples, layout, self._ul_anchor(), "pilot0", self.plan.k_sensors)
        h = ls_channel_estimate(rx_ofdm(rows, phy), self.plan.pilot_symbols)
        phi0 = {k: estimate_phi0(h_k) for k, h_k in enumerate(h)}
        tau0 = {k: slope_delay(h_k, phy) for k, h_k in enumerate(h)}
        diag_det = detect_frame(rx, self.ft, phy)
        return phi0, tau0, diag_det

    def receive_ota(self, rx: SampleStream, layout: FrameLayout, n_values: int, scale: float):
        """Demap the aggregate payload using the common-pilot equalizer.

        The pilot fixes the phase common to every sensor (residual rotation
        and any shared anchor ramp).  Only the phase is equalized: after
        pre-equalization the common gain is unity by construction, and an
        amplitude division would move first-order pilot noise straight into
        the real-axis payload read.  The phase estimate has magnitude 1, so the
        division needs no floor; a carrier whose pilot arrives at or below
        ``eq_floor`` keeps phase 0 and counts as unreliable in every data symbol.
        """
        phy = self.phy
        n_data = sum(s.name.startswith("data") for s in layout.sections)
        syms = rx_ofdm(section_rows(rx.samples, layout, self._ul_anchor(), "pilot", 1 + n_data), phy)
        h_common = ls_channel_estimate(syms[0], self.plan.k_sensors * self.common_pilot)
        mag = np.abs(h_common)
        faded = mag <= phy.eq_floor
        h_phase = np.where(faded, 1.0, h_common / np.maximum(mag, phy.eq_floor))
        unreliable = n_data * int(np.sum(faded))
        agg = dechunk_payload(demap_pam(syms[1:] / h_phase, phy), n_values, scale)
        diag_det = detect_frame(rx, self.ft, phy)
        return agg, {"unreliable_carriers": unreliable, "ul_detect_valid": diag_det.valid,
                     "ul_detect_m0": diag_det.m0, "common_gain": float(np.mean(mag))}


# ---------------------------------------------------------------------------
# handshake session
# ---------------------------------------------------------------------------

@dataclass
class RoundResult:
    index: int
    retried: bool
    nmse_d: float
    aggregate: np.ndarray
    flags: list[str]
    diag: dict


def min_round_period_s(phy: PhyConfig, k_sensors: int, payload_len: int, turnaround_s: float) -> float:
    """The shortest round period that fits a downlink, an uplink and two turnarounds."""
    dl_dur = (digital_frame_layout(phy, k_sensors, n_data=0).total_len + 2 * phy.guard) * phy.t_s
    ul_dur = (ota_frame_layout(phy, _n_data(phy, payload_len)).total_len + 2 * phy.guard) * phy.t_s
    return dl_dur + turnaround_s + ul_dur + turnaround_s


def _n_data(phy: PhyConfig, payload_len: int) -> int:
    return int(np.ceil(payload_len / phy.n_fft))


class HandshakeSession:
    """Deterministic event loop driving the AP and sensors round by round.

    ``states`` holds one ``PreEqState`` per sensor, or None before
    ``initialize``.
    """

    def __init__(
        self,
        links: list[SensorLinkState],
        phy: PhyConfig,
        snr_db: float,
        seed: int,
        payload_len: int,
        compensation: bool = True,
        round_period_s: float = 1e-3,
        turnaround_s: float = 3e-4,
    ):
        self.phy = phy
        self.k_sensors = len(links)
        self.payload_len = payload_len
        self.compensation = compensation
        self.round_period_s = round_period_s
        self.turnaround_s = turnaround_s
        root = np.random.SeedSequence(seed)
        noise_ss, ref_ss = root.spawn(2)
        self.rng = np.random.default_rng(noise_ss)
        ref_rng = np.random.default_rng(ref_ss)
        ft_seed, pilot_seed, common_seed = (int(ref_rng.integers(2**31)) for _ in range(3))
        self.ft = gen_ft(phy, ft_seed)
        self.plan = make_pilot_plan(phy, self.k_sensors, pilot_seed)
        self.common = make_common_pilot(phy, common_seed)
        self.air = AirInterface(phy, links, snr_db, self.rng)
        self.ap = AccessPoint(phy, self.ft, self.plan, self.common)
        self.sensors = SensorNode(phy, self.ft, self.plan, self.common, compensation)
        self.n_data = _n_data(phy, payload_len)
        self.dl_layout = digital_frame_layout(phy, self.k_sensors, n_data=0)
        self.ul_layout = ota_frame_layout(phy, self.n_data)
        self.dl_frame = self.ap.build_dl_digital(self.dl_layout)
        dl_dur = (self.dl_layout.total_len + 2 * phy.guard) * phy.t_s
        self.ul_offset_s = dl_dur + turnaround_s
        if round_period_s < min_round_period_s(phy, self.k_sensors, payload_len, turnaround_s):
            raise ValueError("round period too short for the frame schedule")
        self.trace: list[dict] = []  # one JSON-ready event per entry
        self.states: tuple[PreEqState, ...] | None = None
        self.recorrections = 0
        self._next_dl_t = 0.0
        self.round_index = 0

    # -- plumbing ------------------------------------------------------------

    def _broadcast(self, t_s: float, states) -> tuple[np.ndarray, float]:
        """Every sensor's received copy of the downlink frame sent at ``t_s``, and their start time."""
        padded = _pad(self.dl_frame, self.phy, t_s)
        return self.air.broadcast(padded, [st.lo_corr_hz for st in states], len(self.dl_frame)), padded.t0_s

    def _collect_ul(self, frames: np.ndarray, t_s: float, states) -> SampleStream:
        g = self.phy.guard
        padded = np.pad(frames, ((0, 0), (g, g)))
        return self.air.uplink_aggregate(padded, t_s - g * self.phy.t_s, [st.lo_corr_hz for st in states],
                                         frames.shape[-1])

    # -- protocol stages -------------------------------------------------------

    def _initialize_at(self, t0: float, lo_corrs: list[float]):
        """Init preamble, stage-1 downlink and uplink, control broadcast.

        The new states are built here and replace ``states`` only once stage 1
        has succeeded.
        """
        phy = self.phy
        t = t0
        padded = _pad(self.ap.build_preamble(), phy, t)
        preamble_len = len(padded) - 2 * phy.guard
        self.trace.append({"kind": "DlTrigger", "t_s": t, "frame": "InitPreamble"})
        # Each received copy is as long as the 10^6-sample preamble, so one is
        # made, consumed and dropped before the next: memory stays flat in K.
        # Receiving draws no noise, so the noise stream keeps its order.
        states = []
        for k in range(self.k_sensors):
            est = self.sensors.receive_preamble(k, self.air.downlink(padded, k, lo_corrs[k], preamble_len))
            states.append(PreEqState(lo_corr_hz=lo_corrs[k] + est))
            self.trace.append({"kind": "CtrlBroadcast", "t_s": t, "sensor": k, "coarse_hz": est})
        t += len(padded) * phy.t_s + self.turnaround_s

        self.trace.append({"kind": "DlTrigger", "t_s": t, "frame": "Stage1DL"})
        t_ul = t + self.ul_offset_s
        rx, rx_t0 = self._broadcast(t, states)
        states, _ = self.sensors.process_round_dl(states, rx, rx_t0, self.dl_layout, t_ul)

        acks, ack_flags = self.sensors.build_stage1_acks(states, self.dl_layout)
        for k, flags in enumerate(ack_flags):
            if flags:
                self.trace.append({"kind": "UlPreEqAck", "t_s": t_ul, "sensor": k, "flags": flags})
        rx = self._collect_ul(acks, t_ul, states)
        phi0, tau0, det = self.ap.receive_stage1(rx, self.dl_layout)
        self.trace.append({
            "kind": "UlPreEqAck", "t_s": t_ul,
            "phi0": {k: float(v) for k, v in phi0.items()},
            "tau0": {k: float(v) for k, v in tau0.items()},
            "ul_detect_valid": det.valid,
        })
        ul_dur = (self.ul_layout.total_len + 2 * phy.guard) * phy.t_s
        self._next_dl_t = t_ul + ul_dur + self.turnaround_s
        self.states = tuple(replace(st, phi_hat=phi0[k], tau_hat=tau0[k]) for k, st in enumerate(states))

    def initialize(self):
        self.trace.append({
            "kind": "CtrlBroadcast", "t_s": 0.0,
            "frame_layouts": {
                "downlink": self.dl_layout.describe(),
                "uplink": self.ul_layout.describe(),
            },
        })
        try:
            self._initialize_at(0.0, [0.0] * self.k_sensors)
        except (SyncLossError, FrameDetectionError) as exc:
            raise ProtocolAbort(f"session set-up failed: {exc}") from exc

    def _maybe_recorrect(self):
        """Re-run the coarse correction when a sensor requested it."""
        if not any(st.recorrection for st in self.states):
            return
        self.trace.append({"kind": "CtrlBroadcast", "t_s": self._next_dl_t, "action": "coarse_recorrection"})
        self.recorrections += 1
        try:
            self._initialize_at(self._next_dl_t, [st.lo_corr_hz for st in self.states])
        except (SyncLossError, FrameDetectionError) as exc:
            raise ProtocolAbort(
                f"coarse re-correction before round {self.round_index + 1} failed: {exc}"
            ) from exc

    def _run_round_once(self, payloads: np.ndarray, t_dl: float, retried: bool) -> RoundResult:
        t_ul = t_dl + self.ul_offset_s
        scale = payload_scale(payloads, self.phy.pam_bound, self.phy.clip_quantile)
        chunked, _ = chunk_payload(payloads, self.phy.n_fft, scale)
        self.trace.append({"kind": "DlOtaRequest", "t_s": t_dl, "round": self.round_index})
        rx, rx_t0 = self._broadcast(t_dl, self.states)
        states, sensor_diags = self.sensors.process_round_dl(self.states, rx, rx_t0, self.dl_layout, t_ul)
        frames, sensor_flags = self.sensors.build_ota_frames(states, self.ul_layout, chunked)
        flags = [f"s{k}:{x}" for k, f in enumerate(sensor_flags) for x in f]
        if any("power_cap" in f for f in flags):
            raise SyncLossError("transmit power cap exceeded")
        rx = self._collect_ul(frames, t_ul, states)
        agg, ap_diag = self.ap.receive_ota(rx, self.ul_layout, self.payload_len, scale)
        true_sum = np.sum(payloads, axis=0)
        denom = float(np.sum(true_sum**2))
        nmse = float(np.sum((agg - true_sum) ** 2) / denom) if denom > 0 else 0.0
        estimates = {
            f"sensor{k}": {
                "phi_hat": float(st.phi_hat),
                "tau_hat_samples": float(st.tau_hat / self.phy.t_s),
                "dfr_hat_hz": float(st.dfr_hat),
                "dfr_mean_hz": float(st.tracking.residual_hz),
            }
            for k, st in enumerate(states)
        }
        self.trace.append({
            "kind": "UlOtaFrame", "t_s": t_ul,
            "round": self.round_index, "nmse_d": nmse, "flags": flags,
            "estimates": estimates, **ap_diag,
        })
        self.states = tuple(states)
        diag = {"sensors": sensor_diags, **ap_diag}
        return RoundResult(self.round_index, retried, nmse, agg, flags, diag)

    def run_round(self, payloads: list[np.ndarray]) -> RoundResult:
        """One aggregation round with a single retry on failure.

        Each attempt builds new sensor states from ``states``, and an attempt
        replaces ``states`` only when it succeeds: the retry starts from the
        estimates held before the round, and an aborted round leaves them as
        they were.
        """
        if self.states is None:
            raise RuntimeError("session not initialized")
        if len(payloads) != self.k_sensors:
            raise ValueError("one payload vector per sensor required")
        payloads = [np.asarray(p, dtype=float).ravel() for p in payloads]
        if any(len(p) != self.payload_len for p in payloads):
            raise ValueError(f"payloads must have length {self.payload_len}")
        payloads = np.array(payloads)
        self._maybe_recorrect()
        self.round_index += 1
        base = self._next_dl_t
        self._next_dl_t = base + self.round_period_s
        try:
            return self._run_round_once(payloads, base, retried=False)
        except (SyncLossError, FrameDetectionError) as first:
            self.trace.append({"kind": "DlOtaRequest", "t_s": base, "round": self.round_index,
                               "retry": str(first)})
            try:
                return self._run_round_once(payloads, base + self.round_period_s / 2.0, retried=True)
            except (SyncLossError, FrameDetectionError) as second:
                raise ProtocolAbort(
                    f"round {self.round_index} failed twice: {first}; then {second}"
                ) from second


def run_handshake(
    sensors: list[SensorLinkState],
    phy: PhyConfig,
    rounds: int,
    payload_source,
    *,
    snr_db: float = math.inf,
    seed: int = 0,
    payload_len: int = 256,
    compensation: bool = True,
    round_period_s: float = 1e-3,
    turnaround_s: float = 3e-4,
) -> list[RoundResult]:
    """Initialize a session and run ``rounds`` aggregation rounds.

    ``payload_source(i)`` must return one payload vector per sensor for
    round i (1-based).
    """
    session = HandshakeSession(
        sensors, phy, snr_db, seed, payload_len,
        compensation=compensation, round_period_s=round_period_s, turnaround_s=turnaround_s,
    )
    session.initialize()
    return [session.run_round(payload_source(i)) for i in range(1, rounds + 1)]
