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
    add_noise,
    apply_cfo,
    apply_multipath,
    apply_timing_offset,
    subcarrier_indices,
)
from .config import PhyConfig
from .framing import (
    FrameLayout,
    FtSequence,
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
from .sync import CfoEstimate, coarse_cfo_estimate, needs_recorrection, start_tracking, track_residual_cfo


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


def wrap_pi(angle: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    w = (angle + np.pi) % (2.0 * np.pi) - np.pi
    if w == -np.pi:
        w = np.pi
    return float(w)


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
    """Undo the transmit gain and demodulate one symbol, or a (rows, N + L) stack."""
    return ofdm_demodulate(np.asarray(section) / np.sqrt(phy.n_fft), phy)


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


def estimate_residual_cfo_sensor(
    h_dl_prev: np.ndarray,
    h_dl_now: np.ndarray,
    dt_dl_s: float,
    phy: PhyConfig,
    drift_samples: int = 0,
) -> float:
    """Residual CFO from the rotation between two downlink estimates.

    A detected integer-sample timing drift is removed from the newer
    estimate first; otherwise the drift ramp would null the carrier sum.
    Unambiguous only while |f_r * dt| < 1/2 (monitored by the re-correction
    policy, not here).
    """
    if dt_dl_s <= 0:
        raise ValueError("downlink period must be positive")
    now = h_dl_now
    if drift_samples:
        now = now * _drift_ramp(phy.n_fft, drift_samples)
    acc = np.sum(np.conj(h_dl_prev) * now)
    return float(np.angle(acc) / (2.0 * np.pi * dt_dl_s))


@functools.lru_cache(maxsize=16)
def _drift_ramp(n_fft: int, d: int) -> np.ndarray:
    """The per-carrier ramp exp(-2 pi j n d / N) of a d-sample drift; shared, so read-only."""
    ramp = np.exp(-2j * np.pi * subcarrier_indices(n_fft) * d / n_fft)
    ramp.flags.writeable = False
    return ramp


def integer_sample_drift(
    h_dl_prev: np.ndarray, h_dl_now: np.ndarray, phy: PhyConfig,
    candidates: tuple[int, ...] = (-2, -1, 0, 1, 2),
) -> int:
    """Slope change between consecutive downlink estimates, on the sample grid.

    Works on the per-carrier ratio h_now * conj(h_prev), where the static
    multipath response cancels and only the drift ramp remains, and picks
    the integer ramp that matches it best.  This is the integer-rounded
    slope difference, but measured coherently across all carriers instead of
    from adjacent-carrier increments, whose noise on a frequency-selective
    channel is comparable to half a sample per round.
    """
    ratio = h_dl_now * np.conj(h_dl_prev)
    scores = [np.abs(np.sum(ratio * _drift_ramp(phy.n_fft, d))) for d in candidates]
    return int(candidates[int(np.argmax(scores))])


def update_phi(phi_hat: float, dfr_hat: float, dt_dl_s: float, dt_ul_s: float) -> float:
    """The phase estimate advanced by the residual-CFO rotation over one round."""
    return wrap_pi(phi_hat - 2.0 * np.pi * dfr_hat * (dt_dl_s + dt_ul_s))


def update_tau(tau_hat: float, drift: int, phy: PhyConfig) -> float:
    """The delay estimate after an integer-sample drift of the downlink slope.

    A downlink drift of delta samples (see ``integer_sample_drift``) moves
    the downlink slope by +delta while the uplink side stays put, so the
    uplink-minus-downlink delay moves by -delta.  Drift beyond one sample
    signals sync loss.
    """
    if abs(drift) > 1:
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


def pre_equalize(
    x: np.ndarray, state: PreEqState, h_dl_now: np.ndarray, phy: PhyConfig
) -> PreEqResult:
    """Invert the predicted uplink effective channel ahead of transmission, row by row."""
    n = subcarrier_indices(phy.n_fft)
    ramp = np.exp(1j * (state.phi_hat + 2.0 * np.pi * n * phy.fs_hz * state.tau_hat / phy.n_fft))
    safe, flagged = floored_divisor(ramp * h_dl_now, phy.eq_floor)
    out = x / safe
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
    what "20 dB" means.
    """

    def __init__(self, phy: PhyConfig, links: list[SensorLinkState], snr_db: float, rng: np.random.Generator):
        self.phy = phy
        self.links = links
        self.snr_db = snr_db
        self.rng = rng
        for link in links:
            link.validate(phy)

    def _noisy(self, x: SampleStream, frame_len: int) -> SampleStream:
        if math.isinf(self.snr_db) and self.snr_db > 0:
            return x
        g = self.phy.guard
        occupied = x.samples[g : g + frame_len]
        p_ref = float(np.mean(np.abs(occupied) ** 2))
        return add_noise(x, p_ref, self.snr_db, self.rng)

    def downlink(self, tx: SampleStream, k: int, lo_corr_hz: float, frame_len: int) -> SampleStream:
        """One sensor's received copy of an AP broadcast."""
        link = self.links[k]
        y = apply_multipath(tx, link.profile, self.phy)
        y = apply_timing_offset(y, link.to_dl_s, self.phy)
        y = apply_cfo(y, link.cfo_hz - lo_corr_hz, self.phy)
        return self._noisy(y, frame_len)

    def uplink_aggregate(self, txs: dict[int, SampleStream], lo_corrs: dict[int, float],
                         frame_len: int) -> SampleStream:
        """Sample-level sum of all sensors' uplink transmissions plus noise.

        Each arrival is added to the running sum, in sensor order, as soon as
        it is made; the sum grows with zeros when a longer arrival comes.
        """
        total = np.zeros(0, dtype=np.complex128)
        t0 = None
        for k, tx in txs.items():
            link = self.links[k]
            y = apply_multipath(tx, link.profile, self.phy)
            y = apply_timing_offset(y, link.to_ul_s, self.phy)
            y = apply_cfo(y, -(link.cfo_hz - lo_corrs[k]), self.phy)
            if len(y) > len(total):
                total = np.pad(total, (0, len(y) - len(total)))
            total[: len(y)] += y.samples
            t0 = y.t0_s
        return self._noisy(SampleStream(total, t0), frame_len)


def _pad(stream: SampleStream, phy: PhyConfig, t_start: float) -> SampleStream:
    g = np.zeros(phy.guard, dtype=np.complex128)
    return SampleStream(np.concatenate([g, stream.samples, g]), t_start - phy.guard * phy.t_s)


# ---------------------------------------------------------------------------
# node logic
# ---------------------------------------------------------------------------

class SensorNode:
    """Receiver/transmitter logic of one sensor; sees only waveforms.

    A node holds only constants: its estimates are the ``PreEqState`` values
    passed in and returned.
    """

    def __init__(self, k: int, phy: PhyConfig, ft: FtSequence, plan: PilotPlan,
                 common_pilot: np.ndarray, compensation: bool = True):
        self.k = k
        self.phy = phy
        self.ft = ft
        self.plan = plan
        self.common_pilot = common_pilot
        self.compensation = compensation

    # -- initialization ----------------------------------------------------

    def receive_preamble(self, rx: SampleStream) -> float:
        """Coarse CFO estimate from the received init preamble."""
        layout = init_preamble_layout(self.phy)
        dec = detect_frame(rx, self.ft, self.phy)
        if not dec.valid:
            raise FrameDetectionError(f"sensor {self.k}: preamble not detected")
        parts = slice_frame(rx.samples, layout, dec.m0)
        return coarse_cfo_estimate(SampleStream(parts["cfo"], rx.t0_s), self.phy)

    # -- downlink processing -------------------------------------------------

    def receive_dl_digital(self, rx: SampleStream, layout: FrameLayout):
        """Detect, stamp, and estimate the downlink channel from all pilots."""
        phy = self.phy
        dec = detect_frame(rx, self.ft, phy)
        if not dec.valid:
            raise FrameDetectionError(f"sensor {self.k}: downlink frame not detected")
        t_stamp = rx.t0_s + dec.m0 * phy.t_s
        rows = section_rows(rx.samples, layout, dec.m0 - phy.rx_backoff, "pilot0", self.plan.k_sensors)
        pilots = rx_ofdm(rows, phy)
        h_now = average_estimates(ls_channel_estimate(pilots, self.plan.pilot_symbols))
        return t_stamp, h_now, pilots[0], dec

    def process_round_dl(self, st: PreEqState, rx: SampleStream, layout: FrameLayout,
                         t_ul_next: float) -> tuple[PreEqState, dict]:
        """Per-round estimate updates: the next state and a diagnostics dict."""
        t_dl, h_now, raw_pilot0, dec = self.receive_dl_digital(rx, layout)
        diag = {"sensor": self.k, "detect_m0": dec.m0, "detect_peak": dec.peak}
        tracking = st.tracking
        if self.compensation and st.h_dl_prev is not None:
            dt_dl = t_dl - st.t_dl_prev
            dt_ul = t_ul_next - st.t_ul_prev
            drift = integer_sample_drift(st.h_dl_prev, h_now, self.phy)
            try:
                tau_hat = update_tau(st.tau_hat, drift, self.phy)
            except SyncLossError as exc:
                raise SyncLossError(f"sensor {self.k}: {exc}") from exc
            dfr_hat = estimate_residual_cfo_sensor(st.h_dl_prev, h_now, dt_dl, self.phy, drift)
            st = replace(st, phi_hat=update_phi(st.phi_hat, dfr_hat, dt_dl, dt_ul),
                         tau_hat=tau_hat, dfr_hat=dfr_hat)
            if tracking.prev_pilot is not None:
                tracking = track_residual_cfo(tracking, raw_pilot0, t_dl)
                # check against a two-period horizon: an estimate aliased by a
                # residual already past the bound still lands above half of it
                if needs_recorrection(tracking, 2.0 * dt_dl):
                    st = replace(st, recorrection=True)
                    diag["recorrection"] = True
            drift_guard = self.phy.kappa * self.phy.n_fft * abs(tracking.residual_hz) * self.phy.t_s
            if drift_guard >= 0.01:
                diag["phase_drift_guard"] = drift_guard
            diag.update(drift=drift, dfr_hat=dfr_hat)
        else:
            tracking = start_tracking(tracking, raw_pilot0, t_dl)
        diag.update(t_dl=t_dl, phi_hat=st.phi_hat, tau_hat=st.tau_hat)
        return replace(st, h_dl_prev=h_now, t_dl_prev=t_dl, t_ul_prev=t_ul_next, tracking=tracking), diag

    # -- uplink construction -------------------------------------------------

    def _preeq_rows(self, st: PreEqState, stack: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """Pre-equalize a (rows, N) stack and modulate it: (rows, N + L) samples and the flags."""
        res = pre_equalize(stack, st if self.compensation else PreEqState(), st.h_dl_prev, self.phy)
        return tx_ofdm(res.symbol, self.phy).samples.reshape(len(stack), -1), res.flags()

    def build_stage1_ack(self, st: PreEqState, layout: FrameLayout) -> tuple[SampleStream, list[str]]:
        phy = self.phy
        parts: dict[str, np.ndarray | SampleStream] = {
            "ft": self.ft.symbols.astype(np.complex128),
            "cfo": gen_cfo_subframe(phy, phy.m_cfo_frame, phy.pilot_amp),
        }
        silent = np.zeros(phy.sym_len, dtype=np.complex128)
        parts.update({f"pilot{j}": silent for j in range(self.plan.k_sensors)})
        rows, flags = self._preeq_rows(st, self.plan.pilot_symbols[self.k : self.k + 1])
        parts[f"pilot{self.k}"] = rows[0]
        return assemble_frame(layout, parts), flags

    def build_ota_frame(self, st: PreEqState, layout: FrameLayout,
                        chunks: list[np.ndarray]) -> tuple[SampleStream, list[str]]:
        """The uplink frame: the common pilot, then one PAM symbol per payload chunk."""
        stack = np.concatenate([self.common_pilot[None], map_pam(chunks, self.phy)])
        rows, flags = self._preeq_rows(st, stack)
        parts = {"ft": self.ft.symbols.astype(np.complex128), "pilot": rows[0]}
        parts.update({f"data{i}": row for i, row in enumerate(rows[1:])})
        return assemble_frame(layout, parts), flags


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
        self.sensors = [
            SensorNode(k, phy, self.ft, self.plan, self.common, compensation)
            for k in range(self.k_sensors)
        ]
        self.n_data = int(np.ceil(payload_len / phy.n_fft))
        self.dl_layout = digital_frame_layout(phy, self.k_sensors, n_data=0)
        self.ul_layout = ota_frame_layout(phy, self.n_data)
        self.dl_frame = self.ap.build_dl_digital(self.dl_layout)
        dl_dur = (self.dl_layout.total_len + 2 * phy.guard) * phy.t_s
        ul_dur = (self.ul_layout.total_len + 2 * phy.guard) * phy.t_s
        self.ul_offset_s = dl_dur + turnaround_s
        if round_period_s < self.ul_offset_s + ul_dur + turnaround_s:
            raise ValueError("round period too short for the frame schedule")
        self.trace: list[dict] = []  # one JSON-ready event per entry
        self.states: tuple[PreEqState, ...] | None = None
        self.recorrections = 0
        self._next_dl_t = 0.0
        self.round_index = 0

    # -- plumbing ------------------------------------------------------------

    def _broadcast(self, t_s: float, states) -> list[SampleStream]:
        padded = _pad(self.dl_frame, self.phy, t_s)
        return [self.air.downlink(padded, k, st.lo_corr_hz, len(self.dl_frame))
                for k, st in enumerate(states)]

    def _collect_ul(self, frames: dict[int, SampleStream], t_s: float, states) -> SampleStream:
        frame_len = max(len(f) for f in frames.values())
        padded = {k: _pad(f, self.phy, t_s) for k, f in frames.items()}
        corrs = {k: states[k].lo_corr_hz for k in frames}
        return self.air.uplink_aggregate(padded, corrs, frame_len)

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
        for k, node in enumerate(self.sensors):
            est = node.receive_preamble(self.air.downlink(padded, k, lo_corrs[k], preamble_len))
            states.append(PreEqState(lo_corr_hz=lo_corrs[k] + est))
            self.trace.append({"kind": "CtrlBroadcast", "t_s": t, "sensor": k, "coarse_hz": est})
        t += len(padded) * phy.t_s + self.turnaround_s

        self.trace.append({"kind": "DlTrigger", "t_s": t, "frame": "Stage1DL"})
        t_ul = t + self.ul_offset_s
        states = [node.process_round_dl(st, rx, self.dl_layout, t_ul)[0]
                  for node, st, rx in zip(self.sensors, states, self._broadcast(t, states))]

        acks = {}
        for k, (node, st) in enumerate(zip(self.sensors, states)):
            frame, flags = node.build_stage1_ack(st, self.dl_layout)
            acks[k] = frame
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

    def _run_round_once(self, payloads: list[np.ndarray], t_dl: float, retried: bool) -> RoundResult:
        t_ul = t_dl + self.ul_offset_s
        scale = payload_scale(payloads, self.phy.pam_bound, self.phy.clip_quantile)
        chunked = [chunk_payload(g, self.phy.n_fft, scale)[0] for g in payloads]
        self.trace.append({"kind": "DlOtaRequest", "t_s": t_dl, "round": self.round_index})
        states, sensor_diags = [], []
        for node, st, rx in zip(self.sensors, self.states, self._broadcast(t_dl, self.states)):
            st, d = node.process_round_dl(st, rx, self.dl_layout, t_ul)
            states.append(st)
            sensor_diags.append(d)
        flags: list[str] = []
        uls = {}
        for k, (node, st) in enumerate(zip(self.sensors, states)):
            frame, f = node.build_ota_frame(st, self.ul_layout, chunked[k])
            uls[k] = frame
            flags += [f"s{k}:{x}" for x in f]
        if any("power_cap" in f for f in flags):
            raise SyncLossError("transmit power cap exceeded")
        rx = self._collect_ul(uls, t_ul, states)
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
