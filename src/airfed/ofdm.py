"""OFDM modulation, subcarrier mapping, and least-squares channel estimation.

Subcarrier vectors use signed index order n = -N/2 .. N/2-1 (array position
n + N/2).  Modulation is the inverse DFT with a 1/N factor plus a cyclic
prefix; demodulation strips the prefix and applies the unscaled forward DFT,
so any channel with delay spread inside the prefix acts as a per-subcarrier
complex gain.  A frame's symbols go through one DFT call as a (rows, N)
stack, one symbol per row; a single symbol is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import SampleStream
from .config import PhyConfig

Modulation = str  # one of "QAM4", "QAM16", "PAM", "Raw"


@dataclass
class OfdmSymbol:
    """Subcarrier values of one symbol, or of a (rows, N) stack of symbols."""

    freq: np.ndarray
    modulation: Modulation = "Raw"

    def __post_init__(self):
        self.freq = np.asarray(self.freq, dtype=np.complex128)
        if self.freq.ndim not in (1, 2):
            raise ValueError("subcarrier values must be one vector or a (rows, N) stack")
        if not np.all(np.isfinite(self.freq)):
            raise ValueError("subcarrier vector contains non-finite values")


@dataclass
class FreqChannelEstimate:
    """Per-subcarrier complex channel estimate with a validity mask."""

    h: np.ndarray
    t_est_s: float = 0.0
    kind: str = "DL"  # DL, UL, or OTA
    valid: np.ndarray = field(default=None)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=np.complex128)
        if self.valid is None:
            self.valid = np.ones(len(self.h), dtype=bool)
        else:
            self.valid = np.asarray(self.valid, dtype=bool)
        if len(self.valid) != len(self.h):
            raise ValueError("validity mask length mismatch")
        if not np.all(np.isfinite(self.h)):
            raise ValueError("channel estimate contains non-finite values")


@dataclass(frozen=True)
class PilotPlan:
    """Time-division orthogonal pilots: sensor k owns OFDM-symbol slot k."""

    k_sensors: int
    pilot_symbols: np.ndarray  # (k_sensors, N) known subcarrier values, row k for slot k
    seed: int


def make_pilot_plan(phy: PhyConfig, k_sensors: int, seed: int) -> PilotPlan:
    """Seeded 4-QAM pilot values, one known OFDM symbol per sensor slot."""
    rng = np.random.default_rng(seed)
    symbols = []
    for _ in range(k_sensors):
        bits = rng.integers(0, 2, size=2 * phy.n_used)
        symbols.append(map_qam(bits, 4, phy).freq * phy.dl_pilot_amp)
    pilots = np.array(symbols)
    pilots.flags.writeable = False  # shared by every node of a session
    return PilotPlan(k_sensors=k_sensors, pilot_symbols=pilots, seed=seed)


def make_common_pilot(phy: PhyConfig, seed: int) -> OfdmSymbol:
    """Constant-modulus pilot shared by all sensors in an OTA frame."""
    rng = np.random.default_rng(seed)
    phases = rng.integers(0, 4, size=phy.n_fft)
    vals = phy.ota_pilot_amp * np.exp(1j * (np.pi / 4 + np.pi / 2 * phases))
    vals[~phy.used_carriers()] = 0.0
    return OfdmSymbol(freq=vals, modulation="QAM4")


# ---------------------------------------------------------------------------
# modulation / demodulation
# ---------------------------------------------------------------------------

def ofdm_modulate(sym: OfdmSymbol, phy: PhyConfig) -> SampleStream:
    """Inverse DFT plus cyclic prefix per symbol; a stack's rows come out back to back."""
    if sym.freq.shape[-1] != phy.n_fft:
        raise ValueError(f"expected {phy.n_fft} subcarriers, got {sym.freq.shape[-1]}")
    body = np.fft.ifft(np.fft.ifftshift(sym.freq, axes=-1))
    return SampleStream(np.concatenate([body[..., -phy.cp_len:], body], axis=-1).ravel())


def ofdm_demodulate(r, phy: PhyConfig) -> OfdmSymbol:
    """Strip the cyclic prefix and take the forward DFT of the N-sample body of each row."""
    samples = r.samples if isinstance(r, SampleStream) else np.asarray(r, dtype=np.complex128)
    if samples.shape[-1] < phy.sym_len:
        raise ValueError(f"need at least {phy.sym_len} samples, got {samples.shape[-1]}")
    body = samples[..., phy.cp_len : phy.cp_len + phy.n_fft]
    return OfdmSymbol(freq=np.fft.fftshift(np.fft.fft(body), axes=-1))


def payload_fraction(phy: PhyConfig) -> float:
    """Bookkeeping ratio (N - L) / N of useful samples per OFDM symbol."""
    return (phy.n_fft - phy.cp_len) / phy.n_fft


# ---------------------------------------------------------------------------
# QAM mapping (Gray-coded, unit average power)
# ---------------------------------------------------------------------------

_QAM_LEVELS = {
    4: (np.array([-1.0, 1.0]) / np.sqrt(2.0), 1),
    16: (np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0), 2),
}
# Gray order on each axis: index by gray-decoded bit pattern
_GRAY2 = {(0,): 0, (1,): 1}
_GRAY4 = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3}


def _axis_map(bits: np.ndarray, bits_per_axis: int) -> np.ndarray:
    levels, _ = _QAM_LEVELS[4 if bits_per_axis == 1 else 16]
    if bits_per_axis == 1:
        idx = bits[:, 0]
    else:
        idx = np.array([_GRAY4[(int(b0), int(b1))] for b0, b1 in bits])
    return levels[idx]


def map_qam(bits, order: int, phy: PhyConfig) -> OfdmSymbol:
    """Map a bit vector onto one OFDM symbol's usable subcarriers."""
    if order not in _QAM_LEVELS:
        raise ValueError(f"unsupported QAM order {order}")
    bits = np.asarray(bits, dtype=int).ravel()
    bpa = _QAM_LEVELS[order][1]
    used = phy.used_carriers()
    need = 2 * bpa * phy.n_used
    if len(bits) != need:
        raise ValueError(f"need exactly {need} bits for one {order}-QAM symbol, got {len(bits)}")
    grouped = bits.reshape(phy.n_used, 2 * bpa)
    i_vals = _axis_map(grouped[:, :bpa], bpa)
    q_vals = _axis_map(grouped[:, bpa:], bpa)
    freq = np.zeros(phy.n_fft, dtype=np.complex128)
    freq[used] = i_vals + 1j * q_vals
    return OfdmSymbol(freq=freq, modulation=f"QAM{order}")


def _axis_demap(vals: np.ndarray, bits_per_axis: int) -> np.ndarray:
    levels, _ = _QAM_LEVELS[4 if bits_per_axis == 1 else 16]
    idx = np.argmin(np.abs(vals[:, None] - levels[None, :]), axis=1)
    if bits_per_axis == 1:
        return idx[:, None]
    inv = {v: k for k, v in _GRAY4.items()}
    return np.array([inv[int(i)] for i in idx])


def demap_qam(sym: OfdmSymbol, order: int, phy: PhyConfig | None = None) -> np.ndarray:
    """Nearest-point hard decision back to bits (usable carriers only)."""
    if order not in _QAM_LEVELS:
        raise ValueError(f"unsupported QAM order {order}")
    bpa = _QAM_LEVELS[order][1]
    vals = sym.freq if phy is None else sym.freq[phy.used_carriers()]
    i_bits = _axis_demap(vals.real, bpa)
    q_bits = _axis_demap(vals.imag, bpa)
    return np.concatenate([i_bits, q_bits], axis=1).ravel()


def qam_symbol_error_count(tx: OfdmSymbol, rx: OfdmSymbol, order: int) -> int:
    """Symbol errors between a transmitted and an equalized OFDM symbol."""
    bpa = _QAM_LEVELS[order][1]
    tx_i = _axis_demap(tx.freq.real, bpa)
    tx_q = _axis_demap(tx.freq.imag, bpa)
    rx_i = _axis_demap(rx.freq.real, bpa)
    rx_q = _axis_demap(rx.freq.imag, bpa)
    same = np.all(tx_i == rx_i, axis=1) & np.all(tx_q == rx_q, axis=1)
    return int(np.sum(~same))


# ---------------------------------------------------------------------------
# PAM mapping for analog payloads
# ---------------------------------------------------------------------------

def map_pam(values, phy: PhyConfig) -> OfdmSymbol:
    """Place real values in [-1, 1] as amplitudes v * pam_amp on usable carriers, row by row."""
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != phy.n_used:
        raise ValueError(f"need exactly {phy.n_used} values per symbol, got shape {values.shape}")
    if np.max(np.abs(values)) > 1.0 + 1e-12:
        raise ValueError("PAM values must be pre-scaled to [-1, 1]")
    freq = np.zeros(values.shape[:-1] + (phy.n_fft,), dtype=np.complex128)
    freq[..., phy.used_carriers()] = values * phy.pam_amp
    return OfdmSymbol(freq=freq, modulation="PAM")


def demap_pam(sym: OfdmSymbol, phy: PhyConfig) -> np.ndarray:
    return sym.freq.real[..., phy.used_carriers()] / phy.pam_amp


# ---------------------------------------------------------------------------
# channel estimation and equalization
# ---------------------------------------------------------------------------

def ls_channel_estimate(
    rx_pilot: OfdmSymbol,
    known_pilot,
    t_s: float = 0.0,
    kind: str = "DL",
    used=None,
) -> FreqChannelEstimate:
    """Per-subcarrier least squares: h[n] = r[n] / x[n] on used carriers."""
    x = known_pilot.freq if isinstance(known_pilot, OfdmSymbol) else np.asarray(known_pilot)
    r = rx_pilot.freq
    if len(x) != len(r):
        raise ValueError("pilot length mismatch")
    used = np.ones(len(x), dtype=bool) if used is None else np.asarray(used, dtype=bool)
    if np.any(used & (np.abs(x) == 0.0)):
        raise ValueError("known pilot has zero-amplitude carriers marked as used")
    h = np.zeros(len(x), dtype=np.complex128)
    h[used] = r[used] / x[used]
    return FreqChannelEstimate(h=h, t_est_s=t_s, kind=kind, valid=used.copy())


def average_estimates(estimates: list[FreqChannelEstimate]) -> FreqChannelEstimate:
    """Mean of several estimates of the same channel (noise averaging)."""
    if not estimates:
        raise ValueError("nothing to average")
    h = np.mean([e.h for e in estimates], axis=0)
    valid = np.logical_and.reduce([e.valid for e in estimates])
    t = float(np.mean([e.t_est_s for e in estimates]))
    return FreqChannelEstimate(h=h, t_est_s=t, kind=estimates[0].kind, valid=valid)


def equalize(data: OfdmSymbol, est: FreqChannelEstimate, phy: PhyConfig):
    """Divide out the channel estimate from a symbol or from each row of a stack.

    Returns (equalized symbol, reliable mask).  Carriers whose estimate
    magnitude sits below the floor are divided by the floored magnitude and
    reported unreliable rather than blowing up.
    """
    if len(est.h) != data.freq.shape[-1]:
        raise ValueError("estimate length mismatch")
    mag = np.abs(est.h)
    reliable = est.valid & (mag >= phy.eq_floor)
    safe = est.h.copy()
    low = mag < phy.eq_floor
    safe[low] = np.where(mag[low] > 0, est.h[low] * (phy.eq_floor / mag[low]), phy.eq_floor)
    return OfdmSymbol(freq=data.freq / safe, modulation=data.modulation), reliable
