"""OFDM modulation, subcarrier mapping, and least-squares channel estimation.

Subcarrier vectors use signed index order n = -N/2 .. N/2-1 (array position
n + N/2).  Modulation is the inverse DFT with a 1/N factor plus a cyclic
prefix; demodulation strips the prefix and applies the unscaled forward DFT,
so any channel with delay spread inside the prefix acts as a per-subcarrier
complex gain.  Every subcarrier carries data, so one symbol is a plain
complex vector of N subcarrier values.  A frame's symbols go through one DFT
call as a (rows, N) stack, one symbol per row; a single symbol is the one-row
case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SampleStream
from .config import PhyConfig


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
        bits = rng.integers(0, 2, size=2 * phy.n_fft)
        symbols.append(map_qam(bits, 4, phy) * phy.dl_pilot_amp)
    pilots = np.array(symbols)
    pilots.flags.writeable = False  # shared by every node of a session
    return PilotPlan(k_sensors=k_sensors, pilot_symbols=pilots, seed=seed)


def make_common_pilot(phy: PhyConfig, seed: int) -> np.ndarray:
    """Constant-modulus pilot shared by all sensors in an OTA frame."""
    rng = np.random.default_rng(seed)
    phases = rng.integers(0, 4, size=phy.n_fft)
    return phy.ota_pilot_amp * np.exp(1j * (np.pi / 4 + np.pi / 2 * phases))


# ---------------------------------------------------------------------------
# modulation / demodulation
# ---------------------------------------------------------------------------

def ofdm_modulate(freq: np.ndarray, phy: PhyConfig) -> SampleStream:
    """Inverse DFT plus cyclic prefix per symbol; a stack's rows come out back to back."""
    if freq.shape[-1] != phy.n_fft:
        raise ValueError(f"expected {phy.n_fft} subcarriers, got {freq.shape[-1]}")
    body = np.fft.ifft(np.fft.ifftshift(freq, axes=-1))
    return SampleStream(np.concatenate([body[..., -phy.cp_len:], body], axis=-1).ravel())


def ofdm_demodulate(r, phy: PhyConfig) -> np.ndarray:
    """Strip the cyclic prefix and take the forward DFT of the N-sample body of each row."""
    samples = r.samples if isinstance(r, SampleStream) else np.asarray(r, dtype=np.complex128)
    if samples.shape[-1] < phy.sym_len:
        raise ValueError(f"need at least {phy.sym_len} samples, got {samples.shape[-1]}")
    body = samples[..., phy.cp_len : phy.cp_len + phy.n_fft]
    return np.fft.fftshift(np.fft.fft(body), axes=-1)


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


def map_qam(bits, order: int, phy: PhyConfig) -> np.ndarray:
    """Map a bit vector onto one OFDM symbol's subcarriers."""
    if order not in _QAM_LEVELS:
        raise ValueError(f"unsupported QAM order {order}")
    bits = np.asarray(bits, dtype=int).ravel()
    bpa = _QAM_LEVELS[order][1]
    need = 2 * bpa * phy.n_fft
    if len(bits) != need:
        raise ValueError(f"need exactly {need} bits for one {order}-QAM symbol, got {len(bits)}")
    grouped = bits.reshape(phy.n_fft, 2 * bpa)
    return _axis_map(grouped[:, :bpa], bpa) + 1j * _axis_map(grouped[:, bpa:], bpa)


def _axis_demap(vals: np.ndarray, bits_per_axis: int) -> np.ndarray:
    levels, _ = _QAM_LEVELS[4 if bits_per_axis == 1 else 16]
    idx = np.argmin(np.abs(vals[:, None] - levels[None, :]), axis=1)
    if bits_per_axis == 1:
        return idx[:, None]
    inv = {v: k for k, v in _GRAY4.items()}
    return np.array([inv[int(i)] for i in idx])


def demap_qam(freq: np.ndarray, order: int) -> np.ndarray:
    """Nearest-point hard decision back to bits."""
    if order not in _QAM_LEVELS:
        raise ValueError(f"unsupported QAM order {order}")
    bpa = _QAM_LEVELS[order][1]
    i_bits = _axis_demap(freq.real, bpa)
    q_bits = _axis_demap(freq.imag, bpa)
    return np.concatenate([i_bits, q_bits], axis=1).ravel()


def qam_symbol_error_count(tx: np.ndarray, rx: np.ndarray, order: int) -> int:
    """Symbol errors between a transmitted and an equalized OFDM symbol."""
    bpa = _QAM_LEVELS[order][1]
    tx_i = _axis_demap(tx.real, bpa)
    tx_q = _axis_demap(tx.imag, bpa)
    rx_i = _axis_demap(rx.real, bpa)
    rx_q = _axis_demap(rx.imag, bpa)
    same = np.all(tx_i == rx_i, axis=1) & np.all(tx_q == rx_q, axis=1)
    return int(np.sum(~same))


# ---------------------------------------------------------------------------
# PAM mapping for analog payloads
# ---------------------------------------------------------------------------

def map_pam(values, phy: PhyConfig) -> np.ndarray:
    """Place real values in [-1, 1] as amplitudes v * pam_amp on the subcarriers, row by row."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] != phy.n_fft:
        raise ValueError(f"need exactly {phy.n_fft} values per symbol, got shape {values.shape}")
    if np.max(np.abs(values)) > 1.0 + 1e-12:
        raise ValueError("PAM values must be pre-scaled to [-1, 1]")
    return (values * phy.pam_amp).astype(np.complex128)


def demap_pam(freq: np.ndarray, phy: PhyConfig) -> np.ndarray:
    return freq.real / phy.pam_amp


# ---------------------------------------------------------------------------
# channel estimation and equalization
# ---------------------------------------------------------------------------

def ls_channel_estimate(rx_pilot: np.ndarray, known_pilot: np.ndarray) -> np.ndarray:
    """Per-subcarrier least squares h[n] = r[n] / x[n], for one symbol or row by row of a stack."""
    if rx_pilot.shape[-1] != known_pilot.shape[-1]:
        raise ValueError("pilot length mismatch")
    if np.any(known_pilot == 0):
        raise ValueError("known pilot has zero-amplitude carriers")
    return rx_pilot / known_pilot


def average_estimates(estimates) -> np.ndarray:
    """Mean of several estimates of the same channel (noise averaging), one per row.

    A (sets, K, N) stack gives one mean per set of K rows.
    """
    estimates = np.asarray(estimates)
    if estimates.ndim < 2 or estimates.shape[-2] == 0:
        raise ValueError("nothing to average")
    return np.mean(estimates, axis=-2)


def floored_divisor(h: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """A divisor that keeps a division by ``h`` finite, and the carriers it changed.

    An entry of ``h`` whose magnitude is below ``floor`` keeps its phase and
    takes magnitude ``floor``; an exact zero becomes ``floor``.
    """
    mag = np.abs(h)
    low = mag < floor
    safe = h.copy()
    safe[low] = np.where(mag[low] > 0, h[low] * (floor / mag[low]), floor)
    return safe, low


def equalize(data: np.ndarray, h: np.ndarray, phy: PhyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Divide out the channel estimate from a symbol or from each row of a stack.

    Returns (equalized values, reliable mask).  Carriers whose estimate
    magnitude sits below the floor are divided by the floored magnitude and
    reported unreliable rather than blowing up.
    """
    if len(h) != data.shape[-1]:
        raise ValueError("estimate length mismatch")
    safe, low = floored_divisor(h, phy.eq_floor)
    return data / safe, ~low
