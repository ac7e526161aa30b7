"""Ground-truth baseband impairment model.

Everything here operates on complex sample streams and represents the
physical channel: multipath taps, carrier frequency offset rotation, frame
timing offset, and receiver noise.  Receivers never see these ground-truth
values; tests use :func:`effective_channel_oracle` as the independent
reference for what the frequency domain should contain.

Conventions (fixed once, used everywhere):

* forward DFT  X[n] = sum_m x[m] exp(-j 2 pi n m / N)   (demodulation)
* inverse DFT  x[m] = (1/N) sum_n X[n] exp(j 2 pi n m / N)
* subcarriers are indexed n = -N/2 .. N/2-1
* a tap delayed by d samples multiplies subcarrier n by exp(-j 2 pi n d / N)
* a timing offset dt > 0 means the receiver samples late, so the frame
  content appears *earlier* in its window; the demodulated block is
  multiplied by exp(+j 2 pi n fs dt / N)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ChannelConfig, PhyConfig


@dataclass
class SampleStream:
    """A run of complex baseband samples starting at absolute time t0_s."""

    samples: np.ndarray
    t0_s: float = 0.0

    def __post_init__(self):
        # Finiteness is checked where samples enter from outside the transmit
        # chain (the air interface and add_awgn), not on every construction.
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1:
            raise ValueError("sample stream must be one-dimensional")

    def __len__(self) -> int:
        return len(self.samples)

    def copy(self) -> "SampleStream":
        return SampleStream(self.samples.copy(), self.t0_s)


@dataclass(frozen=True)
class MultipathProfile:
    """Tapped delay line: (complex gain, delay in seconds) per path.

    Delays must sit on the sample grid; the simulator has no pulse shaping,
    so a fractional path delay has no time-domain representation here.
    """

    taps: tuple[tuple[complex, float], ...]

    def __post_init__(self):
        if not self.taps:
            raise ValueError("profile needs at least one tap")
        delays = [d for _, d in self.taps]
        if any(d < 0 for d in delays) or delays != sorted(delays) or len(set(delays)) != len(delays):
            raise ValueError("tap delays must be non-negative and strictly increasing")
        power = sum(abs(a) ** 2 for a, _ in self.taps)
        if not (math.isfinite(power) and power > 0):
            raise ValueError("profile power must be finite and positive")

    @property
    def p_count(self) -> int:
        return len(self.taps)

    def delays_samples(self, phy: PhyConfig) -> np.ndarray:
        d = np.array([delay / phy.t_s for _, delay in self.taps])
        rounded = np.round(d)
        if np.max(np.abs(d - rounded)) > 1e-6:
            raise ValueError("tap delays must be integer multiples of the sample period")
        return rounded.astype(int)

    def gains(self) -> np.ndarray:
        return np.array([a for a, _ in self.taps], dtype=np.complex128)

    def validate(self, phy: PhyConfig) -> None:
        d = self.delays_samples(phy)
        if d[-1] >= phy.cp_len:
            raise ValueError(
                f"max tap delay {d[-1]} samples not absorbed by cyclic prefix {phy.cp_len}"
            )


@dataclass(frozen=True)
class LinkPath:
    """One direction of a validated link in samples: the taps and the timing offset."""

    gains: np.ndarray
    delays: np.ndarray   # integer tap delays, increasing, all below cp_len
    shift: int           # whole samples of timing offset
    frac: float          # the remainder, in samples


@dataclass(frozen=True)
class SensorLinkState:
    """Per-sensor ground-truth impairments."""

    profile: MultipathProfile
    cfo_hz: float = 0.0
    to_dl_s: float = 0.0
    to_ul_s: float = 0.0

    def validate(self, phy: PhyConfig) -> None:
        self.profile.validate(phy)
        cp_s = phy.cp_len * phy.t_s
        if abs(self.to_dl_s) >= cp_s or abs(self.to_ul_s) >= cp_s:
            raise ValueError("timing offsets must stay inside the cyclic prefix")

    def paths(self, phy: PhyConfig) -> tuple[LinkPath, LinkPath]:
        """The validated downlink and uplink paths, for computing once per session."""
        self.validate(phy)
        gains, delays = self.profile.gains(), self.profile.delays_samples(phy)
        return tuple(LinkPath(gains, delays, *_split_offset(to_s, phy))
                     for to_s in (self.to_dl_s, self.to_ul_s))


def unit_profile() -> MultipathProfile:
    return MultipathProfile(taps=((1.0 + 0.0j, 0.0),))


def default_profile(phy: PhyConfig, cfg: ChannelConfig, rng: np.random.Generator) -> MultipathProfile:
    """Exponentially decaying power-delay profile, normalized to unit power."""
    delays = np.asarray(cfg.tap_delays, dtype=float)
    powers = np.exp(-cfg.tap_decay * delays)
    powers /= powers.sum()
    amps = np.sqrt(powers)
    if cfg.random_tap_phases:
        phases = rng.uniform(-np.pi, np.pi, size=len(delays))
    else:
        phases = np.zeros(len(delays))
    gains = amps * np.exp(1j * phases)
    return MultipathProfile(taps=tuple((complex(g), float(d) * phy.t_s) for g, d in zip(gains, delays)))


def draw_link_states(
    phy: PhyConfig, cfg: ChannelConfig, n_sensors: int, rng: np.random.Generator
) -> list[SensorLinkState]:
    """Draw per-sensor impairments. TOs land on the integer sample grid."""
    links = []
    for _ in range(n_sensors):
        if cfg.ideal:
            links.append(SensorLinkState(profile=unit_profile()))
            continue
        profile = default_profile(phy, cfg, rng)
        cfo = rng.uniform(-cfg.cfo_bound_hz, cfg.cfo_bound_hz)
        b = cfg.to_bound_samples
        to_dl = int(rng.integers(-b, b + 1)) * phy.t_s
        to_ul = int(rng.integers(-b, b + 1)) * phy.t_s
        link = SensorLinkState(profile=profile, cfo_hz=cfo, to_dl_s=to_dl, to_ul_s=to_ul)
        link.validate(phy)
        links.append(link)
    return links


# ---------------------------------------------------------------------------
# impairment operators
# ---------------------------------------------------------------------------
#
# The tap sum, the CFO rotation and the noise work through a long stream in
# blocks of _BLOCK samples and write straight into their destination, so no
# temporary is as long as the stream.  Each block starts at a multiple of
# _BLOCK and the last one takes the remainder: no block is shorter than
# _BLOCK unless the whole stream is.  That keeps every sample in the same
# numpy multiply loop as one expression over the whole stream would (a lone
# trailing element takes a different loop and rounds differently), so every
# result is bit for bit that of the one-shot expression.

_BLOCK = 8192
# numpy reuses a temporary of 256 KiB or more as the output of a binary
# operation; for a complex product that swaps the operands
_ELIDE = 16384


def _blocks(n: int) -> tuple[tuple[int, int], ...]:
    """(lo, hi) of each block of an n-sample stream; the last block takes the remainder."""
    if n < 2 * _BLOCK:  # one block, without building a range for it on every short frame
        return ((0, n),)
    starts = range(0, n - n % _BLOCK, _BLOCK)
    return tuple(zip(starts, (*starts[1:], n)))


def _taps(dst: np.ndarray, x: np.ndarray, gains, delays, shift: int) -> None:
    """Add each tap's ``g * x[j - d + shift]`` into ``dst[j]``, taps in order, block by block.

    Samples outside x contribute nothing, so a positive ``shift`` (late
    sampling) drops the head of the stream.
    """
    n = len(x)
    for lo, hi in _blocks(len(dst)):
        for g, d in zip(gains, delays):
            a, b = max(lo, d - shift), min(hi, n + d - shift)
            if a < b:
                dst[a:b] += g * x[a - d + shift : b - d + shift]


def _rotate(dst: np.ndarray, src: np.ndarray, cfo_hz: float, t0_s: float, phy: PhyConfig) -> None:
    """dst[m] = src[m] * exp(j 2 pi cfo (t0 + m Ts)), block by block; dst may be src.

    The one rotation of every caller.  numpy's SIMD complex multiply rounds
    the product differently with operand order, and a one-shot
    ``src * exp(...)`` over a whole row takes its order from the row's
    length: from _ELIDE samples on, numpy reuses the exp temporary and
    computes ``exp(...) *= src``.  This states that rule as code, keyed on
    the row length, not the block's: in a long row each exp block is
    multiplied by the samples and written into the exp block; a shorter
    row computes samples times exp.
    """
    n = src.shape[-1]
    for lo, hi in _blocks(n):
        e = np.exp(2j * np.pi * cfo_hz * (t0_s + np.arange(lo, hi) * phy.t_s))
        if n >= _ELIDE:
            np.multiply(e, src[lo:hi], out=e)
            dst[lo:hi] = e
        else:
            dst[lo:hi] = src[lo:hi] * e


def apply_multipath(x: SampleStream, profile: MultipathProfile, phy: PhyConfig) -> SampleStream:
    """Linear convolution with the tap response; output grows by the max delay."""
    profile.validate(phy)
    delays = profile.delays_samples(phy)
    gains = profile.gains()
    out = np.zeros(len(x) + int(delays[-1]), dtype=np.complex128)
    _taps(out, x.samples, gains, delays, 0)
    return SampleStream(out, x.t0_s)


def apply_cfo(x: SampleStream, cfo_hz: float, phy: PhyConfig) -> SampleStream:
    """Rotate sample m by exp(j 2 pi cfo (t0 + m Ts)); timestamps preserved."""
    if cfo_hz == 0.0:
        return x.copy()
    out = np.empty_like(x.samples)
    _rotate(out, x.samples, cfo_hz, x.t0_s, phy)
    return SampleStream(out, x.t0_s)


def apply_timing_offset(x: SampleStream, dt_s: float, phy: PhyConfig) -> SampleStream:
    """Model a receiver sampling dt_s late.

    The stream content advances by dt_s: the integer part is a sample shift,
    the fractional remainder is a cyclic all-pass phase ramp applied through
    the full-length DFT.  On an aligned N-block this reproduces the
    exp(+j 2 pi n fs dt / N) subcarrier ramp of the effective channel exactly.
    """
    if abs(dt_s) >= phy.cp_len * phy.t_s:
        raise ValueError("timing offset exceeds the cyclic prefix budget")
    k, frac = _split_offset(dt_s, phy)
    out = x.samples
    if k > 0:
        out = np.concatenate([out[k:], np.zeros(k, dtype=np.complex128)])
    elif k < 0:
        out = np.concatenate([np.zeros(-k, dtype=np.complex128), out[:k]])
    if frac != 0.0:
        out = _fractional_delay(out, frac)
    return SampleStream(out, x.t0_s)


def _split_offset(dt_s: float, phy: PhyConfig) -> tuple[int, float]:
    """A timing offset as whole samples plus a remainder in samples."""
    shift = dt_s / phy.t_s
    k = int(np.round(shift))
    return k, shift - k


def _fractional_delay(x: np.ndarray, frac: float) -> np.ndarray:
    """The cyclic all-pass phase ramp of a sub-sample offset, through the full-length DFT."""
    m = len(x)
    bins = np.fft.fftfreq(m) * m
    return np.fft.ifft(np.fft.fft(x) * np.exp(2j * np.pi * bins * frac / m))


def impair_rows(x: np.ndarray, t0_s: float, paths: list[LinkPath], cfo_hz: np.ndarray,
                phy: PhyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Multipath, timing offset and CFO rotation of several links at once.

    ``x`` is one stream sent on every path, or one row per path.  Row r of
    the result is bit for bit ``apply_cfo(apply_timing_offset(apply_multipath(
    x, ...), ...), cfo_hz[r], ...)`` on ``paths[r]``, zero-padded to the
    longest row; the second result holds each row's own length.  The taps
    are added in order straight into their shifted positions, which is the
    same sum as convolving first and shifting after, and the rotation runs
    in place through apply_cfo's own kernel.  The work goes row by row and,
    within a row, block by block; a (rows, n) rotation was no faster.
    """
    n = x.shape[-1]
    lengths = np.array([n + int(p.delays[-1]) for p in paths])
    out = np.zeros((len(paths), int(lengths.max())), dtype=np.complex128)
    for r, (p, length) in enumerate(zip(paths, lengths)):
        row = out[r, :length]
        _taps(row, x if x.ndim == 1 else x[r], p.gains, p.delays, p.shift)
        if p.frac != 0.0:
            row[:] = _fractional_delay(row, p.frac)
        if cfo_hz[r] != 0.0:  # a zero offset leaves its row as it is, as apply_cfo does
            _rotate(row, row, float(cfo_hz[r]), t0_s, phy)
    return out, lengths


def add_awgn(x: SampleStream, snr_db: float, rng_seed) -> SampleStream:
    """Add complex white Gaussian noise at the given SNR relative to x.

    ``snr_db = inf`` is the noise-free flag.  ``rng_seed`` may be an integer
    seed or a numpy Generator; a fixed seed reproduces the noise exactly.
    """
    if math.isinf(snr_db) and snr_db > 0:
        out = x.copy()
    else:
        p_sig = float(np.mean(np.abs(x.samples) ** 2))
        if p_sig <= 0.0:
            raise ValueError("cannot set an SNR on a zero-power stream")
        rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
        out = add_noise(x, p_sig, snr_db, rng)
    check_finite(out.samples)
    return out


def add_noise(x: SampleStream, p_ref: float, snr_db: float, rng: np.random.Generator) -> SampleStream:
    """Add complex white Gaussian noise ``snr_db`` below the power ``p_ref``.

    The one-row case of ``add_noise_rows``, on a copy of x.
    """
    rows = x.samples[None].copy()
    return SampleStream(add_noise_rows(rows, np.array([p_ref]), snr_db, rng, [len(x)])[0], x.t0_s)


def add_noise_rows(rows: np.ndarray, p_ref: np.ndarray, snr_db: float, rng: np.random.Generator,
                   lengths) -> np.ndarray:
    """Add noise ``snr_db`` below ``p_ref[r]`` to the first ``lengths[r]`` samples of each row, in place.

    Row after row, ``rng`` draws the row's real parts, then its imaginary
    parts.  Each sample gets bit for bit ``x + s * (a + 1j * b)``, with ``s``
    the row's per-component noise deviation: per component it is the same
    rounded multiply and add, without a complex noise array beside x.  The
    draws go block by block, which continues the generator's stream exactly
    as one draw of the whole row would.
    """
    s = np.sqrt(p_ref / (10.0 ** (snr_db / 10.0)) / 2.0)
    for row, s_r, length in zip(rows, s, lengths):
        blocks = _blocks(length)
        for part in (row[:length].real, row[:length].imag):
            for lo, hi in blocks:
                part[lo:hi] += s_r * rng.standard_normal(hi - lo)
    return rows


def check_finite(samples: np.ndarray) -> None:
    if not np.all(np.isfinite(samples)):
        raise ValueError("sample stream contains non-finite values")


# ---------------------------------------------------------------------------
# frequency-domain oracle
# ---------------------------------------------------------------------------

def subcarrier_indices(n_fft: int) -> np.ndarray:
    return np.arange(-(n_fft // 2), n_fft // 2)


def tap_response_freq(profile: MultipathProfile, phy: PhyConfig) -> np.ndarray:
    """Per-subcarrier response of the tap profile alone, signed-index order."""
    n = subcarrier_indices(phy.n_fft)
    delays = profile.delays_samples(phy)
    gains = profile.gains()
    a = np.zeros(phy.n_fft, dtype=np.complex128)
    for g, d in zip(gains, delays):
        a += g * np.exp(-2j * np.pi * n * d / phy.n_fft)
    return a


def effective_channel_oracle(
    state: SensorLinkState,
    direction: str,
    t_s: float,
    residual_cfo_hz: float,
    phy: PhyConfig,
) -> np.ndarray:
    """Ground-truth effective channel as a receiver would observe it, per subcarrier.

    Composes the tap response, the timing-offset phase ramp, and the CFO
    phase at time t_s.  The CFO term carries opposite signs on the two link
    directions (the sensor's oscillator offset rotates downlink and uplink
    basebands in opposite senses).  Test-only: receivers must estimate.
    """
    if direction not in ("DL", "UL"):
        raise ValueError("direction must be 'DL' or 'UL'")
    sign = 1.0 if direction == "DL" else -1.0
    to_s = state.to_dl_s if direction == "DL" else state.to_ul_s
    n = subcarrier_indices(phy.n_fft)
    a = tap_response_freq(state.profile, phy)
    ramp = np.exp(2j * np.pi * n * phy.fs_hz * to_s / phy.n_fft)
    phase = np.exp(2j * np.pi * sign * residual_cfo_hz * t_s)
    return phase * ramp * a
