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
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1:
            raise ValueError("sample stream must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("sample stream contains non-finite values")

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

def apply_multipath(x: SampleStream, profile: MultipathProfile, phy: PhyConfig) -> SampleStream:
    """Linear convolution with the tap response; output grows by the max delay."""
    profile.validate(phy)
    delays = profile.delays_samples(phy)
    gains = profile.gains()
    out = np.zeros(len(x) + int(delays[-1]), dtype=np.complex128)
    for g, d in zip(gains, delays):
        out[d : d + len(x)] += g * x.samples
    return SampleStream(out, x.t0_s)


def apply_cfo(x: SampleStream, cfo_hz: float, phy: PhyConfig) -> SampleStream:
    """Rotate sample m by exp(j 2 pi cfo (t0 + m Ts)); timestamps preserved."""
    if cfo_hz == 0.0:
        return x.copy()
    # Out of place on purpose: numpy's SIMD complex multiply and exp change the
    # last bits with operand order and with an output aliasing an input.
    return SampleStream(
        x.samples * np.exp(2j * np.pi * cfo_hz * (x.t0_s + np.arange(len(x)) * phy.t_s)), x.t0_s
    )


def apply_timing_offset(x: SampleStream, dt_s: float, phy: PhyConfig) -> SampleStream:
    """Model a receiver sampling dt_s late.

    The stream content advances by dt_s: the integer part is a sample shift,
    the fractional remainder is a cyclic all-pass phase ramp applied through
    the full-length DFT.  On an aligned N-block this reproduces the
    exp(+j 2 pi n fs dt / N) subcarrier ramp of the effective channel exactly.
    """
    if abs(dt_s) >= phy.cp_len * phy.t_s:
        raise ValueError("timing offset exceeds the cyclic prefix budget")
    shift = dt_s / phy.t_s
    k = int(np.round(shift))
    frac = shift - k
    out = x.samples
    if k > 0:
        out = np.concatenate([out[k:], np.zeros(k, dtype=np.complex128)])
    elif k < 0:
        out = np.concatenate([np.zeros(-k, dtype=np.complex128), out[:k]])
    if frac != 0.0:
        m = len(out)
        bins = np.fft.fftfreq(m) * m
        out = np.fft.ifft(np.fft.fft(out) * np.exp(2j * np.pi * bins * frac / m))
    return SampleStream(out, x.t0_s)


def add_awgn(x: SampleStream, snr_db: float, rng_seed) -> SampleStream:
    """Add complex white Gaussian noise at the given SNR relative to x.

    ``snr_db = inf`` is the noise-free flag.  ``rng_seed`` may be an integer
    seed or a numpy Generator; a fixed seed reproduces the noise exactly.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return x.copy()
    p_sig = float(np.mean(np.abs(x.samples) ** 2))
    if p_sig <= 0.0:
        raise ValueError("cannot set an SNR on a zero-power stream")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    return add_noise(x, p_sig, snr_db, rng)


def add_noise(x: SampleStream, p_ref: float, snr_db: float, rng: np.random.Generator) -> SampleStream:
    """Add complex white Gaussian noise ``snr_db`` below the power ``p_ref``.

    Bit for bit ``x + s * (a + 1j * b)``, with ``s`` the per-component noise
    deviation and ``a`` then ``b`` drawn from ``rng``: per component it is the
    same rounded multiply and add, without a complex noise array beside x.
    """
    s = np.sqrt(p_ref / (10.0 ** (snr_db / 10.0)) / 2.0)
    out = x.samples.copy()
    out.real += s * rng.standard_normal(len(x))
    out.imag += s * rng.standard_normal(len(x))
    return SampleStream(out, x.t0_s)


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
