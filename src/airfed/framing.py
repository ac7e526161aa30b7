"""Frame-timing sequence, CFO sub-frame, and transmission frame assembly.

The frame-timing (FT) sequence is a differentially encoded pseudo-random
BPSK run: x[0] = x[1] = +1 and x[m+2] = x[m] * q[m], where q repeats each
chip twice.  A receiver differentially decodes at lag 2 and cross-correlates
with q, which tolerates carrier frequency offsets rotating less than pi/2
per two samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SampleStream
from .config import PhyConfig


@dataclass(frozen=True)
class FtSequence:
    """BPSK +-1 frame-timing sequence."""

    symbols: np.ndarray

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=float)
        object.__setattr__(self, "symbols", sym)
        if len(sym) % 2 != 0:
            raise ValueError("FT sequence length must be even")
        if not np.all(np.abs(sym) == 1.0):
            raise ValueError("FT symbols must be +-1")
        if sym[0] != 1.0 or sym[1] != 1.0:
            raise ValueError("FT sequence must start with +1, +1")

    @property
    def m_ft(self) -> int:
        return len(self.symbols)

    def template(self) -> np.ndarray:
        """The lag-2 differential of the sequence: q[m] = x[m] * x[m+2]."""
        return self.symbols[:-2] * self.symbols[2:]


def ft_from_chips(chips) -> FtSequence:
    """Build the FT sequence from M_FT/2 chips, each repeated twice."""
    chips = np.asarray(chips, dtype=float)
    if not np.all(np.abs(chips) == 1.0):
        raise ValueError("chips must be +-1")
    q = np.repeat(chips, 2)
    m = len(q)
    x = np.empty(m)
    x[0] = x[1] = 1.0
    for i in range(m - 2):
        x[i + 2] = x[i] * q[i]
    return FtSequence(symbols=x)


def gen_ft(phy: PhyConfig, seed: int) -> FtSequence:
    """Seeded pseudo-random FT sequence of length m_ft."""
    if phy.m_ft % 2 != 0:
        raise ValueError("m_ft must be even")
    rng = np.random.default_rng(seed)
    chips = rng.choice([-1.0, 1.0], size=phy.m_ft // 2)
    return ft_from_chips(chips)


def gen_cfo_subframe(phy: PhyConfig, length: int, pilot_amp: float) -> SampleStream:
    """Single active subcarrier tone: x[m] = amp * exp(j 2 pi m n_cfo / N)."""
    if length <= phy.n_fft:
        raise ValueError(f"CFO sub-frame length must exceed {phy.n_fft}")
    m = np.arange(length)
    return SampleStream(pilot_amp * np.exp(2j * np.pi * m * phy.n_cfo_tone / phy.n_fft))


@dataclass(frozen=True)
class TimingDecision:
    m0: int
    peak: float
    valid: bool


def detect_frame(r: SampleStream, ft: FtSequence, phy: PhyConfig) -> TimingDecision:
    """Differential decode at lag 2, then cross-correlate against the chips.

    Noise-free and aligned, the correlation peak is exactly m_ft - 2.  The
    reported m0 is the index of the first FT sample in the stream; ties in
    the peak search resolve to the earliest index.
    """
    samples = r.samples
    if len(samples) < ft.m_ft:
        raise ValueError(f"stream shorter than the FT sequence ({len(samples)} < {ft.m_ft})")
    lag = samples[:-2] * np.conj(samples[2:])
    q_hat = np.where(lag.real >= 0.0, 1.0, -1.0)
    corr = np.correlate(q_hat, ft.template(), mode="valid")
    mag = np.abs(corr)
    m0 = int(np.argmax(mag))
    peak = float(mag[m0])
    return TimingDecision(m0=m0, peak=peak, valid=peak >= phy.gamma_th)


# ---------------------------------------------------------------------------
# frame layouts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Section:
    name: str
    offset: int
    length: int


@dataclass(frozen=True)
class FrameLayout:
    kind: str  # InitPreamble, DigitalFrame, OtaFrame
    sections: tuple[Section, ...]

    def __post_init__(self):
        pos = 0
        for sec in self.sections:
            if sec.offset != pos or sec.length <= 0:
                raise ValueError("sections must be contiguous and non-overlapping")
            pos += sec.length

    @property
    def total_len(self) -> int:
        return sum(s.length for s in self.sections)

    def section(self, name: str) -> Section:
        for s in self.sections:
            if s.name == name:
                return s
        raise KeyError(name)

    def names(self) -> list[str]:
        return [s.name for s in self.sections]

    def describe(self) -> list[dict]:
        return [{"name": s.name, "offset": s.offset, "length": s.length} for s in self.sections]


def _build_layout(kind: str, parts: list[tuple[str, int]]) -> FrameLayout:
    sections = []
    pos = 0
    for name, length in parts:
        sections.append(Section(name, pos, length))
        pos += length
    return FrameLayout(kind=kind, sections=tuple(sections))


def init_preamble_layout(phy: PhyConfig) -> FrameLayout:
    return _build_layout("InitPreamble", [("ft", phy.m_ft), ("cfo", phy.m_cfo_init)])


def digital_frame_layout(phy: PhyConfig, k_sensors: int, n_data: int) -> FrameLayout:
    parts = [("ft", phy.m_ft), ("cfo", phy.m_cfo_frame)]
    parts += [(f"pilot{k}", phy.sym_len) for k in range(k_sensors)]
    parts += [(f"data{i}", phy.sym_len) for i in range(n_data)]
    return _build_layout("DigitalFrame", parts)


def ota_frame_layout(phy: PhyConfig, n_data: int) -> FrameLayout:
    parts = [("ft", phy.m_ft), ("pilot", phy.sym_len)]
    parts += [(f"data{i}", phy.sym_len) for i in range(n_data)]
    return _build_layout("OtaFrame", parts)


def assemble_frame(layout: FrameLayout, parts: dict) -> SampleStream:
    """Concatenate named parts in layout order; lengths must match exactly."""
    missing = set(layout.names()) - set(parts)
    if missing:
        raise ValueError(f"missing frame parts: {sorted(missing)}")
    chunks = []
    for sec in layout.sections:
        part = parts[sec.name]
        arr = part.samples if isinstance(part, SampleStream) else np.asarray(part, dtype=np.complex128)
        if len(arr) != sec.length:
            raise ValueError(f"part {sec.name!r} has length {len(arr)}, expected {sec.length}")
        chunks.append(arr)
    return SampleStream(np.concatenate(chunks))


def _check_fits(samples: np.ndarray, layout: FrameLayout, start) -> None:
    if np.any(start < 0) or np.any(start + layout.total_len > samples.shape[-1]):
        raise ValueError("frame does not fit in the buffer at the given anchor")


def slice_frame(samples: np.ndarray, layout: FrameLayout, start: int) -> dict:
    """Carve a received buffer back into named sections anchored at start."""
    _check_fits(samples, layout, start)
    return {
        sec.name: samples[start + sec.offset : start + sec.offset + sec.length]
        for sec in layout.sections
    }


def section_rows(samples: np.ndarray, layout: FrameLayout, start, first: str, rows: int) -> np.ndarray:
    """``rows`` sections from ``first`` on, as one (rows, length) view of the buffer.

    The sections must be back to back and all as long as ``first``.  A
    (buffers, n) stack with one start per buffer gives a (buffers, rows,
    length) copy, each buffer's frame at its own anchor.
    """
    _check_fits(samples, layout, start)
    i = layout.names().index(first)
    secs = layout.sections[i : i + rows]
    length = secs[0].length
    if len(secs) != rows or any(sec.length != length for sec in secs):
        raise ValueError(f"no {rows} sections of length {length} from {first!r} on")
    lo = start + secs[0].offset
    if samples.ndim == 1:
        return samples[lo : lo + rows * length].reshape(rows, length)
    windows = np.lib.stride_tricks.sliding_window_view(samples, rows * length, axis=-1)
    return windows[np.arange(len(samples)), lo].reshape(len(samples), rows, length)
