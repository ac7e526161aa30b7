"""Configuration dataclasses and strict JSON config loading.

Every experiment is fully described by an :class:`ExperimentConfig`, which in
turn is fully described by (JSON file, CLI overrides).  Loading is strict:
unknown keys anywhere in the file are rejected so that typos cannot silently
fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Raised for any malformed or inconsistent configuration input."""


SCENARIOS = ("frame-timing", "cfo", "constellation", "apb", "train", "e2e")

# PhyConfig fields that scale or bound a signal: each must be a finite positive number
_PHY_POSITIVE = ("fs_hz", "pilot_amp", "dl_pilot_amp", "ota_pilot_amp", "pam_amp", "pam_bound",
                 "eq_floor", "power_cap")


def _check_finite(obj, names, low: float | None = None, strict: bool = True) -> None:
    """Each named float field must be finite and, with ``low``, above it (or at it when not ``strict``)."""
    for name in names:
        value = getattr(obj, name)
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
        if ok and low is not None:
            ok = value > low if strict else value >= low
        if not ok:
            bound = "" if low is None else f" and {'>' if strict else '>='} {low:g}"
            raise ConfigError(f"{name} must be finite{bound}, got {value!r}")


def _check_counts(obj, names, low: int = 1) -> None:
    """Each named field must be an integer >= ``low``."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class PhyConfig:
    """Physical-layer constants shared by every module.

    The defaults describe a 256-subcarrier OFDM system at 15.36 MHz baseband
    with a 32-sample cyclic prefix.  ``l_span`` is the lag of the coarse CFO
    correlator; it must be a multiple of ``n_fft / gcd(n_cfo_tone, n_fft)`` so
    that the single-tone CFO sub-frame contributes zero phase at that lag.
    """

    n_fft: int = 256
    cp_len: int = 32
    fs_hz: float = 15.36e6
    m_ft: int = 128                  # frame-timing sequence length, even
    m_cfo_init: int = 1_000_000      # CFO sub-frame length in the init preamble
    m_cfo_frame: int = 576           # CFO sub-frame length in digital frames (2 OFDM symbols)
    n_cfo_tone: int = 16             # active subcarrier of the CFO sub-frame
    l_span: int = 1024               # coarse CFO correlation lag
    gamma_th: float = 0.0            # frame-timing threshold; 0 -> (m_ft - 2) / 2
    kappa: int = 8                   # OFDM symbols per frame (phase-drift validity guard)
    pilot_amp: float = 1.0           # tone and reference amplitude
    dl_pilot_amp: float = 1.4142135623730951  # 3 dB boost on channel-estimation pilots
    ota_pilot_amp: float = 1.0       # common-pilot amplitude in aggregation frames
    pam_amp: float = 2.8             # subcarrier amplitude per unit payload value
    pam_bound: float = 0.9           # target max |amplitude| after payload scaling
    clip_quantile: float = 1.0       # payload-scale reference quantile; < 1 clips outliers
    eq_floor: float = 1e-6           # |h| below this is an unusable carrier
    power_cap: float = 10.0          # max mean power amplification of pre-equalization
    guard: int = 64                  # zero-padding around frames, absorbs TO shifts
    rx_backoff: int = 8              # demod anchor backs off into the CP by this many samples
    # Guard carriers are not supported: every subcarrier carries data.  The two
    # fields stay so that manifests written with them still load and replay.
    null_dc: bool = False
    edge_guards: int = 0

    def __post_init__(self):
        if self.null_dc:
            raise ConfigError(f"null_dc must be false (every subcarrier carries data), got {self.null_dc!r}")
        if self.edge_guards != 0:
            raise ConfigError(
                f"edge_guards must be 0 (every subcarrier carries data), got {self.edge_guards!r}")
        _check_finite(self, _PHY_POSITIVE, low=0)
        if not 0 < self.clip_quantile <= 1:
            raise ConfigError(f"clip_quantile must be in (0, 1], got {self.clip_quantile!r}")
        _check_finite(self, ("gamma_th",))
        if self.m_ft % 2 != 0:
            raise ConfigError(f"m_ft must be even, got {self.m_ft}")
        if self.m_cfo_init <= self.n_fft:
            raise ConfigError("m_cfo_init must exceed n_fft")
        if self.cp_len >= self.n_fft:
            raise ConfigError("cp_len must be smaller than n_fft")
        if self.gamma_th == 0.0:
            object.__setattr__(self, "gamma_th", (self.m_ft - 2) / 2)
        if self.gamma_th > self.m_ft - 2:
            raise ConfigError("gamma_th cannot exceed the noise-free correlation peak")
        step = self.n_fft // math.gcd(self.n_cfo_tone, self.n_fft)
        if self.l_span % step != 0:
            raise ConfigError(
                f"l_span={self.l_span} must be a multiple of {step} for a "
                f"zero-phase lag on tone {self.n_cfo_tone}"
            )

    @property
    def t_s(self) -> float:
        return 1.0 / self.fs_hz

    @property
    def sym_len(self) -> int:
        """Samples per OFDM symbol including cyclic prefix."""
        return self.n_fft + self.cp_len


@dataclass(frozen=True)
class ChannelConfig:
    """Ground-truth impairment draws for each sensor link.

    ``ideal`` collapses every link to a unit tap with no CFO/TO; used for the
    degenerate-channel regression runs.  Timing offsets are drawn on the
    integer sample grid (the simulator has no pulse shaping, so sub-sample
    path delays are not representable in the time domain).
    """

    ideal: bool = False
    cfo_bound_hz: float = 2000.0
    to_bound_samples: int = 8
    tap_delays: tuple[int, ...] = (0, 2, 5)   # in samples
    tap_decay: float = 1.0                    # power ~ exp(-decay * delay)
    random_tap_phases: bool = True

    def __post_init__(self):
        _check_finite(self, ("cfo_bound_hz",), low=0, strict=False)
        _check_finite(self, ("tap_decay",))
        if any(d < 0 for d in self.tap_delays):
            raise ConfigError("tap delays must be non-negative")
        if list(self.tap_delays) != sorted(set(self.tap_delays)):
            raise ConfigError("tap delays must be strictly increasing")


@dataclass(frozen=True)
class TrainConfig:
    """Federated training task parameters.

    The step size follows eta_t = eta_num / (eta_offset + t).  The dataset is
    a synthetic signal-strength map: a log-distance path-loss surface over two
    transmitter sites plus a smooth seeded shadowing field, sampled inside a
    disk and normalized to [0, 1].
    """

    rounds: int = 3000
    batch_size: int = 200
    local_n: int = 1000
    n_sensors: int = 2
    eta_num: float = 2.0
    eta_offset: float = 2000.0
    map_radius_m: float = 400.0
    site_exclusion_m: float = 20.0
    sites: tuple[tuple[float, float], ...] = ((-100.0, 0.0), (100.0, 0.0))
    p0_dbm: float = -30.0
    d0_m: float = 20.0
    pathloss_exp: float = 3.0
    shadow_sigma_db: float = 4.0
    shadow_waves: int = 6
    heatmap_n: int = 61

    def __post_init__(self):
        _check_counts(self, ("rounds", "batch_size", "n_sensors"))
        if self.batch_size > self.local_n:
            raise ConfigError("batch_size cannot exceed the per-sensor dataset size")
        if self.eta_num <= 0 or self.eta_offset <= 0:
            raise ConfigError("step-size schedule must be positive and decreasing")


@dataclass(frozen=True)
class FrameTimingParams:
    m_ft_grid: tuple[int, ...] = (64, 128, 256)
    window_factor: int = 3        # search window length in units of m_ft

    def __post_init__(self):
        # the frame must fit in the window with at least one offset to draw
        _check_counts(self, ("window_factor",), low=2)


@dataclass(frozen=True)
class CfoParams:
    track_updates: int = 16
    track_trials: int = 1000
    track_residual_hz: float = 5.0
    track_period_s: float = 1e-3

    def __post_init__(self):
        _check_counts(self, ("track_updates", "track_trials"))
        _check_finite(self, ("track_residual_hz", "track_period_s"), low=0)


def _check_schedule(params) -> None:
    """A round schedule: counts >= 1, a finite positive period and a finite non-negative turnaround."""
    _check_counts(params, ("rounds", "payload_len"))
    _check_finite(params, ("round_period_s",), low=0)
    _check_finite(params, ("turnaround_s",), low=0, strict=False)


@dataclass(frozen=True)
class ApbParams:
    rounds: int = 200
    payload_len: int = 1024
    round_period_s: float = 1e-3
    turnaround_s: float = 3e-4

    def __post_init__(self):
        _check_schedule(self)


@dataclass(frozen=True)
class ConstellationParams:
    n_symbols: int = 40
    modulation: str = "QAM16"

    def __post_init__(self):
        _check_counts(self, ("n_symbols",))
        if self.modulation not in ("QAM4", "QAM16"):
            raise ConfigError(f"unsupported constellation modulation {self.modulation!r}")


@dataclass(frozen=True)
class E2eParams:
    rounds: int = 20
    payload_len: int = 512
    round_period_s: float = 1e-3
    turnaround_s: float = 3e-4

    def __post_init__(self):
        _check_schedule(self)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "apb"
    seed: int = 0
    trials: int = 1000
    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    out_dir: str = "out"
    compensation: bool = True
    phy: PhyConfig = field(default_factory=PhyConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    frame_timing: FrameTimingParams = field(default_factory=FrameTimingParams)
    cfo: CfoParams = field(default_factory=CfoParams)
    apb: ApbParams = field(default_factory=ApbParams)
    constellation: ConstellationParams = field(default_factory=ConstellationParams)
    e2e: E2eParams = field(default_factory=E2eParams)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        if not isinstance(self.compensation, bool):
            raise ConfigError(f"compensation must be true or false, got {self.compensation!r}")
        for name in ("seed", "trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError(f"out_dir must be a non-empty string, got {self.out_dir!r}")
        if len(self.snr_db) == 0:
            raise ConfigError("snr_db grid must be nonempty")
        for v in self.snr_db:  # +inf means noiseless
            if isinstance(v, bool) or not isinstance(v, (int, float)) or math.isnan(v) or v == -math.inf:
                raise ConfigError(f"snr_db entries must be real numbers, finite or +inf, got {v!r}")


_SECTION_TYPES = {
    "phy": PhyConfig,
    "channel": ChannelConfig,
    "train": TrainConfig,
    "frame_timing": FrameTimingParams,
    "cfo": CfoParams,
    "apb": ApbParams,
    "constellation": ConstellationParams,
    "e2e": E2eParams,
}

_LIST_FIELDS = {"snr_db", "m_ft_grid", "tap_delays", "sites"}


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key in _LIST_FIELDS:
            if not isinstance(value, list):
                raise ConfigError(f"{path}.{key}: expected a list")
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a plain dict, strictly."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    if "manifest_version" in data:
        # A manifest embeds the resolved config; re-running from it must
        # reproduce the original run.
        data = data.get("config", {})
    top_names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - top_names
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key in _SECTION_TYPES:
            kwargs[key] = _build_section(_SECTION_TYPES[key], value, key)
        elif key in _LIST_FIELDS:
            if not isinstance(value, list):
                raise ConfigError(f"{key}: expected a list")
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
