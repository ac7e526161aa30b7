"""Experiment scenarios: frame timing, CFO, constellations, A+B, training.

Every scenario is a pure function of (ExperimentConfig) with all randomness
derived from the config seed, and emits CSV metric tables, a JSON-lines
trace, and a manifest that reproduces the run byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .channel import (
    SampleStream,
    add_awgn,
    apply_cfo,
    apply_multipath,
    default_profile,
    draw_link_states,
    tap_response_freq,
    unit_profile,
)
from .config import ConfigError, ExperimentConfig, config_hash, config_to_dict
from .fl import (
    LAYER_SIZES,
    eta_schedule,
    forward,
    gen_rss_map,
    heatmap_nmse,
    init_model,
    offline_baseline,
    train,
)
from .framing import detect_frame, gen_cfo_subframe, gen_ft
from .ofdm import (
    equalize,
    ls_channel_estimate,
    make_pilot_plan,
    map_qam,
    qam_symbol_error_count,
)
from .protocol import HandshakeSession, min_round_period_s, rx_ofdm, tx_ofdm
from .sync import CfoEstimate, coarse_cfo_estimate, start_tracking, track_residual_cfo


@dataclass
class MetricTable:
    """One CSV-bound table with a fixed column schema."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"{self.name}: expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(table: MetricTable, path: Path) -> None:
    lines = [",".join(table.columns)]
    lines += [",".join(_fmt(v) for v in row) for row in table.rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class ScenarioResult:
    tables: list[MetricTable]
    trace: list[dict]
    summary: dict
    extra_json: dict = field(default_factory=dict)  # filename -> serializable payload


# ---------------------------------------------------------------------------
# frame timing (detection probability curves)
# ---------------------------------------------------------------------------

def run_frame_timing(cfg: ExperimentConfig) -> ScenarioResult:
    """Detection and correct-synchronization probability over SNR and m_ft."""
    table = MetricTable("frame-timing", ("m_ft", "snr_db", "trials", "p_valid", "p_correct_given_valid"))
    trace = []
    for m_i, m_ft in enumerate(cfg.frame_timing.m_ft_grid):
        phy = dataclasses.replace(cfg.phy, m_ft=int(m_ft), gamma_th=0.0)
        ft = gen_ft(phy, int(np.random.default_rng(np.random.SeedSequence((cfg.seed, 11, m_i))).integers(2**31)))
        window = cfg.frame_timing.window_factor * phy.m_ft
        for s_i, snr_db in enumerate(cfg.snr_db):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 12, m_i, s_i)))
            valid = 0
            correct = 0
            for _ in range(cfg.trials):
                offset = int(rng.integers(0, window - phy.m_ft))
                buf = np.zeros(window, dtype=np.complex128)
                buf[offset : offset + phy.m_ft] = ft.symbols
                stream = SampleStream(buf)
                if not cfg.channel.ideal:
                    cfo = rng.uniform(-cfg.channel.cfo_bound_hz, cfg.channel.cfo_bound_hz)
                    stream = apply_cfo(stream, cfo, phy)
                stream = add_awgn(stream, float(snr_db), rng) if not math.isinf(snr_db) else stream
                dec = detect_frame(stream, ft, phy)
                valid += int(dec.valid)
                correct += int(dec.valid and dec.m0 == offset)
            p_valid = valid / cfg.trials
            p_correct = correct / valid if valid else 0.0
            table.add(phy.m_ft, float(snr_db), cfg.trials, p_valid, p_correct)
            trace.append({"scenario": "frame-timing", "m_ft": phy.m_ft, "snr_db": float(snr_db),
                          "p_valid": p_valid, "p_correct_given_valid": p_correct})
    summary = {"cells": len(table.rows)}
    return ScenarioResult([table], trace, summary)


# ---------------------------------------------------------------------------
# CFO estimation (coarse residuals and tracking convergence)
# ---------------------------------------------------------------------------

def _coarse_trial(phy, channel, rng, tone):
    """Draw a CFO and pass the init tone through its channel (noise added by caller)."""
    cfo = rng.uniform(-channel.cfo_bound_hz, channel.cfo_bound_hz)
    if not channel.ideal:
        tone = apply_multipath(tone, default_profile(phy, channel, rng), phy)
    tone = apply_cfo(tone, cfo, phy)
    return cfo, tone


def run_cfo(cfg: ExperimentConfig) -> ScenarioResult:
    """Coarse residual-vs-SNR table plus tracking NMSE vs update count."""
    phy = cfg.phy
    coarse = MetricTable("cfo", ("snr_db", "trials", "rms_residual_hz", "p95_abs_residual_hz",
                                 "frac_within_10hz"))
    trace = []
    sent = gen_cfo_subframe(phy, phy.m_cfo_init, phy.pilot_amp)  # the same in every trial
    for s_i, snr_db in enumerate(cfg.snr_db):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 21, s_i)))
        residuals = []
        for _ in range(cfg.trials):
            cfo, tone = _coarse_trial(phy, cfg.channel, rng, sent)
            if not math.isinf(snr_db):
                tone = add_awgn(tone, float(snr_db), rng)
            residuals.append(coarse_cfo_estimate(tone, phy) - cfo)
        residuals = np.abs(np.array(residuals))
        coarse.add(float(snr_db), cfg.trials, float(np.sqrt(np.mean(residuals**2))),
                   float(np.quantile(residuals, 0.95)), float(np.mean(residuals < 10.0)))
        trace.append({"scenario": "cfo", "snr_db": float(snr_db),
                      "rms_residual_hz": float(np.sqrt(np.mean(residuals**2)))})

    # sequential tracking at the lowest grid SNR, through the fading channel
    # the live receiver would see (per-carrier SNR varies with the taps)
    p_max = cfg.cfo.track_updates
    snr_track = float(min(cfg.snr_db))
    sq = np.zeros(p_max)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 22)))
    f_true = cfg.cfo.track_residual_hz
    dt = cfg.cfo.track_period_s
    sigma = 0.0 if math.isinf(snr_track) else np.sqrt(10 ** (-snr_track / 10.0) / 2.0)
    for _ in range(cfg.cfo.track_trials):
        if cfg.channel.ideal:
            base = np.exp(1j * rng.uniform(-np.pi, np.pi, phy.n_fft))
        else:
            prof = default_profile(phy, cfg.channel, rng)
            pilot = make_pilot_plan(phy, 1, seed=int(rng.integers(2**31))).pilot_symbols[0]
            base = tap_response_freq(prof, phy) * pilot
        scale = np.sqrt(np.mean(np.abs(base) ** 2))

        def noisy(vals):
            return vals + sigma * scale * (
                rng.standard_normal(phy.n_fft) + 1j * rng.standard_normal(phy.n_fft)
            )

        state = start_tracking(CfoEstimate(), noisy(base), 0.0)
        for p in range(p_max):
            t = (p + 1) * dt
            state = track_residual_cfo(state, noisy(base * np.exp(2j * np.pi * f_true * t)), t)
            sq[p] += (state.residual_hz - f_true) ** 2
    tracking = MetricTable("cfo_tracking", ("p", "snr_db", "trials", "nmse"))
    for p in range(p_max):
        tracking.add(p + 1, snr_track, cfg.cfo.track_trials, float(sq[p] / cfg.cfo.track_trials / f_true**2))
    summary = {"tracking_nmse_p1": tracking.rows[0][3], "tracking_nmse_last": tracking.rows[-1][3]}
    return ScenarioResult([coarse, tracking], trace, summary)


# ---------------------------------------------------------------------------
# constellation dump (equalized digital reception)
# ---------------------------------------------------------------------------

def run_constellation(cfg: ExperimentConfig) -> ScenarioResult:
    """Raw and equalized received constellations through the default channel."""
    phy = cfg.phy
    params = cfg.constellation
    order = 4 if params.modulation == "QAM4" else 16
    bits_per_sym = phy.n_fft * (2 if order == 4 else 4)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 31)))
    profile = unit_profile() if cfg.channel.ideal else default_profile(phy, cfg.channel, rng)
    plan = make_pilot_plan(phy, 1, seed=int(rng.integers(2**31)))
    dump = MetricTable("constellation", ("snr_db", "symbol", "carrier",
                                         "tx_re", "tx_im", "raw_re", "raw_im", "eq_re", "eq_im"))
    summary_tab = MetricTable("constellation_summary", ("snr_db", "n_symbols", "symbol_errors", "ser"))
    trace = []
    for s_i, snr_db in enumerate(cfg.snr_db):
        rng_s = np.random.default_rng(np.random.SeedSequence((cfg.seed, 32, s_i)))
        errors = 0
        for sym_i in range(params.n_symbols):
            bits = rng_s.integers(0, 2, size=bits_per_sym)
            data = map_qam(bits, order, phy)
            rx_p = apply_multipath(tx_ofdm(plan.pilot_symbols[0], phy), profile, phy)
            rx_d = apply_multipath(tx_ofdm(data, phy), profile, phy)
            if not math.isinf(snr_db):
                rx_p = add_awgn(rx_p, float(snr_db), rng_s)
                rx_d = add_awgn(rx_d, float(snr_db), rng_s)
            est = ls_channel_estimate(rx_ofdm(rx_p.samples[: phy.sym_len], phy), plan.pilot_symbols[0])
            raw = rx_ofdm(rx_d.samples[: phy.sym_len], phy)
            eq, _ = equalize(raw, est, phy)
            errors += qam_symbol_error_count(data, eq, order)
            if sym_i < 4:  # dump a plottable subset
                for n in range(phy.n_fft):
                    dump.add(float(snr_db), sym_i, n,
                             float(data[n].real), float(data[n].imag),
                             float(raw[n].real), float(raw[n].imag),
                             float(eq[n].real), float(eq[n].imag))
        total = params.n_symbols * phy.n_fft
        summary_tab.add(float(snr_db), params.n_symbols, errors, errors / total)
        trace.append({"scenario": "constellation", "snr_db": float(snr_db), "ser": errors / total})
    return ScenarioResult([dump, summary_tab], trace, {"modulation": params.modulation})


# ---------------------------------------------------------------------------
# A+B aggregation test
# ---------------------------------------------------------------------------

def _check_period(cfg: ExperimentConfig, n_sensors: int, payload_len: int, section: str) -> None:
    """``cfg.<section>.round_period_s`` must fit the frame schedule of ``n_sensors``."""
    timing = getattr(cfg, section)
    need = min_round_period_s(cfg.phy, n_sensors, payload_len, timing.turnaround_s)
    if timing.round_period_s < need:
        raise ConfigError(f"{section}.round_period_s must be at least {need:.6g} s for {n_sensors} sensors "
                          f"(one downlink, one uplink and two turnarounds), got {timing.round_period_s!r}")


def _session(cfg: ExperimentConfig, links, seed: int, payload_len: int, section: str,
             compensation: bool) -> HandshakeSession:
    """An initialized session at the config's highest SNR and the frame schedule of ``cfg.<section>``.

    The caller has checked the round period with ``_check_period``.
    """
    timing = getattr(cfg, section)
    session = HandshakeSession(
        links, cfg.phy, snr_db=float(cfg.snr_db[-1]), seed=seed, payload_len=payload_len,
        compensation=compensation,
        round_period_s=timing.round_period_s, turnaround_s=timing.turnaround_s,
    )
    session.initialize()
    return session


def _run_apb_session(cfg: ExperimentConfig, links, payloads, compensation: bool):
    session = _session(cfg, links, cfg.seed, cfg.apb.payload_len, "apb", compensation)
    results = [session.run_round(p) for p in payloads]
    return session, results


def run_apb(cfg: ExperimentConfig) -> ScenarioResult:
    """Two sensors aggregate i.i.d. payloads; with and without compensation."""
    _check_period(cfg, 2, cfg.apb.payload_len, "apb")
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 41)))
    links = draw_link_states(cfg.phy, cfg.channel, 2, rng)
    pay_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 42)))
    payloads = [
        [pay_rng.uniform(-1.0, 1.0, cfg.apb.payload_len) for _ in range(2)]
        for _ in range(cfg.apb.rounds)
    ]
    session_on, res_on = _run_apb_session(cfg, links, payloads, True)
    _, res_off = _run_apb_session(cfg, links, payloads, False)

    table = MetricTable("apb", ("round", "nmse_comp", "nmse_nocomp", "retried", "flags"))
    for a, b in zip(res_on, res_off):
        table.add(a.index, a.nmse_d, b.nmse_d, a.retried, len(a.flags))
    nm = np.array([r.nmse_d for r in res_on])
    grid = np.sort(np.concatenate([nm, [r.nmse_d for r in res_off]]))
    cdf = MetricTable("apb_cdf", ("nmse", "cdf_comp", "cdf_nocomp"))
    off = np.array([r.nmse_d for r in res_off])
    for x in grid:
        cdf.add(float(x), float(np.mean(nm <= x)), float(np.mean(off <= x)))
    trace = session_on.trace
    summary = {
        "rounds": cfg.apb.rounds,
        "snr_db": float(cfg.snr_db[-1]),
        "frac_below_0p01": float(np.mean(nm < 0.01)),
        "frac_below_0p05": float(np.mean(nm < 0.05)),
        "max_nmse_comp": float(np.max(nm)),
        "frac_paired_worse_without": float(np.mean(off >= nm)),
    }
    return ScenarioResult([table, cdf], trace, summary)


# ---------------------------------------------------------------------------
# federated training over the air
# ---------------------------------------------------------------------------

def train_ota(cfg: ExperimentConfig, rss, seed: int):
    """Full training loop with the aggregation stack in the loop.

    Broadcast weights, compute epsilon-weighted local gradients, aggregate
    them over the air, take the SGD step; paired with the exact-sum twin via
    shared batch schedules.
    """
    tcfg = cfg.train
    links_rng = np.random.default_rng(np.random.SeedSequence((seed, 51)))
    links = draw_link_states(cfg.phy, cfg.channel, tcfg.n_sensors, links_rng)
    session = _session(cfg, links, seed, len(init_model(seed).w), "apb", cfg.compensation)
    nmses = []

    def over_the_air(grads):
        result = session.run_round(grads)
        nmses.append(result.nmse_d)
        return result.aggregate

    model, losses = train(tcfg, rss, seed, over_the_air)
    return model, losses, np.array(nmses), session


def run_train(cfg: ExperimentConfig) -> ScenarioResult:
    """Paired over-the-air and exact-aggregation training runs."""
    tcfg = cfg.train
    # training has no timing fields of its own: it runs on the A+B frame
    # schedule, checked before the offline twin spends its time
    _check_period(cfg, tcfg.n_sensors, len(init_model(cfg.seed).w), "apb")
    rss = gen_rss_map(tcfg, cfg.seed)
    model_off, losses_off = offline_baseline(tcfg, rss, cfg.seed)
    model_ota, losses_ota, nmses, session = train_ota(cfg, rss, cfg.seed)

    table = MetricTable("train", ("round", "eta", "loss_ota", "loss_offline", "nmse_d"))
    for t in range(tcfg.rounds):
        table.add(t, eta_schedule(tcfg, t), float(losses_ota[t]), float(losses_off[t]), float(nmses[t]))

    cells, coords = heatmap_nmse(model_ota, rss)
    truth = rss.truth_norm(coords)
    pred = forward(model_ota, coords)
    heat = MetricTable("train_heatmap", ("x_norm", "y_norm", "rss_true", "rss_pred", "cell_nmse"))
    for c, yt, yp, cell in zip(coords, truth, pred, cells):
        heat.add(float(c[0]), float(c[1]), float(yt), float(yp), float(cell))

    dataset = MetricTable("train_dataset", ("lat", "lon", "rss", "owner"))
    for ds in rss.datasets:
        for (lat, lon), y in zip(ds.x, ds.y):
            dataset.add(float(lat), float(lon), float(y), ds.owner)

    checkpoint = {
        "layer_sizes": list(LAYER_SIZES),
        "weights_ota": [float(w) for w in model_ota.w],
        "weights_offline": [float(w) for w in model_off.w],
        "loss_ota": [float(v) for v in losses_ota],
        "loss_offline": [float(v) for v in losses_off],
    }

    trace = session.trace[:2000]
    summary = {
        "rounds": tcfg.rounds,
        "final_loss_ota": float(losses_ota[-1]),
        "final_loss_offline": float(losses_off[-1]),
        "final_loss_ratio": float(losses_ota[-1] / losses_off[-1]),
        "max_round_divergence": float(np.max(np.abs(losses_ota - losses_off))),
        "heatmap_median_nmse": float(np.median(cells)),
        "heatmap_mean_nmse": float(np.mean(cells)),
        "mean_payload_nmse": float(np.mean(nmses)),
    }
    result = ScenarioResult([table, heat, dataset], trace, summary)
    result.extra_json = {"model.json": checkpoint}
    return result


# ---------------------------------------------------------------------------
# diagnostic end-to-end run
# ---------------------------------------------------------------------------

def run_e2e(cfg: ExperimentConfig) -> ScenarioResult:
    """Short handshake exposing all per-round estimator trajectories."""
    _check_period(cfg, 2, cfg.e2e.payload_len, "e2e")
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 61)))
    links = draw_link_states(cfg.phy, cfg.channel, 2, rng)
    session = _session(cfg, links, cfg.seed, cfg.e2e.payload_len, "e2e", cfg.compensation)
    pay_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 62)))
    table = MetricTable("e2e", ("round", "sensor", "nmse_d", "phi_hat", "tau_hat_samples",
                                "dfr_hat_hz", "dfr_mean_hz", "detect_m0", "retried"))
    for i in range(cfg.e2e.rounds):
        pays = [pay_rng.uniform(-1, 1, cfg.e2e.payload_len) for _ in range(2)]
        r = session.run_round(pays)
        for k, st in enumerate(session.states):
            table.add(r.index, k, r.nmse_d, st.phi_hat, st.tau_hat / cfg.phy.t_s, st.dfr_hat,
                      st.tracking.residual_hz, r.diag["sensors"][k]["detect_m0"], r.retried)
    trace = session.trace
    nm = [row[2] for row in table.rows]
    summary = {"rounds": cfg.e2e.rounds, "mean_nmse": float(np.mean(nm)),
               "recorrections": session.recorrections}
    return ScenarioResult([table], trace, summary)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

_RUNNERS = {
    "frame-timing": run_frame_timing,
    "cfo": run_cfo,
    "constellation": run_constellation,
    "apb": run_apb,
    "train": run_train,
    "e2e": run_e2e,
}


def emit_report(result: ScenarioResult, cfg: ExperimentConfig, out_dir) -> dict:
    """Write metric CSVs, the event trace, and a reproducible manifest."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    written = {}
    primary = cfg.scenario
    for i, table in enumerate(result.tables):
        name = f"{primary}.csv" if i == 0 else f"{table.name}.csv"
        path = out / name
        write_csv(table, path)
        written[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    for name, payload in result.extra_json.items():
        path = out / name
        path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
        written[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    trace_path = out / "trace.jsonl"
    with open(trace_path, "w", encoding="utf-8") as fh:
        for row in result.trace:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    written["trace.jsonl"] = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    manifest = {
        "manifest_version": 1,
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "config": config_to_dict(cfg),
        "config_sha256": config_hash(cfg),
        "versions": {
            "airfed": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "summary": result.summary,
        "outputs": written,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                                       encoding="utf-8")
    return manifest


def run_scenario(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run one scenario and, if out_dir or cfg.out_dir is set, emit files."""
    runner = _RUNNERS[cfg.scenario]
    result = runner(cfg)
    manifest = emit_report(result, cfg, out_dir if out_dir is not None else cfg.out_dir)
    return manifest
