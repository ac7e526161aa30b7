"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single [criterion N] PASS line with the measured values
(visible with -s or in failure output).  The training-based criteria share
one pair of full-length runs via module fixtures.
"""

import math
import time

import numpy as np
import pytest

from airfed.channel import (
    add_awgn,
    apply_cfo,
    apply_multipath,
    default_profile,
    draw_link_states,
    effective_channel_oracle,
)
from airfed.config import (
    ApbParams,
    CfoParams,
    ChannelConfig,
    ExperimentConfig,
    FrameTimingParams,
    PhyConfig,
    load_config,
)
from airfed.experiments import run_apb, run_cfo, run_frame_timing, run_scenario
from airfed.fl import (
    MlpModel,
    N_PARAMS,
    RssDataset,
    batch_sq_loss,
    init_model,
    local_gradient,
)
from airfed.framing import detect_frame, gen_cfo_subframe, gen_ft
from airfed.protocol import (
    PreEqState,
    estimate_phi0,
    estimate_residual_cfo_sensor,
    pre_equalize,
    slope_delay,
    wrap_pi,
)
from airfed.channel import SampleStream
from airfed.sync import coarse_cfo_estimate

PHY = PhyConfig()
TS = PHY.t_s


def report(n, detail):
    print(f"[criterion {n}] PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. pre-equalization identity
# ---------------------------------------------------------------------------

def test_c01_preequalization_identity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    links = draw_link_states(PHY, ChannelConfig(), 2, rng)
    fr = [12.0, -35.0]
    t_dl, t_ul = 0.010, 0.0113
    total = np.zeros(PHY.n_fft, dtype=complex)
    want = np.zeros(PHY.n_fft, dtype=complex)
    for k, link in enumerate(links):
        h_dl = effective_channel_oracle(link, "DL", t_dl, fr[k], PHY)
        h_ul = effective_channel_oracle(link, "UL", t_ul, fr[k], PHY)
        state = PreEqState(
            phi_hat=wrap_pi(-2 * np.pi * fr[k] * (t_dl + t_ul)),
            tau_hat=link.to_ul_s - link.to_dl_s,
        )
        x = rng.uniform(-1, 1, PHY.n_fft) + 0j
        res = pre_equalize(x, state, h_dl, PHY)
        total += h_ul * res.symbol
        want += x
    err = float(np.max(np.abs(total - want)))
    elapsed = time.time() - t0
    assert err < 1e-9
    assert elapsed < 1.0
    report(1, f"aggregate matches payload sum, max abs err {err:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. estimator oracle match
# ---------------------------------------------------------------------------

def test_c02_estimator_oracle_match():
    rng = np.random.default_rng(102)
    links = draw_link_states(PHY, ChannelConfig(), 2, rng)
    t_dl0, t_ul0, dt = 0.010, 0.0113, 1e-3
    worst_phi, worst_tau, worst_f = 0.0, 0.0, 0.0
    for k, link in enumerate(links):
        fr = float(rng.uniform(-40, 40))
        h_dl = effective_channel_oracle(link, "DL", t_dl0, fr, PHY)
        h_ul = effective_channel_oracle(link, "UL", t_ul0, fr, PHY)
        h_ota = h_ul / h_dl
        phi_true = -2 * np.pi * fr * (t_dl0 + t_ul0)
        tau_true = link.to_ul_s - link.to_dl_s
        phi_hat = estimate_phi0(h_ota)
        tau_hat = slope_delay(h_ota, PHY)
        h_dl2 = effective_channel_oracle(link, "DL", t_dl0 + dt, fr, PHY)
        f_hat = estimate_residual_cfo_sensor(h_dl, h_dl2, dt, PHY)
        worst_phi = max(worst_phi, abs(wrap_pi(phi_hat - phi_true)))
        worst_tau = max(worst_tau, abs(tau_hat - tau_true) / TS)
        worst_f = max(worst_f, abs(f_hat - fr))
    # tolerance 1e-9 in natural units: radians (mod 2 pi), samples, Hz
    assert worst_phi < 1e-9
    assert worst_tau < 1e-9
    assert worst_f < 1e-9
    report(2, f"phi err {worst_phi:.1e} rad, tau err {worst_tau:.1e} samples, "
              f"cfo err {worst_f:.1e} Hz")


# ---------------------------------------------------------------------------
# 3. A+B aggregation quality
# ---------------------------------------------------------------------------

def test_c03_apb_nmse():
    t0 = time.time()
    cfg = ExperimentConfig(scenario="apb", seed=0, snr_db=(20.0,), out_dir="unused",
                           apb=ApbParams(rounds=200, payload_len=1024))
    result = run_apb(cfg)
    s = result.summary
    elapsed = time.time() - t0
    assert s["frac_below_0p05"] == 1.0
    assert s["frac_below_0p01"] >= 0.90
    assert elapsed < 120.0
    report(3, f"200 rounds at 20 dB: all < 0.05, {100 * s['frac_below_0p01']:.1f}% < 0.01 "
              f"(max {s['max_nmse_comp']:.4f}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. coarse CFO accuracy
# ---------------------------------------------------------------------------

def test_c04_coarse_cfo():
    t0 = time.time()
    rng = np.random.default_rng(104)
    cfg = ChannelConfig()
    hits = 0
    trials = 200
    sent = gen_cfo_subframe(PHY, PHY.m_cfo_init, PHY.pilot_amp)  # draws nothing: one for all trials
    for _ in range(trials):
        cfo = rng.uniform(-cfg.cfo_bound_hz, cfg.cfo_bound_hz)
        tone = apply_multipath(sent, default_profile(PHY, cfg, rng), PHY)
        tone = apply_cfo(tone, cfo, PHY)
        tone = add_awgn(tone, 0.0, rng)
        hits += int(abs(coarse_cfo_estimate(tone, PHY) - cfo) < 10.0)
    # noise-free residual
    cfo = 1234.5
    tone = apply_cfo(sent, cfo, PHY)
    nf_resid = abs(coarse_cfo_estimate(tone, PHY) - cfo)
    elapsed = time.time() - t0
    assert hits / trials >= 0.95
    assert nf_resid < 1e-6
    assert elapsed < 180.0
    report(4, f"{100 * hits / trials:.1f}% of 200 trials within 10 Hz at 0 dB, "
              f"noise-free residual {nf_resid:.1e} Hz, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. residual tracking convergence
# ---------------------------------------------------------------------------

def test_c05_tracking_convergence():
    t0 = time.time()
    cfg = ExperimentConfig(scenario="cfo", seed=0, trials=2, snr_db=(0.0,),
                           cfo=CfoParams(track_updates=16, track_trials=1000))
    result = run_cfo(cfg)
    tracking = result.tables[1]
    nmse = tracking.column("nmse")
    ratio = nmse[0] / nmse[15]
    elapsed = time.time() - t0
    assert nmse[15] < nmse[0]
    assert 8.0 <= ratio <= 32.0   # 1/p averaging within a factor of two
    assert elapsed < 120.0
    report(5, f"tracking NMSE p=1 {nmse[0]:.3f} -> p=16 {nmse[15]:.4f} "
              f"(ratio {ratio:.1f}, 1/p window [8, 32]), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. frame-timing probability curves
# ---------------------------------------------------------------------------

def test_c06_frame_timing():
    t0 = time.time()
    cfg = ExperimentConfig(scenario="frame-timing", seed=0, trials=10_000,
                           snr_db=(-6.0, -3.0, 0.0, 5.0, 10.0, 15.0),
                           frame_timing=FrameTimingParams(m_ft_grid=(128,)))
    result = run_frame_timing(cfg)
    table = result.tables[0]
    p_corr = table.column("p_correct_given_valid")
    p_valid = table.column("p_valid")
    trials = table.column("trials")
    # detection probability climbs through the transition region
    assert p_valid[0] < 0.95 and p_valid[-1] == 1.0
    for a, b in zip(p_valid, p_valid[1:]):
        assert b >= a - 2.0 * math.sqrt(max(a * (1 - a), 1e-12) / trials[0])
    # non-decreasing within binomial sampling error
    for a, b, n in zip(p_corr, p_corr[1:], trials):
        slack = 2.0 * math.sqrt(max(a * (1 - a), 1e-12) / n)
        assert b >= a - slack
    p_at_10db = p_corr[list(table.column("snr_db")).index(10.0)]
    assert p_at_10db >= 0.99
    # noise-free correlator peak is exactly m_ft - 2
    phy = PhyConfig(m_ft=128, gamma_th=0.0)
    ft = gen_ft(phy, 7)
    buf = np.zeros(3 * phy.m_ft, dtype=complex)
    buf[50:50 + phy.m_ft] = ft.symbols
    dec = detect_frame(SampleStream(buf), ft, phy)
    elapsed = time.time() - t0
    assert dec.peak == phy.m_ft - 2
    assert elapsed < 180.0
    report(6, f"P(correct|valid) non-decreasing {[round(p, 4) for p in p_corr]}, "
              f"P(valid) {[round(p, 4) for p in p_valid]}, {p_at_10db:.4f} at 10 dB, "
              f"noise-free peak {dec.peak:.0f} = m_ft - 2, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. gradient correctness
# ---------------------------------------------------------------------------

def test_c07_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(107)
    model = init_model(9)
    ds = RssDataset(x=rng.uniform(0, 1, (60, 2)), y=rng.uniform(0, 1, 60),
                    owner=0, epsilon_k=1.0)
    idx = np.arange(60)
    g = local_gradient(model, ds, idx)
    h = 1e-5
    fd = np.empty(N_PARAMS)
    for i in range(N_PARAMS):
        wp = model.w.copy(); wp[i] += h
        wm = model.w.copy(); wm[i] -= h
        fd[i] = (batch_sq_loss(MlpModel(wp), ds.x, ds.y)
                 - batch_sq_loss(MlpModel(wm), ds.x, ds.y)) / (2 * h)
    scale = np.maximum(np.maximum(np.abs(fd), np.abs(g)), 1e-3 * np.max(np.abs(fd)))
    rel = float(np.max(np.abs(g - fd) / scale))
    elapsed = time.time() - t0
    assert rel < 1e-6
    assert elapsed < 10.0
    report(7, f"backprop vs central differences: max rel err {rel:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8 and 9. training convergence and prediction quality (shared runs)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def train_runs():
    from airfed.experiments import run_train

    t0 = time.time()
    cfg = ExperimentConfig(scenario="train", seed=0, snr_db=(20.0,))
    impaired = run_train(cfg).summary
    ideal_cfg = ExperimentConfig(scenario="train", seed=0, snr_db=(math.inf,),
                                 channel=ChannelConfig(ideal=True))
    ideal = run_train(ideal_cfg).summary
    return impaired, ideal, time.time() - t0


def test_c08_training_convergence(train_runs):
    impaired, ideal, elapsed = train_runs
    ratio = impaired["final_loss_ratio"]
    assert abs(ratio - 1.0) <= 0.10
    assert ideal["max_round_divergence"] < 1e-9
    assert elapsed < 1800.0
    report(8, f"T=3000 final loss ratio {ratio:.4f} (|ratio-1| <= 0.10); ideal-mode max "
              f"round divergence {ideal['max_round_divergence']:.1e} < 1e-9; {elapsed:.0f}s total")


def test_c09_prediction_quality(train_runs):
    impaired, _, _ = train_runs
    med = impaired["heatmap_median_nmse"]
    assert med < 0.005
    report(9, f"heatmap median NMSE {med:.5f} < 0.005 "
              f"(evaluation grid excludes the site exclusion disks)")


# ---------------------------------------------------------------------------
# 10. manifest determinism
# ---------------------------------------------------------------------------

def test_c10_manifest_reproducibility(tmp_path):
    outputs = {}
    for scenario, extra in (
        ("frame-timing", dict(trials=100, frame_timing=FrameTimingParams(m_ft_grid=(64,)))),
        ("apb", dict(apb=ApbParams(rounds=5, payload_len=256))),
    ):
        a_dir, b_dir = tmp_path / f"{scenario}-a", tmp_path / f"{scenario}-b"
        cfg = ExperimentConfig(scenario=scenario, seed=4, snr_db=(10.0,),
                               out_dir=str(a_dir), **extra)
        run_scenario(cfg)
        replay = load_config(str(a_dir / "manifest.json"))
        run_scenario(replay, out_dir=b_dir)
        names = [p.name for p in a_dir.iterdir() if p.name != "manifest.json"]
        for name in names:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name
        outputs[scenario] = names
    report(10, f"byte-identical replays: {outputs}")
