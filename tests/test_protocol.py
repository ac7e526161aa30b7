"""Pre-equalization estimators and the two-stage handshake."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airfed.channel import (
    MultipathProfile,
    SampleStream,
    SensorLinkState,
    add_noise,
    apply_cfo,
    apply_multipath,
    apply_timing_offset,
    default_profile,
    draw_link_states,
    effective_channel_oracle,
    subcarrier_indices,
    unit_profile,
)
from airfed.config import ChannelConfig, ConfigError, PhyConfig
from airfed.fl import chunk_payload, payload_scale
from airfed.framing import assemble_frame, detect_frame, slice_frame
from airfed.ofdm import average_estimates, ls_channel_estimate, map_pam
from airfed.protocol import (
    HandshakeSession,
    PreEqState,
    ProtocolAbort,
    SyncLossError,
    _pad,
    estimate_phi0,
    estimate_residual_cfo_sensor,
    ft_search_len,
    integer_sample_drift,
    pre_equalize,
    run_handshake,
    rx_ofdm,
    slope_delay,
    tx_ofdm,
    update_phi,
    update_tau,
    wrap_pi,
)
from airfed.sync import needs_recorrection, start_tracking, track_residual_cfo

PHY = PhyConfig()
TS = PHY.t_s
N = PHY.n_fft


def ramp_channel(phi=0.0, tau_s=0.0, noise=0.0, rng=None):
    n = subcarrier_indices(N)
    h = np.exp(1j * (phi + 2 * np.pi * n * PHY.fs_hz * tau_s / N))
    if noise > 0:
        h = h + noise * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    return h


# ---------------------------------------------------------------------------
# phase intercept and slope delay
# ---------------------------------------------------------------------------

def test_phi0_flat_phase():
    for phi in (0.0, 0.8, -2.4):
        assert estimate_phi0(ramp_channel(phi=phi)) == pytest.approx(phi, abs=1e-12)


def test_phi0_slope_cancels_in_pairing():
    est = estimate_phi0(ramp_channel(phi=0.7, tau_s=5.5 * TS))
    assert wrap_pi(est - 0.7) == pytest.approx(0.0, abs=1e-9)


def test_tau0_flat_channel_zero():
    assert slope_delay(ramp_channel(phi=1.0), PHY) == pytest.approx(0.0, abs=1e-15)


def test_tau0_recovers_fractional_delay():
    est = slope_delay(ramp_channel(tau_s=1.5 * TS), PHY)
    assert est == pytest.approx(1.5 * TS, abs=1e-9 * TS)


def test_tau0_invariant_to_global_phase():
    a = slope_delay(ramp_channel(phi=0.0, tau_s=3 * TS), PHY)
    b = slope_delay(ramp_channel(phi=2.1, tau_s=3 * TS), PHY)
    assert a == pytest.approx(b, abs=1e-12 * TS)


@settings(deadline=None, max_examples=30)
@given(st.floats(-3.0, 3.0), st.floats(-12.0, 12.0))
def test_phi_tau_joint_recovery(phi, tau_samples):
    h = ramp_channel(phi=phi, tau_s=tau_samples * TS)
    assert wrap_pi(estimate_phi0(h) - phi) == pytest.approx(0.0, abs=1e-9)
    assert slope_delay(h, PHY) == pytest.approx(tau_samples * TS, abs=1e-9 * TS)


# ---------------------------------------------------------------------------
# residual CFO from consecutive downlink estimates
# ---------------------------------------------------------------------------

def test_residual_cfo_identical_estimates():
    h = ramp_channel(tau_s=2 * TS)
    assert estimate_residual_cfo_sensor(h, h, 1e-3, PHY) == pytest.approx(0.0, abs=1e-12)


def test_residual_cfo_constructed_rotation():
    h0 = ramp_channel(phi=0.3, tau_s=-4 * TS)
    dt = 1e-3
    h1 = h0 * np.exp(2j * np.pi * 50.0 * dt)
    est = estimate_residual_cfo_sensor(h0, h1, dt, PHY)
    assert est == pytest.approx(50.0, abs=1e-9)


def test_residual_cfo_unbiased_under_noise():
    rng = np.random.default_rng(0)
    dt, f_true = 1e-3, 30.0
    shots = []
    for _ in range(1000):
        h0 = ramp_channel(noise=0.1, rng=rng)
        h1 = ramp_channel(noise=0.1, rng=rng) * np.exp(2j * np.pi * f_true * dt)
        shots.append(estimate_residual_cfo_sensor(h0, h1, dt, PHY))
    shots = np.array(shots)
    assert abs(np.mean(shots) - f_true) < 3 * np.std(shots) / np.sqrt(len(shots))


def test_residual_cfo_with_drift_deramp():
    # one-sample slope change would null the carrier sum unless removed
    h0 = ramp_channel(tau_s=0.0)
    dt = 1e-3
    n = subcarrier_indices(N)
    h1 = h0 * np.exp(2j * np.pi * 40.0 * dt) * np.exp(2j * np.pi * n / N)
    est = estimate_residual_cfo_sensor(h0, h1, dt, PHY, drift_samples=1)
    assert est == pytest.approx(40.0, abs=1e-9)


# ---------------------------------------------------------------------------
# per-round updates
# ---------------------------------------------------------------------------

def test_update_phi_zero_cfo_is_identity():
    assert update_phi(0.4, 0.0, 1e-3, 1e-3) == pytest.approx(0.4)


def test_update_phi_known_decrement():
    assert update_phi(0.0, 100.0, 0.5e-3, 0.5e-3) == pytest.approx(-0.2 * np.pi)


@settings(deadline=None, max_examples=40)
@given(st.floats(-np.pi, np.pi), st.floats(-200, 200), st.floats(1e-4, 2e-3), st.floats(1e-4, 2e-3))
def test_update_phi_composes_additively(phi, dfr, dt1, dt2):
    a = update_phi(update_phi(phi, dfr, dt1, dt2), dfr, dt2, dt1)
    b = update_phi(phi, dfr, dt1 + dt2, dt2 + dt1)
    assert wrap_pi(a - b) == pytest.approx(0.0, abs=1e-9)


def test_update_tau_identical_channels():
    h = ramp_channel(tau_s=3 * TS)
    assert update_tau(2 * TS, integer_sample_drift(h, h, PHY), PHY) == pytest.approx(2 * TS)


def test_update_tau_one_sample_dl_shift():
    # downlink slope growing by one sample means the uplink-downlink delay
    # difference shrank by one sample
    h0 = ramp_channel(tau_s=0.0)
    n = subcarrier_indices(N)
    h_up = h0 * np.exp(2j * np.pi * n / N)
    assert update_tau(0.0, integer_sample_drift(h0, h_up, PHY), PHY) == pytest.approx(-TS)
    h_dn = h0 * np.exp(-2j * np.pi * n / N)
    assert update_tau(0.0, integer_sample_drift(h0, h_dn, PHY), PHY) == pytest.approx(TS)


def test_update_tau_fractional_shift_rounds_to_zero():
    h0 = ramp_channel(tau_s=0.0)
    h1 = ramp_channel(tau_s=0.4 * TS)
    assert integer_sample_drift(h0, h1, PHY) == 0
    assert update_tau(5 * TS, integer_sample_drift(h0, h1, PHY), PHY) == pytest.approx(5 * TS)


def test_update_tau_sync_loss_on_large_drift():
    h0 = ramp_channel(tau_s=0.0)
    h1 = ramp_channel(tau_s=2 * TS)
    with pytest.raises(SyncLossError):
        update_tau(0.0, integer_sample_drift(h0, h1, PHY), PHY)


def test_drift_detection_with_multipath_and_noise():
    rng = np.random.default_rng(1)
    prof = default_profile(PHY, ChannelConfig(), rng)
    link = SensorLinkState(profile=prof)
    base = effective_channel_oracle(link, "DL", 0.0, 0.0, PHY)
    n = subcarrier_indices(N)
    for true_drift in (-1, 0, 1):
        hits = 0
        for _ in range(200):
            e0 = base + 0.07 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
            e1 = base * np.exp(2j * np.pi * n * true_drift / N)
            e1 = e1 + 0.07 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
            d = integer_sample_drift(e0, e1, PHY)
            hits += int(d == true_drift)
        assert hits == 200


# ---------------------------------------------------------------------------
# pre-equalization
# ---------------------------------------------------------------------------

def test_pre_equalize_identity():
    x = np.ones(N, dtype=complex)
    st_ = PreEqState()
    res = pre_equalize(x, st_, np.ones(N), PHY)
    np.testing.assert_allclose(res.symbol, x)
    assert not res.cap_exceeded and res.power_amplification == pytest.approx(1.0)


def test_pre_equalize_inverts_effective_uplink():
    # with true phase, delay, and downlink channel, the uplink output is the
    # intended symbol exactly
    rng = np.random.default_rng(2)
    link = SensorLinkState(
        profile=default_profile(PHY, ChannelConfig(), rng),
        cfo_hz=0.0, to_dl_s=-3 * TS, to_ul_s=5 * TS,
    )
    fr = 25.0
    t_dl, t_ul = 0.010, 0.011
    h_dl = effective_channel_oracle(link, "DL", t_dl, fr, PHY)
    h_ul = effective_channel_oracle(link, "UL", t_ul, fr, PHY)
    phi_true = -2 * np.pi * fr * (t_dl + t_ul)
    tau_true = link.to_ul_s - link.to_dl_s
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    st_ = PreEqState(phi_hat=wrap_pi(phi_true), tau_hat=tau_true)
    res = pre_equalize(x, st_, h_dl, PHY)
    received = h_ul * res.symbol
    np.testing.assert_allclose(received, x, atol=1e-9)


def test_pre_equalize_two_sensor_superposition():
    rng = np.random.default_rng(3)
    total = np.zeros(N, dtype=complex)
    want = np.zeros(N, dtype=complex)
    for k in range(2):
        link = SensorLinkState(
            profile=default_profile(PHY, ChannelConfig(), rng),
            to_dl_s=(k - 1) * TS, to_ul_s=(2 * k) * TS,
        )
        fr = 10.0 * (k + 1)
        t_dl, t_ul = 0.02, 0.0212
        h_dl = effective_channel_oracle(link, "DL", t_dl, fr, PHY)
        h_ul = effective_channel_oracle(link, "UL", t_ul, fr, PHY)
        st_ = PreEqState(phi_hat=wrap_pi(-2 * np.pi * fr * (t_dl + t_ul)),
                         tau_hat=link.to_ul_s - link.to_dl_s)
        x = rng.uniform(-1, 1, N) + 0j
        res = pre_equalize(x, st_, h_dl, PHY)
        total += h_ul * res.symbol
        want += x
    np.testing.assert_allclose(total, want, atol=1e-9)


def test_pre_equalize_flags_deep_fade_and_power_cap():
    h = np.ones(N, dtype=complex)
    h[3] = 1e-9          # deep fade carrier
    res = pre_equalize(np.ones(N, dtype=complex), PreEqState(), h, PHY)
    assert res.flagged[3] and not res.flagged[4]
    h2 = np.full(N, 0.1, dtype=complex)  # uniform 20 dB amplification
    res2 = pre_equalize(np.ones(N, dtype=complex), PreEqState(), h2, PHY)
    assert res2.cap_exceeded


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_stacked_pre_equalize_equals_per_symbol():
    rng = np.random.default_rng(7)
    h = np.exp(1j * rng.uniform(-np.pi, np.pi, N))
    h[3] = 1e-9                 # a deep fade: every row is flagged
    stack = rng.standard_normal((4, N)) + 1j * rng.standard_normal((4, N))
    stack[1, 3] = 0.0           # row 1 leaves the faded carrier empty, so it stays under the cap
    stack[2] = 0.0              # a silent row has no amplification
    st_ = PreEqState(phi_hat=0.7, tau_hat=3 * TS)
    res = pre_equalize(stack, st_, h, PHY)
    rows = [pre_equalize(row, st_, h, PHY) for row in stack]
    tx = tx_ofdm(res.symbol, PHY).samples.reshape(len(stack), -1)
    for i, one in enumerate(rows):
        assert np.array_equal(bits(res.symbol[i]), bits(one.symbol))
        assert bits(res.power_amplification[i]) == bits(one.power_amplification)
        assert np.array_equal(bits(tx[i]), bits(tx_ofdm(one.symbol, PHY).samples))
    assert res.flags() == [f for one in rows for f in one.flags()] == [
        "power_cap", "deep_fade", "deep_fade", "deep_fade", "power_cap", "deep_fade"]


def reference_copy(session, padded, k, lo_corr_hz, frame_len):
    """One sensor's received copy through the stream-by-stream channel operators."""
    link, phy = session.air.links[k], session.phy
    y = apply_multipath(padded, link.profile, phy)
    y = apply_timing_offset(y, link.to_dl_s, phy)
    y = apply_cfo(y, link.cfo_hz - lo_corr_hz, phy)
    p_ref = float(np.mean(np.abs(y.samples[phy.guard : phy.guard + frame_len]) ** 2))
    return add_noise(y, p_ref, session.air.snr_db, session.rng).samples


def reference_round_dl(node, st, rx, t0_s, layout, t_ul_next):
    """One sensor's downlink step, pilot by pilot, with the one-sensor estimators."""
    phy = node.phy
    dec = detect_frame(SampleStream(rx, t0_s), node.ft, phy)
    t_dl = t0_s + dec.m0 * phy.t_s
    parts = slice_frame(rx, layout, dec.m0 - phy.rx_backoff)
    pilots = [rx_ofdm(parts[f"pilot{j}"], phy) for j in range(node.plan.k_sensors)]
    h_now = average_estimates([ls_channel_estimate(p, node.plan.pilot_symbols[j])
                               for j, p in enumerate(pilots)])
    tracking = st.tracking
    if st.h_dl_prev is None:
        tracking = start_tracking(tracking, pilots[0], t_dl)
    else:
        dt_dl, dt_ul = t_dl - st.t_dl_prev, t_ul_next - st.t_ul_prev
        drift = integer_sample_drift(st.h_dl_prev, h_now, phy)
        dfr = estimate_residual_cfo_sensor(st.h_dl_prev, h_now, dt_dl, phy, drift)
        st = replace(st, phi_hat=update_phi(st.phi_hat, dfr, dt_dl, dt_ul),
                     tau_hat=update_tau(st.tau_hat, drift, phy), dfr_hat=dfr)
        tracking = track_residual_cfo(tracking, pilots[0], t_dl)
        if needs_recorrection(tracking, 2.0 * dt_dl):
            st = replace(st, recorrection=True)
    return replace(st, h_dl_prev=h_now, t_dl_prev=t_dl, t_ul_prev=t_ul_next, tracking=tracking), pilots[0]


def assert_states_equal(a, b):
    for name in ("phi_hat", "tau_hat", "dfr_hat", "t_dl_prev", "t_ul_prev", "lo_corr_hz", "recorrection"):
        assert bits(np.float64(getattr(a, name))) == bits(np.float64(getattr(b, name))), name
    assert np.array_equal(bits(a.h_dl_prev), bits(b.h_dl_prev))
    ta, tb = a.tracking, b.tracking
    assert (ta.p_count, bits(np.float64(ta.residual_hz)), ta.last_t_s) == \
        (tb.p_count, bits(np.float64(tb.residual_hz)), tb.last_t_s)
    assert np.array_equal(bits(ta.prev_pilot), bits(tb.prev_pilot))


@pytest.mark.parametrize("k_sensors", [1, 2, 3, 5, 16])
def test_stacked_downlink_estimate_equals_per_pilot_reference(k_sensors):
    # every step of a round done on K rows at once is bit for bit the
    # sensor-by-sensor computation: received copies, estimates, next states
    # and uplink frames
    phy = PhyConfig(m_cfo_init=20_000)
    links = draw_link_states(phy, ChannelConfig(), k_sensors, np.random.default_rng(k_sensors))
    session = HandshakeSession(links, phy, snr_db=20.0, seed=k_sensors, payload_len=600, round_period_s=2e-3)
    session.initialize()
    states = session.states
    lo = [st.lo_corr_hz for st in states]
    frame_len = len(session.dl_frame)
    padded = _pad(session.dl_frame, phy, 0.0107)

    start = session.rng.bit_generator.state
    rows = session.air.broadcast(padded, lo, frame_len)
    end = session.rng.bit_generator.state
    session.rng.bit_generator.state = start
    singles = [session.air.downlink(padded, k, lo[k], frame_len).samples for k in range(k_sensors)]
    assert session.rng.bit_generator.state == end
    session.rng.bit_generator.state = start
    refs = [reference_copy(session, padded, k, lo[k], frame_len) for k in range(k_sensors)]
    assert session.rng.bit_generator.state == end
    for row, single, ref in zip(rows, singles, refs):
        assert np.array_equal(bits(row), bits(single))
        assert np.array_equal(bits(row), bits(ref))

    t_ul = 0.0107 + session.ul_offset_s
    nodes = session.sensors
    new, _ = nodes.process_round_dl(states, rows, padded.t0_s, session.dl_layout, t_ul)
    _, _, raw0, _ = nodes.receive_dl_digital(rows, padded.t0_s, session.dl_layout)
    for k in range(k_sensors):
        want, raw_want = reference_round_dl(nodes, states[k], rows[k], padded.t0_s, session.dl_layout, t_ul)
        assert_states_equal(new[k], want)
        assert np.array_equal(bits(raw0[k]), bits(raw_want))

    pays = np.random.default_rng(1).uniform(-1, 1, (k_sensors, 600))
    scale = payload_scale(pays, phy.pam_bound, 0.99)
    assert scale == phy.pam_bound / max(float(np.quantile(np.abs(p), 0.99)) for p in pays)
    chunks, _ = chunk_payload(pays, phy.n_fft, scale)
    frames, flags = nodes.build_ota_frames(new, session.ul_layout, chunks)
    for k, st in enumerate(new):
        one_chunks, _ = chunk_payload(pays[k], phy.n_fft, scale)
        stack = np.concatenate([session.common[None], map_pam(one_chunks, phy)])
        res = pre_equalize(stack, st, st.h_dl_prev, phy)
        tx = tx_ofdm(res.symbol, phy).samples.reshape(len(stack), -1)
        parts = {"ft": session.ft.symbols.astype(complex), "pilot": tx[0]}
        parts.update({f"data{i}": row for i, row in enumerate(tx[1:])})
        assert np.array_equal(bits(frames[k]), bits(assemble_frame(session.ul_layout, parts).samples))
        assert flags[k] == res.flags()


def test_broadcast_rows_of_different_lengths_equal_the_one_sensor_copies():
    # links whose last taps differ give copies of different lengths: each row
    # holds its own copy, zero after its end, and draws only its own noise
    phy = PhyConfig(m_cfo_init=20_000)
    profiles = (unit_profile(), default_profile(phy, ChannelConfig(), np.random.default_rng(4)),
                MultipathProfile(taps=((0.8, 0.0), (0.5j, (phy.cp_len - 1) * phy.t_s))))
    links = [SensorLinkState(profile=p, cfo_hz=f, to_dl_s=to * phy.t_s)
             for p, f, to in zip(profiles, (-700.0, 0.0, 1300.0), (3, -5, 0))]
    session = HandshakeSession(links, phy, snr_db=15.0, seed=2, payload_len=256)
    padded = _pad(session.dl_frame, phy, 0.002)
    lo = [25.0, 0.0, -40.0]
    start = session.rng.bit_generator.state
    rows = session.air.broadcast(padded, lo, len(session.dl_frame))
    session.rng.bit_generator.state = start
    for k, row in enumerate(rows):
        ref = reference_copy(session, padded, k, lo[k], len(session.dl_frame))
        assert np.array_equal(bits(row[: len(ref)]), bits(ref))
        assert not np.any(row[len(ref) :])


@pytest.mark.parametrize("snr_db", [20.0, math.inf])
def test_air_interface_checks_each_received_copy_for_finite_samples(snr_db):
    links = [SensorLinkState(profile=unit_profile()), SensorLinkState(profile=unit_profile(), cfo_hz=math.nan)]
    session = HandshakeSession(links, PHY, snr_db=snr_db, seed=0, payload_len=256)
    padded = _pad(session.dl_frame, PHY, 0.0)
    session.air.downlink(padded, 0, 0.0, len(session.dl_frame))  # the finite link alone passes
    with pytest.raises(ValueError, match="non-finite"):
        session.air.broadcast(padded, [0.0, 0.0], len(session.dl_frame))


@pytest.mark.parametrize("phy", [PhyConfig(m_cfo_init=20_000),
                                 PhyConfig(m_cfo_init=20_000, cp_len=16, guard=40)])
def test_ft_search_window_finds_what_the_whole_copy_search_finds(phy):
    # the window covers guard + |TO| + tap delay + m_ft whatever the link, and
    # a guard on top; over links at the extremes the windowed search and the
    # whole-copy search take the same decision
    reach = phy.guard + 2 * (phy.cp_len - 1) + phy.m_ft   # one past the last FT sample of any path
    assert reach <= ft_search_len(phy) == 2 * phy.guard + 2 * phy.cp_len + phy.m_ft
    bound = ChannelConfig().to_bound_samples
    late = MultipathProfile(taps=((0.3, 0.0), (0.9j, (phy.cp_len - 1) * phy.t_s)))
    links = []
    for to in (-bound, bound, -(phy.cp_len - 1), phy.cp_len - 1):
        drawn = default_profile(phy, ChannelConfig(), np.random.default_rng(to + 99))
        for profile in (unit_profile(), drawn, late):
            links.append(SensorLinkState(profile=profile, cfo_hz=1500.0, to_dl_s=to * phy.t_s))
    for snr_db in (20.0, math.inf):
        session = HandshakeSession(links, phy, snr_db=snr_db, seed=3, payload_len=256, round_period_s=5e-3)
        padded = _pad(session.dl_frame, phy, 0.0)
        rows = session.air.broadcast(padded, [0.0] * len(links), len(session.dl_frame))
        for row in rows:
            whole = detect_frame(SampleStream(row), session.ft, phy)
            head = detect_frame(SampleStream(row[: ft_search_len(phy)]), session.ft, phy)
            assert head == whole and whole.valid


def test_ota_receiver_counts_carriers_whose_common_pilot_faded():
    # one common-pilot carrier arrives at zero: its phase cannot be read, so
    # that carrier is unreliable in each of the frame's two data symbols
    session = HandshakeSession([SensorLinkState(profile=unit_profile())], PHY, snr_db=math.inf,
                               seed=0, payload_len=2 * N)
    pilot = session.common.copy()
    pilot[7] = 0.0
    rows = tx_ofdm(np.concatenate([pilot[None], map_pam(np.zeros((2, N)), PHY)]), PHY).samples
    rows = rows.reshape(3, -1)
    frame = assemble_frame(session.ul_layout, {"ft": session.ft.symbols.astype(complex),
                                               "pilot": rows[0], "data0": rows[1], "data1": rows[2]})
    rx = SampleStream(np.pad(frame.samples, PHY.guard))
    _, diag = session.ap.receive_ota(rx, session.ul_layout, 2 * N, 1.0)
    assert diag["unreliable_carriers"] == 2


# ---------------------------------------------------------------------------
# end-to-end handshake
# ---------------------------------------------------------------------------

def test_handshake_ideal_single_sensor_exact():
    links = [SensorLinkState(profile=unit_profile())]
    payload = np.linspace(-0.9, 0.9, 256)
    results = run_handshake(links, PHY, rounds=2, payload_source=lambda i: [payload],
                            snr_db=math.inf, seed=0, payload_len=256)
    for r in results:
        np.testing.assert_allclose(r.aggregate, payload, atol=1e-12)


def test_handshake_impaired_noise_free_exact():
    rng = np.random.default_rng(5)
    links = draw_link_states(PHY, ChannelConfig(), 2, rng)
    pr = np.random.default_rng(6)
    payloads = [[pr.uniform(-1, 1, 512) for _ in range(2)] for _ in range(3)]
    results = run_handshake(links, PHY, rounds=3, payload_source=lambda i: payloads[i - 1],
                            snr_db=math.inf, seed=1, payload_len=512)
    for r, pays in zip(results, payloads):
        np.testing.assert_allclose(r.aggregate, pays[0] + pays[1], atol=1e-9)
        assert r.nmse_d < 1e-18


def test_handshake_stage1_estimates_match_ground_truth():
    # noise-free: phi_0 and tau_0 recovered at the AP equal the values implied
    # by the true impairments and the protocol timestamps
    rng = np.random.default_rng(7)
    links = draw_link_states(PHY, ChannelConfig(), 2, rng)
    session = HandshakeSession(links, PHY, snr_db=math.inf, seed=3, payload_len=256)
    session.initialize()
    for k, link in enumerate(links):
        tau_est = session.states[k].tau_hat
        assert tau_est == pytest.approx(link.to_ul_s, abs=1e-9 * TS)


def test_handshake_noisy_nmse_small_and_flagless():
    rng = np.random.default_rng(8)
    links = draw_link_states(PHY, ChannelConfig(), 2, rng)
    session = HandshakeSession(links, PHY, snr_db=20.0, seed=4, payload_len=512)
    session.initialize()
    pr = np.random.default_rng(9)
    for _ in range(20):
        r = session.run_round([pr.uniform(-1, 1, 512) for _ in range(2)])
        assert r.nmse_d < 0.05


def test_handshake_without_compensation_degrades():
    rng = np.random.default_rng(10)
    links = draw_link_states(PHY, ChannelConfig(), 2, rng)
    pr = np.random.default_rng(11)
    payloads = [[pr.uniform(-1, 1, 512) for _ in range(2)] for _ in range(10)]
    on = run_handshake(links, PHY, rounds=10, payload_source=lambda i: payloads[i - 1],
                       snr_db=20.0, seed=5, payload_len=512)
    off = run_handshake(links, PHY, rounds=10, payload_source=lambda i: payloads[i - 1],
                        snr_db=20.0, seed=5, payload_len=512, compensation=False)
    assert all(b.nmse_d > a.nmse_d for a, b in zip(on, off))


def test_handshake_timer_bookkeeping():
    rng = np.random.default_rng(12)
    links = draw_link_states(PHY, ChannelConfig(), 2, rng)
    session = HandshakeSession(links, PHY, snr_db=math.inf, seed=6, payload_len=256,
                               round_period_s=1e-3)
    session.initialize()
    stamps = []
    pr = np.random.default_rng(13)
    for _ in range(3):
        session.run_round([pr.uniform(-1, 1, 256) for _ in range(2)])
        stamps.append(session.states[0].t_dl_prev)
    # per-round downlink stamps advance by exactly the configured period
    assert stamps[1] - stamps[0] == pytest.approx(1e-3, abs=1e-12)
    assert stamps[2] - stamps[1] == pytest.approx(1e-3, abs=1e-12)


def test_retry_discards_the_failed_attempt():
    # sensor 1 misses the first round's downlink after sensor 0 has already
    # updated; the retry must start from the state both had before the round
    rng = np.random.default_rng(16)
    links = draw_link_states(PHY, ChannelConfig(), 2, rng)
    session = HandshakeSession(links, PHY, snr_db=math.inf, seed=10, payload_len=256)
    session.initialize()
    broadcast = session.air.broadcast
    dropped = []

    def drop_sensor1_once(tx, lo_corrs, frame_len, sensors=None):
        rows = broadcast(tx, lo_corrs, frame_len, sensors)
        if not dropped:
            dropped.append(True)
            rows[1] = 0.0
        return rows

    session.air.broadcast = drop_sensor1_once
    p_before = session.states[0].tracking.p_count
    pr = np.random.default_rng(17)
    pays = [pr.uniform(-1, 1, 256) for _ in range(2)]
    r = session.run_round(pays)
    assert dropped and r.retried
    assert r.nmse_d < 1e-18
    assert session.states[0].tracking.p_count == p_before + 1


def test_aborted_round_leaves_every_estimate_as_it_was():
    # sensor 1 misses the first round's downlink on both attempts, each time
    # after sensor 0 has updated; the abort must keep the set-up's states,
    # and the next round must run from them as if round 1 never happened
    rng = np.random.default_rng(16)
    links = draw_link_states(PHY, ChannelConfig(), 2, rng)
    session = HandshakeSession(links, PHY, snr_db=math.inf, seed=10, payload_len=256)
    session.initialize()
    broadcast = session.air.broadcast

    def drop_sensor1(tx, lo_corrs, frame_len, sensors=None):
        rows = broadcast(tx, lo_corrs, frame_len, sensors)
        rows[1] = 0.0
        return rows

    session.air.broadcast = drop_sensor1
    before = session.states
    pr = np.random.default_rng(17)
    missed = "sensor 1: downlink frame not detected"
    with pytest.raises(ProtocolAbort, match=f"^round 1 failed twice: {missed}; then {missed}$"):
        session.run_round([pr.uniform(-1, 1, 256) for _ in range(2)])
    assert session.states is before
    del session.air.broadcast
    r = session.run_round([pr.uniform(-1, 1, 256) for _ in range(2)])
    assert r.index == 2 and not r.retried
    assert r.nmse_d < 1e-18


def test_handshake_recorrection_recovers_large_residual():
    # sabotage the coarse correction so the residual rides past the tracking
    # ambiguity bound; the guard must request a fresh correction and recover
    rng = np.random.default_rng(14)
    links = [replace(link, cfo_hz=600.0) for link in draw_link_states(PHY, ChannelConfig(), 2, rng)]
    session = HandshakeSession(links, PHY, snr_db=math.inf, seed=8, payload_len=256)
    session.initialize()
    # undo the coarse correction: residual 600 Hz
    session.states = tuple(replace(st, lo_corr_hz=0.0) for st in session.states)
    pr = np.random.default_rng(15)
    results = []
    for _ in range(4):
        try:
            results.append(session.run_round([pr.uniform(-1, 1, 256) for _ in range(2)]))
        except ProtocolAbort:
            break
    assert session.recorrections >= 1
    assert results[-1].nmse_d < 1e-9  # clean again after the re-correction


def test_failed_recorrection_aborts_naming_stage_and_sensor():
    phy = PhyConfig(m_cfo_init=20_000)
    links = draw_link_states(phy, ChannelConfig(), 2, np.random.default_rng(19))
    session = HandshakeSession(links, phy, snr_db=math.inf, seed=12, payload_len=256)
    session.initialize()
    session.air.downlink = lambda tx, k, lo_corr_hz, frame_len: SampleStream(
        np.zeros(len(tx), dtype=complex), tx.t0_s)
    session.states = (session.states[0], replace(session.states[1], recorrection=True))
    with pytest.raises(ProtocolAbort, match="^coarse re-correction before round 1 failed: "
                                            "sensor 0: preamble not detected$"):
        session.run_round([np.zeros(256), np.zeros(256)])


def test_initialize_peak_memory_is_flat_in_sensor_count():
    # A received copy of the init preamble is m_cfo_init samples long, and
    # every other set-up buffer is a few thousand samples, so the peak counts
    # how many copies are alive at once.  That count, not the copy size, is
    # what depends on K, so a 200k-sample preamble shows the same law as the
    # 10^6-sample default in a fifth of the time.  Holding all K copies gives
    # a K=8 / K=2 ratio near 1.9.
    phy = PhyConfig(m_cfo_init=200_000)
    peaks = {}
    for k_sensors in (2, 8):
        links = draw_link_states(phy, ChannelConfig(), k_sensors, np.random.default_rng(18))
        session = HandshakeSession(links, phy, snr_db=20.0, seed=11, payload_len=256)
        tracemalloc.start()
        try:
            session.initialize()
            peaks[k_sensors] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] <= 1.1 * peaks[2], peaks


def test_handshake_requires_full_occupancy():
    # the aggregation puts payload on every subcarrier; the config admits no guard carriers
    with pytest.raises(ConfigError, match="null_dc must be false"):
        PhyConfig(null_dc=True)
    with pytest.raises(ConfigError, match="edge_guards must be 0"):
        PhyConfig(edge_guards=2)


def test_handshake_trace_records_events():
    links = [SensorLinkState(profile=unit_profile())]
    session = HandshakeSession(links, PHY, snr_db=math.inf, seed=9, payload_len=256)
    session.initialize()
    session.run_round([np.zeros(256) + 0.5])
    kinds = {e["kind"] for e in session.trace}
    assert {"DlTrigger", "CtrlBroadcast", "UlPreEqAck", "DlOtaRequest", "UlOtaFrame"} <= kinds
