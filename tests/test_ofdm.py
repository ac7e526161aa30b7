"""OFDM transforms, constellation mapping, LS estimation, equalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airfed.channel import (
    MultipathProfile,
    SensorLinkState,
    add_awgn,
    apply_multipath,
    default_profile,
    effective_channel_oracle,
)
from airfed.config import ChannelConfig, PhyConfig
from airfed.ofdm import (
    average_estimates,
    demap_pam,
    demap_qam,
    equalize,
    ls_channel_estimate,
    make_common_pilot,
    make_pilot_plan,
    map_pam,
    map_qam,
    ofdm_demodulate,
    ofdm_modulate,
    payload_fraction,
    qam_symbol_error_count,
)

PHY = PhyConfig()
TS = PHY.t_s


def rand_freq(rng):
    return rng.standard_normal(PHY.n_fft) + 1j * rng.standard_normal(PHY.n_fft)


# ---------------------------------------------------------------------------
# modulate / demodulate
# ---------------------------------------------------------------------------

def test_modulate_impulse_gives_constant_body():
    freq = np.zeros(PHY.n_fft, dtype=complex)
    freq[PHY.n_fft // 2] = 1.0  # subcarrier n = 0
    x = ofdm_modulate(freq, PHY)
    body = x.samples[PHY.cp_len :]
    np.testing.assert_allclose(body, body[0] * np.ones(PHY.n_fft), atol=1e-15)
    assert len(x) == PHY.n_fft + PHY.cp_len


def test_modulate_demodulate_round_trip():
    rng = np.random.default_rng(0)
    X = rand_freq(rng)
    Y = ofdm_demodulate(ofdm_modulate(X, PHY), PHY)
    np.testing.assert_allclose(Y, X, atol=1e-12)


def test_parseval_convention():
    rng = np.random.default_rng(1)
    X = rand_freq(rng)
    x = ofdm_modulate(X, PHY)
    body = x.samples[PHY.cp_len :]
    assert np.sum(np.abs(body) ** 2) == pytest.approx(np.sum(np.abs(X) ** 2) / PHY.n_fft)


def test_demodulate_flat_gain():
    rng = np.random.default_rng(2)
    X = rand_freq(rng)
    x = ofdm_modulate(X, PHY)
    g = 0.3 - 1.1j
    Y = ofdm_demodulate(x.samples * g, PHY)
    np.testing.assert_allclose(Y, g * X, atol=1e-12)


def test_demodulate_two_tap_channel_matches_oracle():
    rng = np.random.default_rng(3)
    X = rand_freq(rng)
    prof = MultipathProfile(taps=((0.9, 0.0), (0.35j, 3 * TS)))
    link = SensorLinkState(profile=prof)
    rx = apply_multipath(ofdm_modulate(X, PHY), prof, PHY)
    got = ofdm_demodulate(rx, PHY)
    want = effective_channel_oracle(link, "DL", 0.0, 0.0, PHY) * X
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_demodulate_rejects_short_input():
    with pytest.raises(ValueError):
        ofdm_demodulate(np.ones(PHY.sym_len - 1, dtype=complex), PHY)


def test_payload_fraction_bookkeeping():
    assert payload_fraction(PHY) == pytest.approx(224 / 256)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_circular_convolution_property(seed):
    # any in-prefix delay spread acts as per-subcarrier multiplication
    rng = np.random.default_rng(seed)
    X = rand_freq(rng)
    prof = default_profile(PHY, ChannelConfig(), rng)
    link = SensorLinkState(profile=prof)
    rx = apply_multipath(ofdm_modulate(X, PHY), prof, PHY)
    got = ofdm_demodulate(rx, PHY)
    want = effective_channel_oracle(link, "DL", 0.0, 0.0, PHY) * X
    np.testing.assert_allclose(got, want, atol=1e-9)


# ---------------------------------------------------------------------------
# QAM mapping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [4, 16])
def test_qam_round_trip(order):
    rng = np.random.default_rng(4)
    nbits = PHY.n_fft * (2 if order == 4 else 4)
    bits = rng.integers(0, 2, size=nbits)
    sym = map_qam(bits, order, PHY)
    np.testing.assert_array_equal(demap_qam(sym, order), bits)


def test_qam16_unit_average_power():
    # all 16 points appear once over 16 carriers worth of exhaustive bits
    bits = np.array([[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)]).ravel()
    bits = np.tile(bits, PHY.n_fft // 16)
    sym = map_qam(bits, 16, PHY)
    assert np.mean(np.abs(sym) ** 2) == pytest.approx(1.0)
    assert len(set(np.round(sym[:16], 9))) == 16


def test_qam_rejects_bit_count_mismatch():
    with pytest.raises(ValueError):
        map_qam(np.zeros(10, dtype=int), 4, PHY)


def test_qam_flat_channel_ls_loop_zero_errors():
    rng = np.random.default_rng(5)
    prof = default_profile(PHY, ChannelConfig(), rng)
    pilot = make_pilot_plan(PHY, 1, seed=1).pilot_symbols[0]
    bits = rng.integers(0, 2, size=4 * PHY.n_fft)
    data = map_qam(bits, 16, PHY)
    rx_pilot = ofdm_demodulate(apply_multipath(ofdm_modulate(pilot, PHY), prof, PHY), PHY)
    rx_data = ofdm_demodulate(apply_multipath(ofdm_modulate(data, PHY), prof, PHY), PHY)
    est = ls_channel_estimate(rx_pilot, pilot)
    eq, reliable = equalize(rx_data, est, PHY)
    assert reliable.all()
    np.testing.assert_array_equal(demap_qam(eq, 16), bits)


# ---------------------------------------------------------------------------
# PAM mapping
# ---------------------------------------------------------------------------

def test_pam_round_trip():
    rng = np.random.default_rng(6)
    v = rng.uniform(-1, 1, PHY.n_fft)
    np.testing.assert_allclose(demap_pam(map_pam(v, PHY), PHY), v, atol=1e-15)


def test_pam_zero_vector():
    sym = map_pam(np.zeros(PHY.n_fft), PHY)
    np.testing.assert_array_equal(sym, np.zeros(PHY.n_fft))


def test_pam_linearity_of_superposition():
    rng = np.random.default_rng(7)
    va = rng.uniform(-0.5, 0.5, PHY.n_fft)
    vb = rng.uniform(-0.5, 0.5, PHY.n_fft)
    summed = map_pam(va, PHY) + map_pam(vb, PHY)
    np.testing.assert_allclose(demap_pam(summed, PHY), va + vb, atol=1e-14)


def test_pam_rejects_out_of_range():
    v = np.zeros(PHY.n_fft)
    v[0] = 1.5
    with pytest.raises(ValueError):
        map_pam(v, PHY)


# ---------------------------------------------------------------------------
# LS estimation and equalization
# ---------------------------------------------------------------------------

def test_ls_identity_channel():
    pilot = make_common_pilot(PHY, 0)
    est = ls_channel_estimate(pilot, pilot)
    np.testing.assert_allclose(est, np.ones(PHY.n_fft), atol=1e-14)


def test_ls_exact_noise_free():
    rng = np.random.default_rng(8)
    pilot = make_common_pilot(PHY, 1)
    h = rand_freq(rng)
    rx = h * pilot
    est = ls_channel_estimate(rx, pilot)
    np.testing.assert_allclose(est, h, atol=1e-12)


def test_ls_rejects_zero_pilot_carrier():
    pilot = make_common_pilot(PHY, 2)
    bad = pilot.copy()
    bad[10] = 0.0
    with pytest.raises(ValueError):
        ls_channel_estimate(pilot, bad)


def test_ls_noise_variance_matches_theory():
    # per-carrier estimate NMSE ~ 1/SNR for unit-modulus pilots
    rng = np.random.default_rng(9)
    pilot = make_common_pilot(PHY, 3)
    tx = ofdm_modulate(pilot, PHY)
    snr_db = 30.0
    h_true = np.ones(PHY.n_fft)
    err_acc, ref_acc = 0.0, 0.0
    for i in range(1000):
        rx = add_awgn(tx, snr_db, rng)
        est = ls_channel_estimate(ofdm_demodulate(rx, PHY), pilot)
        err_acc += np.mean(np.abs(est - h_true) ** 2)
        ref_acc += 1.0
    nmse_db = 10 * np.log10(err_acc / ref_acc)
    assert abs(nmse_db - (-snr_db)) < 3.0


def test_ls_unbiased():
    rng = np.random.default_rng(10)
    pilot = make_common_pilot(PHY, 4)
    prof = default_profile(PHY, ChannelConfig(), rng)
    link = SensorLinkState(profile=prof)
    h_true = effective_channel_oracle(link, "DL", 0.0, 0.0, PHY)
    tx = ofdm_modulate(pilot, PHY)
    acc = np.zeros(PHY.n_fft, dtype=complex)
    n_trials = 400
    for _ in range(n_trials):
        rx = add_awgn(apply_multipath(tx, prof, PHY), 10.0, rng)
        acc += ls_channel_estimate(ofdm_demodulate(rx, PHY), pilot)
    bias = np.abs(acc / n_trials - h_true)
    assert np.max(bias) < 0.05


def test_equalize_identity_and_exact_recovery():
    rng = np.random.default_rng(11)
    X = rand_freq(rng)
    est = np.ones(PHY.n_fft)
    eq, reliable = equalize(X, est, PHY)
    np.testing.assert_allclose(eq, X)
    assert reliable.all()
    h = rand_freq(rng) + 2.0  # bounded away from zero
    eq2, _ = equalize(h * X, h, PHY)
    np.testing.assert_allclose(eq2, X, atol=1e-12)


def test_equalize_flags_deep_fade():
    h = np.ones(PHY.n_fft, dtype=complex)
    h[5] = 1e-9
    eq, reliable = equalize(np.ones(PHY.n_fft), h, PHY)
    assert not reliable[5] and reliable[6]
    assert np.all(np.isfinite(eq))


def test_equalized_qam_through_default_multipath_at_30db():
    # end-to-end symbol error check across many symbols
    rng = np.random.default_rng(12)
    prof = default_profile(PHY, ChannelConfig(), rng)
    pilot = make_common_pilot(PHY, 5)
    errors = 0
    total = 0
    for i in range(40):  # 40 * 256 > 1e4 symbols
        bits = rng.integers(0, 2, size=4 * PHY.n_fft)
        data = map_qam(bits, 16, PHY)
        rx_p = add_awgn(apply_multipath(ofdm_modulate(pilot, PHY), prof, PHY), 30.0, rng)
        rx_d = add_awgn(apply_multipath(ofdm_modulate(data, PHY), prof, PHY), 30.0, rng)
        est = ls_channel_estimate(ofdm_demodulate(rx_p, PHY), pilot)
        eq, _ = equalize(ofdm_demodulate(rx_d, PHY), est, PHY)
        errors += qam_symbol_error_count(data, eq, 16)
        total += PHY.n_fft
    assert total >= 10_000
    assert errors == 0


def test_average_estimates_reduces_noise():
    rng = np.random.default_rng(13)
    ests = [1.0 + 0.1 * (rng.standard_normal(PHY.n_fft) + 1j * rng.standard_normal(PHY.n_fft))
            for _ in range(4)]
    avg = average_estimates(ests)
    spread = np.mean(np.abs(avg - 1.0) ** 2)
    single = np.mean(np.abs(ests[0] - 1.0) ** 2)
    assert spread < single
