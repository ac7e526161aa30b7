"""Ground-truth channel model: convolution, rotation, timing, noise, oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airfed.channel import (
    LinkPath,
    MultipathProfile,
    SampleStream,
    SensorLinkState,
    apply_cfo,
    apply_multipath,
    apply_timing_offset,
    add_awgn,
    add_noise,
    default_profile,
    effective_channel_oracle,
    impair_rows,
    subcarrier_indices,
    tap_response_freq,
    unit_profile,
)
from airfed.config import ChannelConfig, PhyConfig
from airfed.ofdm import ofdm_demodulate, ofdm_modulate

PHY = PhyConfig()
TS = PHY.t_s
# long streams go through the channel in blocks of 8,192 samples: a lone
# sample, both sides of a block and of numpy's elision threshold, a remainder
# longer than a block, and an init preamble's length
BLOCK_LENGTHS = (1, 8191, 8192, 8193, 16383, 16384, 16385, 24577, 1_000_133)


def stream(arr, t0=0.0):
    return SampleStream(np.asarray(arr, dtype=np.complex128), t0)


def random_stream(rng, n, t0=0.0):
    return stream(rng.standard_normal(n) + 1j * rng.standard_normal(n), t0)


# ---------------------------------------------------------------------------
# apply_multipath
# ---------------------------------------------------------------------------

def test_multipath_identity_tap():
    x = stream([1.0, 2.0, 3.0 - 1.0j])
    y = apply_multipath(x, unit_profile(), PHY)
    np.testing.assert_allclose(y.samples, x.samples)


def test_multipath_scalar_gain():
    prof = MultipathProfile(taps=((0.5j, 0.0),))
    y = apply_multipath(stream([1.0, 0.0]), prof, PHY)
    np.testing.assert_allclose(y.samples, [0.5j, 0.0])


def test_multipath_two_tap_hand_convolution():
    # impulse through taps (1, 0s) and (0.5, 2 Ts) -> [1, 0, 0.5], by hand
    prof = MultipathProfile(taps=((1.0, 0.0), (0.5, 2 * TS)))
    y = apply_multipath(stream([1.0]), prof, PHY)
    np.testing.assert_allclose(y.samples, [1.0, 0.0, 0.5])


def test_multipath_rejects_delay_beyond_cp():
    prof = MultipathProfile(taps=((1.0, 0.0), (0.1, PHY.cp_len * TS)))
    with pytest.raises(ValueError):
        apply_multipath(stream([1.0, 0.0]), prof, PHY)


def test_multipath_rejects_fractional_delay():
    prof = MultipathProfile(taps=((1.0, 0.37 * TS),))
    with pytest.raises(ValueError):
        apply_multipath(stream([1.0, 0.0]), prof, PHY)


def test_profile_invariants():
    with pytest.raises(ValueError):
        MultipathProfile(taps=((1.0, 2 * TS), (0.5, 1 * TS)))  # not increasing
    with pytest.raises(ValueError):
        MultipathProfile(taps=((0.0, 0.0),))  # zero power
    with pytest.raises(ValueError):
        MultipathProfile(taps=())


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_multipath_linearity(seed):
    rng = np.random.default_rng(seed)
    prof = default_profile(PHY, ChannelConfig(), rng)
    x = random_stream(rng, 64)
    y = random_stream(rng, 64)
    a, b = rng.standard_normal(2)
    lhs = apply_multipath(stream(a * x.samples + b * y.samples), prof, PHY).samples
    rhs = a * apply_multipath(x, prof, PHY).samples + b * apply_multipath(y, prof, PHY).samples
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_multipath_energy_scaling_white_input():
    rng = np.random.default_rng(3)
    prof = default_profile(PHY, ChannelConfig(), rng)
    power = sum(abs(a) ** 2 for a, _ in prof.taps)
    x = random_stream(rng, 200_000)
    y = apply_multipath(x, prof, PHY)
    ratio = np.mean(np.abs(y.samples) ** 2) * len(y.samples) / (
        np.mean(np.abs(x.samples) ** 2) * len(x.samples)
    )
    assert ratio == pytest.approx(power, rel=0.01)


# ---------------------------------------------------------------------------
# apply_cfo
# ---------------------------------------------------------------------------

def test_cfo_zero_is_identity():
    x = stream([1.0, 1.0j, -2.0])
    np.testing.assert_array_equal(apply_cfo(x, 0.0, PHY).samples, x.samples)


def test_cfo_quarter_rate_tone():
    x = stream(np.ones(8), t0=0.0)
    y = apply_cfo(x, PHY.fs_hz / 4.0, PHY)
    np.testing.assert_allclose(y.samples[:4], [1.0, 1.0j, -1.0, -1.0j], atol=1e-12)


def test_cfo_inverse_rotation():
    rng = np.random.default_rng(1)
    x = random_stream(rng, 500, t0=0.123)
    y = apply_cfo(apply_cfo(x, 100.0, PHY), -100.0, PHY)
    np.testing.assert_allclose(y.samples, x.samples, atol=1e-12)
    assert y.t0_s == x.t0_s


# ---------------------------------------------------------------------------
# apply_timing_offset
# ---------------------------------------------------------------------------

def test_timing_offset_zero_identity():
    x = stream(np.arange(10, dtype=float))
    np.testing.assert_allclose(apply_timing_offset(x, 0.0, PHY).samples, x.samples)


def test_timing_offset_one_sample_shift():
    # positive offset = receiver sampling late = content moves one sample earlier
    imp = np.zeros(12)
    imp[5] = 1.0
    y = apply_timing_offset(stream(imp), TS, PHY)
    assert np.argmax(np.abs(y.samples)) == 4
    y = apply_timing_offset(stream(imp), -TS, PHY)
    assert np.argmax(np.abs(y.samples)) == 6


def test_timing_offset_fractional_phase_ramp():
    # half-sample offset on one N-block -> per-subcarrier slope exp(j pi n / N),
    # checked against the DFT of the shifted block
    rng = np.random.default_rng(7)
    X = rng.standard_normal(PHY.n_fft) + 1j * rng.standard_normal(PHY.n_fft)
    block = stream(np.fft.ifft(np.fft.ifftshift(X)))
    y = apply_timing_offset(block, 0.5 * TS, PHY)
    Y = np.fft.fftshift(np.fft.fft(y.samples))
    n = subcarrier_indices(PHY.n_fft)
    np.testing.assert_allclose(Y, X * np.exp(1j * np.pi * n / PHY.n_fft), atol=1e-12)


def test_timing_offset_rejects_large_offset():
    with pytest.raises(ValueError):
        apply_timing_offset(stream(np.ones(4)), PHY.cp_len * TS, PHY)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(-20, 20))
def test_cyclic_shift_commutation(seed, shift):
    # DFT of a cyclically shifted block equals the original DFT times the ramp
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(PHY.n_fft) + 1j * rng.standard_normal(PHY.n_fft)
    X = np.fft.fftshift(np.fft.fft(x))
    shifted = np.roll(x, -shift)  # advance by `shift`
    Y = np.fft.fftshift(np.fft.fft(shifted))
    n = subcarrier_indices(PHY.n_fft)
    np.testing.assert_allclose(Y, X * np.exp(2j * np.pi * n * shift / PHY.n_fft), atol=1e-9)


# ---------------------------------------------------------------------------
# add_awgn
# ---------------------------------------------------------------------------

def test_awgn_infinite_snr_flag():
    x = stream([1.0, 2.0, 3.0])
    y = add_awgn(x, np.inf, 0)
    np.testing.assert_array_equal(y.samples, x.samples)


def test_awgn_deterministic_for_seed():
    rng = np.random.default_rng(5)
    x = random_stream(rng, 100)
    y1 = add_awgn(x, 10.0, 1234)
    y2 = add_awgn(x, 10.0, 1234)
    np.testing.assert_array_equal(y1.samples, y2.samples)


def test_awgn_empirical_snr():
    rng = np.random.default_rng(6)
    x = random_stream(rng, 1_000_000)
    x = stream(x.samples / np.sqrt(np.mean(np.abs(x.samples) ** 2)))
    y = add_awgn(x, 0.0, 99)
    noise = y.samples - x.samples
    snr_db = 10 * np.log10(np.mean(np.abs(x.samples) ** 2) / np.mean(np.abs(noise) ** 2))
    assert abs(snr_db) < 0.1


def test_awgn_rejects_zero_power():
    with pytest.raises(ValueError):
        add_awgn(stream(np.zeros(8)), 10.0, 0)


def test_awgn_checks_its_output_for_finite_samples():
    # a stream is checked where noise is added, not when it is built
    x = stream([1.0, np.nan, 2.0])
    for snr_db in (10.0, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            add_awgn(x, snr_db, 0)


def test_add_noise_bitwise_equals_complex_noise_sum():
    # the real and imaginary adds must round exactly like x + s*(a + 1j*b),
    # and draws made block by block must continue one standard_normal(n);
    # bits are compared because array_equal calls -0 and +0 equal
    for n in (7, 10_001, *BLOCK_LENGTHS):
        x = random_stream(np.random.default_rng(n), n)
        before = x.samples.copy()
        y = add_noise(x, 2.5, 3.0, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        s = np.sqrt(2.5 / (10.0 ** (3.0 / 10.0)) / 2.0)
        ref = x.samples + s * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert np.array_equal(y.samples.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(x.samples.view(np.uint64), before.view(np.uint64))


# ---------------------------------------------------------------------------
# long streams in blocks
# ---------------------------------------------------------------------------

GAINS = np.array([0.8 + 0.3j, -0.2 + 0.1j, 0.05 - 0.07j])
DELAYS = np.array([0, 3, 7])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def one_shot_rotation(samples, cfo_hz, t0_s):
    # the whole-stream expression the block kernels must reproduce bit for bit
    return samples * np.exp(2j * np.pi * cfo_hz * (t0_s + np.arange(samples.shape[-1]) * PHY.t_s))


def one_shot_taps(x, shift):
    n, length = len(x), len(x) + int(DELAYS[-1])
    out = np.zeros(length, dtype=np.complex128)
    for g, d in zip(GAINS, DELAYS):
        lo, hi = max(0, shift - d), min(n, length + shift - d)
        if lo < hi:  # a tap can miss a stream shorter than the offset
            out[d + lo - shift : d + hi - shift] += g * x[lo:hi]
    return out


@pytest.mark.parametrize("n", BLOCK_LENGTHS)
def test_block_kernels_bitwise_equal_one_shot(n):
    x = random_stream(np.random.default_rng(n), n).samples
    cfo = 417.3
    for t0 in (0.0, 0.0123):
        # apply_cfo writes a new array, impair_rows rotates its row in place
        got = apply_cfo(stream(x, t0), cfo, PHY).samples
        assert np.array_equal(bits(got), bits(one_shot_rotation(x, cfo, t0)))
        for shift in (0, 2, -1):
            path = LinkPath(GAINS, DELAYS, shift, 0.0)
            rows, _ = impair_rows(x, t0, [path], np.array([cfo]), PHY)
            want = one_shot_taps(x, shift)
            assert np.array_equal(bits(rows[0]), bits(one_shot_rotation(want, cfo, t0)))
    taps = apply_multipath(stream(x), MultipathProfile(tuple((g, d * TS) for g, d in zip(GAINS, DELAYS))), PHY)
    assert np.array_equal(bits(taps.samples), bits(one_shot_taps(x, 0)))


# ---------------------------------------------------------------------------
# effective_channel_oracle
# ---------------------------------------------------------------------------

def test_oracle_flat_unit_channel():
    link = SensorLinkState(profile=unit_profile())
    h = effective_channel_oracle(link, "DL", 0.0, 0.0, PHY)
    np.testing.assert_allclose(h, np.ones(PHY.n_fft))


def test_oracle_one_sample_delay_slope():
    link = SensorLinkState(profile=unit_profile(), to_dl_s=TS)
    h = effective_channel_oracle(link, "DL", 0.0, 0.0, PHY)
    n = subcarrier_indices(PHY.n_fft)
    np.testing.assert_allclose(h, np.exp(2j * np.pi * n / PHY.n_fft), atol=1e-12)


def test_oracle_ul_dl_cfo_conjugate():
    link = SensorLinkState(profile=unit_profile(), to_dl_s=3 * TS, to_ul_s=3 * TS)
    t, fr = 0.01, 40.0
    h_dl = effective_channel_oracle(link, "DL", t, fr, PHY)
    h_ul = effective_channel_oracle(link, "UL", t, fr, PHY)
    # same timing ramp, opposite CFO phase
    np.testing.assert_allclose(h_ul * np.exp(2j * np.pi * fr * t),
                               h_dl * np.exp(-2j * np.pi * fr * t), atol=1e-12)


def test_oracle_equals_tap_dft_when_unimpaired():
    rng = np.random.default_rng(11)
    prof = default_profile(PHY, ChannelConfig(), rng)
    link = SensorLinkState(profile=prof)
    h = effective_channel_oracle(link, "DL", 0.0, 0.0, PHY)
    np.testing.assert_allclose(h, tap_response_freq(prof, PHY), atol=1e-12)


def test_demod_matches_oracle_through_channel():
    # multipath plus a delay-side timing offset acts as the oracle gain per carrier
    rng = np.random.default_rng(12)
    X = rng.standard_normal(PHY.n_fft) + 1j * rng.standard_normal(PHY.n_fft)
    prof = MultipathProfile(taps=((0.8 + 0.2j, 0.0), (0.4 - 0.1j, 2 * TS)))
    link = SensorLinkState(profile=prof, to_dl_s=-3 * TS)
    tx = ofdm_modulate(X, PHY)
    rx = apply_timing_offset(apply_multipath(tx, prof, PHY), link.to_dl_s, PHY)
    got = ofdm_demodulate(rx, PHY)
    want = effective_channel_oracle(link, "DL", 0.0, 0.0, PHY) * X
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_superposition_ground_truth():
    # applying per-sensor channels and summing equals summing at the antenna
    rng = np.random.default_rng(13)
    cfg = ChannelConfig()
    links = [SensorLinkState(profile=default_profile(PHY, cfg, rng), cfo_hz=f)
             for f in (300.0, -150.0)]
    xs = [random_stream(rng, 256) for _ in links]
    outs = []
    for link, x in zip(links, xs):
        y = apply_cfo(apply_multipath(x, link.profile, PHY), link.cfo_hz, PHY)
        outs.append(y.samples)
    n = min(len(o) for o in outs)
    total = sum(o[:n] for o in outs)
    again = sum(
        apply_cfo(apply_multipath(x, link.profile, PHY), link.cfo_hz, PHY).samples[:n]
        for link, x in zip(links, xs)
    )
    np.testing.assert_allclose(total, again, atol=1e-12)


def test_link_state_validation():
    link = SensorLinkState(profile=unit_profile(), to_dl_s=PHY.cp_len * TS)
    with pytest.raises(ValueError):
        link.validate(PHY)
