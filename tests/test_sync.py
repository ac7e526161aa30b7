"""Coarse CFO estimation and residual tracking."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airfed.channel import (
    SampleStream,
    add_awgn,
    apply_cfo,
    apply_multipath,
    default_profile,
)
from airfed.config import ChannelConfig, PhyConfig
from airfed.framing import gen_cfo_subframe
from airfed.sync import (
    CfoEstimate,
    cfo_nmse,
    coarse_cfo_estimate,
    needs_recorrection,
    start_tracking,
    track_residual_cfo,
)

PHY = PhyConfig()


def make_preamble(cfo_hz, length=120_000, rng=None, snr_db=np.inf, profile=None):
    x = gen_cfo_subframe(PHY, length, 1.0)
    if profile is not None:
        x = apply_multipath(x, profile, PHY)
    x = apply_cfo(x, cfo_hz, PHY)
    if not np.isinf(snr_db):
        x = add_awgn(x, snr_db, rng)
    return x


# ---------------------------------------------------------------------------
# coarse estimation
# ---------------------------------------------------------------------------

def test_coarse_zero_cfo_noise_free():
    est = coarse_cfo_estimate(make_preamble(0.0), PHY)
    assert abs(est) < 1e-9


def test_coarse_1khz_noise_free():
    est = coarse_cfo_estimate(make_preamble(1000.0), PHY)
    assert est == pytest.approx(1000.0, rel=1e-6)


def test_coarse_noise_free_with_multipath_and_offset():
    rng = np.random.default_rng(0)
    prof = default_profile(PHY, ChannelConfig(), rng)
    est = coarse_cfo_estimate(make_preamble(-742.0, profile=prof), PHY)
    assert est == pytest.approx(-742.0, abs=1e-6)


def test_coarse_rejects_short_input():
    with pytest.raises(ValueError):
        coarse_cfo_estimate(SampleStream(np.ones(PHY.l_span, dtype=complex)), PHY)


def test_coarse_periodic_ambiguity():
    # adding a full cycle per lag span gives back the same estimate
    period = 1.0 / (PHY.t_s * PHY.l_span)
    a = coarse_cfo_estimate(make_preamble(500.0), PHY)
    b = coarse_cfo_estimate(make_preamble(500.0 + period), PHY)
    assert a == pytest.approx(b, abs=1e-6)


def test_coarse_invariant_to_complex_gain():
    x = make_preamble(321.0)
    y = SampleStream(x.samples * (0.3 * np.exp(1.1j)), x.t0_s)
    assert coarse_cfo_estimate(x, PHY) == pytest.approx(coarse_cfo_estimate(y, PHY), abs=1e-9)


def test_coarse_accuracy_at_0db():
    # shortened version of the acceptance run: most trials land within 10 Hz
    rng = np.random.default_rng(1)
    hits = 0
    trials = 25
    for _ in range(trials):
        cfo = rng.uniform(-2000, 2000)
        r = make_preamble(cfo, length=1_000_000, rng=rng, snr_db=0.0)
        hits += int(abs(coarse_cfo_estimate(r, PHY) - cfo) < 10.0)
    assert hits >= trials - 1


# ---------------------------------------------------------------------------
# residual tracking
# ---------------------------------------------------------------------------

def make_pilot_pair(residual_hz, t0, t1, rng=None, snr_db=np.inf):
    rng = rng or np.random.default_rng(0)
    base = np.exp(1j * rng.uniform(-np.pi, np.pi, PHY.n_fft))
    def at(t):
        vals = base * np.exp(2j * np.pi * residual_hz * t)
        if not np.isinf(snr_db):
            sigma = np.sqrt(10 ** (-snr_db / 10) / 2)
            vals = vals + sigma * (rng.standard_normal(PHY.n_fft) + 1j * rng.standard_normal(PHY.n_fft))
        return vals
    return at(t0), at(t1)


def test_tracking_base_case_is_single_shot():
    p0, p1 = make_pilot_pair(40.0, 0.0, 1e-3)
    state = start_tracking(CfoEstimate(), p0, 0.0)
    state = track_residual_cfo(state, p1, 1e-3)
    assert state.p_count == 1
    assert state.residual_hz == pytest.approx(40.0, abs=1e-9)


def test_tracking_zero_residual_noise_free():
    p0, p1 = make_pilot_pair(0.0, 0.0, 1e-3)
    state = start_tracking(CfoEstimate(), p0, 0.0)
    state = track_residual_cfo(state, p1, 1e-3)
    assert abs(state.residual_hz) < 1e-9


def test_tracking_requires_reference():
    with pytest.raises(ValueError):
        track_residual_cfo(CfoEstimate(), np.ones(PHY.n_fft), 1.0)


def test_tracking_running_mean_equals_arithmetic_mean():
    rng = np.random.default_rng(5)
    state = start_tracking(CfoEstimate(), np.exp(1j * rng.uniform(-3, 3, PHY.n_fft)), 0.0)
    ts = np.cumsum(rng.uniform(0.5e-3, 1.5e-3, 10))
    prev = state.prev_pilot
    shots = []
    for t in ts:
        noisy = (prev * np.exp(2j * np.pi * rng.uniform(-20, 20) * 1e-3)
                 + 0.05 * (rng.standard_normal(PHY.n_fft) + 1j * rng.standard_normal(PHY.n_fft)))
        # a first update from the same reference is the single-shot estimate
        shots.append(track_residual_cfo(replace(state, p_count=0, residual_hz=0.0), noisy, float(t)).residual_hz)
        state = track_residual_cfo(state, noisy, float(t))
        prev = state.prev_pilot
    assert state.residual_hz == pytest.approx(np.mean(shots), rel=1e-12)


def test_tracking_nmse_decreases_with_updates():
    # averaged residual estimate tightens as updates accumulate
    rng = np.random.default_rng(6)
    residual = 5.0
    dt = 1e-3
    trials = 200
    sq_err = np.zeros(8)
    for _ in range(trials):
        base = np.exp(1j * rng.uniform(-np.pi, np.pi, PHY.n_fft))
        noise = rng.standard_normal(PHY.n_fft) + 1j * rng.standard_normal(PHY.n_fft)
        state = start_tracking(CfoEstimate(), base + 0.7 * noise, 0.0)
        for p in range(8):
            t = (p + 1) * dt
            vals = base * np.exp(2j * np.pi * residual * t)
            vals = vals + 0.7 * (rng.standard_normal(PHY.n_fft) + 1j * rng.standard_normal(PHY.n_fft))
            state = track_residual_cfo(state, vals, t)
            sq_err[p] += (state.residual_hz - residual) ** 2
    nmse = sq_err / trials / residual**2
    assert nmse[7] < nmse[0]


# ---------------------------------------------------------------------------
# re-correction policy and NMSE helper
# ---------------------------------------------------------------------------

def test_needs_recorrection_cases():
    assert not needs_recorrection(CfoEstimate(residual_hz=0.0), 1e-3)
    assert needs_recorrection(CfoEstimate(residual_hz=600.0), 1e-3)
    assert not needs_recorrection(CfoEstimate(residual_hz=400.0), 1e-3)
    assert needs_recorrection(CfoEstimate(residual_hz=-600.0), 1e-3)


def test_cfo_nmse_values():
    t = np.array([1.0, 2.0, -1.0])
    assert cfo_nmse(t, t) == 0.0
    assert cfo_nmse(2 * t, t) == pytest.approx(1.0)
    assert cfo_nmse(np.zeros(3), t) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cfo_nmse(t, np.zeros(3))


@settings(deadline=None, max_examples=50)
@given(st.floats(-1e4, 1e4), st.floats(1e-6, 1.0))
def test_needs_recorrection_threshold(res, dt):
    state = CfoEstimate(residual_hz=res)
    assert needs_recorrection(state, dt) == (dt * abs(res) > 0.5)
