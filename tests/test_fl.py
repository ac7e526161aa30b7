"""Synthetic RSS task, MLP gradients, payload mapping, training loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airfed.config import TrainConfig
from airfed.fl import (
    LAYER_SIZES,
    batch_sq_loss,
    MlpModel,
    N_PARAMS,
    batch_indices,
    chunk_payload,
    dechunk_payload,
    eta_schedule,
    forward,
    gen_rss_map,
    global_update,
    init_model,
    local_gradient,
    offline_baseline,
    payload_scale,
    RssDataset,
    _shadow_field,
    _surface_dbm,
)

CFG = TrainConfig()


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

def test_pathloss_anchor_at_reference_distance():
    cfg = TrainConfig(shadow_sigma_db=0.0)
    rng = np.random.default_rng(0)
    shadow = _shadow_field(cfg, rng)
    p = np.array([[cfg.sites[0][0] + cfg.d0_m, cfg.sites[0][1]]])
    rss = _surface_dbm(p, cfg, shadow)
    assert rss[0] == pytest.approx(cfg.p0_dbm)


def test_map_respects_exclusion_disks():
    rss = gen_rss_map(CFG, seed=1)
    sites = np.asarray(CFG.sites)
    for ds in rss.datasets:
        pos_m = rss.to_meters(ds.x)
        d = np.linalg.norm(pos_m[:, None, :] - sites[None, :, :], axis=2)
        assert np.all(d >= CFG.site_exclusion_m - 1e-6)


def test_map_deterministic_and_normalized():
    a = gen_rss_map(CFG, seed=2)
    b = gen_rss_map(CFG, seed=2)
    for da, db in zip(a.datasets, b.datasets):
        np.testing.assert_array_equal(da.x, db.x)
        np.testing.assert_array_equal(da.y, db.y)
    ys = np.concatenate([d.y for d in a.datasets])
    assert ys.min() >= 0.0 and ys.max() <= 1.0
    assert sum(d.epsilon_k for d in a.datasets) == pytest.approx(1.0)
    assert all(len(d.y) == CFG.local_n for d in a.datasets)


def test_truth_surface_matches_samples():
    rss = gen_rss_map(CFG, seed=3)
    ds = rss.datasets[0]
    np.testing.assert_allclose(rss.truth_norm(ds.x), ds.y, atol=1e-12)


# ---------------------------------------------------------------------------
# model and gradients
# ---------------------------------------------------------------------------

def test_parameter_count_and_layout():
    assert LAYER_SIZES == (2, 20, 20, 1)
    assert N_PARAMS == 501
    m = init_model(0)
    layers = m.unpack()
    assert [w.shape for w, _ in layers] == [(2, 20), (20, 20), (20, 1)]
    flat = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])
    np.testing.assert_array_equal(flat, m.w)


def test_forward_zero_weights():
    m = MlpModel(np.zeros(N_PARAMS))
    assert forward(m, [[0.3, 0.7]])[0] == 0.0


def test_forward_hand_computed_path():
    # single active path: x -> h1_0 -> h2_0 -> out with known small weights
    m = MlpModel(np.zeros(N_PARAMS))
    layers = m.unpack()
    layers[0][0][0, 0] = 0.5   # w1[x0 -> h0]
    layers[0][1][0] = 0.1      # b1[h0]
    layers[1][0][0, 0] = -2.0  # w2[h0 -> g0] (negative: ReLU kills it)
    layers[1][0][0, 1] = 3.0   # w2[h0 -> g1]
    layers[2][0][1, 0] = 0.25  # w3[g1 -> out]
    layers[2][1][0] = -0.05
    x = np.array([[0.8, 0.0]])
    h0 = 0.5 * 0.8 + 0.1           # 0.5
    g1 = 3.0 * h0                  # 1.5 (g0 clipped by ReLU)
    want = 0.25 * g1 - 0.05        # 0.325
    assert forward(m, x)[0] == pytest.approx(want)


def test_relu_dead_unit_invariance():
    rng = np.random.default_rng(4)
    m = init_model(5)
    x = np.array([[0.2, 0.9]])
    layers = m.unpack()
    pre = x @ layers[0][0] + layers[0][1]
    dead = np.where(pre[0] < 0)[0]
    if len(dead) == 0:
        pytest.skip("no dead unit for this draw")
    j = dead[0]
    before = forward(m, x)[0]
    layers[1][0][j, :] *= -3.7  # only influences the dead unit's output path
    assert forward(m, x)[0] == pytest.approx(before)


def test_zero_residual_batch_zero_gradient():
    m = MlpModel(np.zeros(N_PARAMS))
    ds = RssDataset(x=np.random.default_rng(6).uniform(0, 1, (50, 2)),
                    y=np.zeros(50), owner=0, epsilon_k=0.5)
    g = local_gradient(m, ds, np.arange(50))
    np.testing.assert_array_equal(g, np.zeros(N_PARAMS))


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(7)
    m = init_model(8)
    ds = RssDataset(x=rng.uniform(0, 1, (40, 2)), y=rng.uniform(0, 1, 40),
                    owner=0, epsilon_k=1.0)
    idx = np.arange(40)
    g = local_gradient(m, ds, idx)
    h = 1e-5
    fd = np.empty(N_PARAMS)
    for i in range(N_PARAMS):
        wp = m.w.copy(); wp[i] += h
        wm = m.w.copy(); wm[i] -= h
        fd[i] = (batch_sq_loss(MlpModel(wp), ds.x, ds.y)
                 - batch_sq_loss(MlpModel(wm), ds.x, ds.y)) / (2 * h)
    # relative error with a floor at 1e-3 of the largest coordinate, so
    # finite-difference rounding noise on dead-unit entries is not scored
    # against a denominator of essentially zero
    scale = np.maximum(np.maximum(np.abs(fd), np.abs(g)), 1e-3 * np.max(np.abs(fd)))
    rel = np.abs(g - fd) / scale
    assert np.max(rel) < 1e-6


def test_gradient_scales_with_epsilon():
    rng = np.random.default_rng(9)
    m = init_model(10)
    ds = RssDataset(x=rng.uniform(0, 1, (30, 2)), y=rng.uniform(0, 1, 30),
                    owner=0, epsilon_k=1.0)
    idx = np.arange(30)
    g1 = local_gradient(m, ds, idx, epsilon_k=1.0)
    g3 = local_gradient(m, ds, idx, epsilon_k=3.0)
    np.testing.assert_allclose(g3, 3.0 * g1, atol=1e-14)


def test_gradient_rejects_empty_batch():
    with pytest.raises(ValueError):
        local_gradient(init_model(0), RssDataset(x=np.zeros((1, 2)), y=np.zeros(1)), np.array([], dtype=int))


# ---------------------------------------------------------------------------
# global update and schedule
# ---------------------------------------------------------------------------

def test_global_update_arithmetic():
    m = MlpModel(np.ones(N_PARAMS))
    m2 = global_update(m, np.ones(N_PARAMS), 0.001)
    np.testing.assert_allclose(m2.w, np.full(N_PARAMS, 0.999))
    m3 = global_update(m, np.zeros(N_PARAMS), 0.5)
    np.testing.assert_array_equal(m3.w, m.w)


def test_global_update_rejects_nonfinite():
    m = MlpModel(np.ones(N_PARAMS))
    bad = np.ones(N_PARAMS)
    bad[3] = np.nan
    m2 = global_update(m, bad, 0.1)
    np.testing.assert_array_equal(m2.w, m.w)


def test_eta_schedule_anchor_and_decrease():
    assert eta_schedule(CFG, 0) == pytest.approx(2.0 / 2000.0)
    etas = [eta_schedule(CFG, t) for t in range(100)]
    assert all(a > b > 0 for a, b in zip(etas, etas[1:]))


# ---------------------------------------------------------------------------
# payload chunking
# ---------------------------------------------------------------------------

def test_chunk_round_trip_identity():
    rng = np.random.default_rng(11)
    g = rng.standard_normal(501) * 0.01
    scale = payload_scale([g], 0.9)
    chunks, n = chunk_payload(g, 256, scale)
    assert len(chunks) == 2 and all(len(c) == 256 for c in chunks)
    back = dechunk_payload(chunks, n, scale)
    np.testing.assert_allclose(back, g, atol=1e-12)


def test_chunk_padding_is_stripped():
    g = np.arange(5, dtype=float)
    chunks, n = chunk_payload(g, 4, 0.1)
    assert len(chunks) == 2
    back = dechunk_payload(chunks, n, 0.1)
    np.testing.assert_allclose(back, g)


def test_two_sensor_aggregate_linearity():
    rng = np.random.default_rng(12)
    g1, g2 = rng.standard_normal(300), rng.standard_normal(300)
    scale = payload_scale([g1, g2], 0.9)
    c1, n = chunk_payload(g1, 128, scale)
    c2, _ = chunk_payload(g2, 128, scale)
    summed = [a + b for a, b in zip(c1, c2)]
    np.testing.assert_allclose(dechunk_payload(summed, n, scale), g1 + g2, atol=1e-10)


def test_zero_gradient_scale_fallback():
    assert payload_scale([np.zeros(10)], 0.9) == 1.0


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 600))
def test_chunk_round_trip_property(seed, n_values):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n_values)
    scale = payload_scale([g], 0.9)
    chunks, n = chunk_payload(g, 256, scale)
    clipped = np.max(np.abs(g * scale)) > 1.0
    back = dechunk_payload(chunks, n, scale)
    if not clipped:
        np.testing.assert_allclose(back, g, atol=1e-10)
    assert all(np.max(np.abs(c)) <= 1.0 for c in chunks)


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

def test_batches_deterministic():
    a = batch_indices(CFG, seed=1, t=10, sensor=0, n=1000)
    b = batch_indices(CFG, seed=1, t=10, sensor=0, n=1000)
    np.testing.assert_array_equal(a, b)
    c = batch_indices(CFG, seed=1, t=11, sensor=0, n=1000)
    assert not np.array_equal(a, c)


def test_offline_baseline_loss_decreases():
    cfg = TrainConfig(rounds=300, local_n=300)
    rss = gen_rss_map(cfg, seed=13)
    _, losses = offline_baseline(cfg, rss, seed=13)
    first = np.mean(losses[:30])
    last = np.mean(losses[-30:])
    assert last < first