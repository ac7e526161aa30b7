"""Federated learning task: synthetic RSS map, MLP, gradients, payloads.

The regression task predicts received signal strength from normalized map
coordinates.  The model is a small fully connected network (2 -> 20 -> 20
-> 1 with ReLU) trained by plain SGD on aggregated gradients; gradients are
computed by hand-written backpropagation so the whole loop stays in numpy
and is exactly reproducible from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig

LAYER_SIZES = (2, 20, 20, 1)


# ---------------------------------------------------------------------------
# synthetic RSS map
# ---------------------------------------------------------------------------

@dataclass
class RssDataset:
    """One sensor's share of the measurement set (normalized units)."""

    x: np.ndarray          # (n, 2) coordinates in [0, 1]
    y: np.ndarray          # (n,) normalized RSS in [0, 1]
    owner: int = 0
    epsilon_k: float = 1.0


@dataclass
class RssMap:
    """The full synthetic map with its normalization and truth surface."""

    datasets: list[RssDataset]
    sites_norm: np.ndarray
    rss_min_dbm: float
    rss_max_dbm: float
    coord_min_m: np.ndarray
    coord_max_m: np.ndarray
    cfg: TrainConfig
    _shadow: tuple[np.ndarray, np.ndarray, float] = field(repr=False, default=None)

    def to_meters(self, coords_norm: np.ndarray) -> np.ndarray:
        c = np.atleast_2d(coords_norm)
        return c * (self.coord_max_m - self.coord_min_m) + self.coord_min_m

    def to_norm(self, pos_m: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(pos_m)
        return (p - self.coord_min_m) / (self.coord_max_m - self.coord_min_m)

    def truth_norm(self, coords_norm: np.ndarray) -> np.ndarray:
        """Normalized RSS of the deterministic surface at normalized coords."""
        rss = _surface_dbm(self.to_meters(coords_norm), self.cfg, self._shadow)
        return (rss - self.rss_min_dbm) / (self.rss_max_dbm - self.rss_min_dbm)


def _shadow_field(cfg: TrainConfig, rng: np.random.Generator):
    """Smooth zero-mean random field with the configured point-wise std.

    A sum of long-wavelength plane waves: deterministic in position, so the
    surface is a fixed learnable function rather than per-sample noise.
    Wavelengths exceed the map radius so the field adds gentle large-scale
    structure instead of unlearnable ripple.
    """
    k = cfg.shadow_waves
    wavelengths = rng.uniform(500.0, 1200.0, size=k)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=k)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    kvec = (2.0 * np.pi / wavelengths)[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    amp = cfg.shadow_sigma_db * math.sqrt(2.0 / k)
    return kvec, phases, amp


def _surface_dbm(pos_m: np.ndarray, cfg: TrainConfig, shadow) -> np.ndarray:
    sites = np.asarray(cfg.sites)
    d = np.linalg.norm(pos_m[:, None, :] - sites[None, :, :], axis=2)
    d = np.maximum(d, 1e-3)
    per_site = cfg.p0_dbm - 10.0 * cfg.pathloss_exp * np.log10(d / cfg.d0_m)
    rss = np.max(per_site, axis=1)
    kvec, phases, amp = shadow
    rss = rss + amp * np.sum(np.cos(pos_m @ kvec.T + phases[None, :]), axis=1)
    return rss


def gen_rss_map(cfg: TrainConfig, seed: int) -> RssMap:
    """Sample measurement positions in the map disk and normalize everything.

    Positions are uniform over the disk centered between the two sites,
    excluding the exclusion disks around each site.  The sample set is split
    evenly across sensors (epsilon_k = 1/K each).
    """
    rng = np.random.default_rng(seed)
    shadow = _shadow_field(cfg, rng)
    sites = np.asarray(cfg.sites)
    center = sites.mean(axis=0)
    n_total = cfg.local_n * cfg.n_sensors

    pts = []
    while len(pts) < n_total:
        cand = rng.uniform(-1.0, 1.0, size=(4 * n_total, 2)) * cfg.map_radius_m + center
        inside = np.linalg.norm(cand - center, axis=1) <= cfg.map_radius_m
        far = np.all(
            np.linalg.norm(cand[:, None, :] - sites[None, :, :], axis=2) >= cfg.site_exclusion_m,
            axis=1,
        )
        keep = cand[inside & far]
        pts.extend(keep.tolist())
    pos = np.asarray(pts[:n_total])

    rss = _surface_dbm(pos, cfg, shadow)
    cmin, cmax = pos.min(axis=0), pos.max(axis=0)
    coords = (pos - cmin) / (cmax - cmin)

    # RSS normalization anchored on a dense reference grid so the truth
    # surface stays inside [0, 1] everywhere, not just at the sampled points
    gx = np.linspace(-cfg.map_radius_m, cfg.map_radius_m, 201)
    gxx, gyy = np.meshgrid(gx, gx)
    grid = np.stack([gxx.ravel(), gyy.ravel()], axis=1) + center
    in_disk = np.linalg.norm(grid - center, axis=1) <= cfg.map_radius_m
    far_grid = np.all(
        np.linalg.norm(grid[:, None, :] - sites[None, :, :], axis=2) >= cfg.site_exclusion_m, axis=1
    )
    ref = _surface_dbm(grid[in_disk & far_grid], cfg, shadow)
    rss_min = float(min(ref.min(), rss.min()))
    rss_max = float(max(ref.max(), rss.max()))
    y = (rss - rss_min) / (rss_max - rss_min)

    order = rng.permutation(n_total)
    datasets = []
    for k in range(cfg.n_sensors):
        idx = order[k * cfg.local_n : (k + 1) * cfg.local_n]
        datasets.append(RssDataset(x=coords[idx], y=y[idx], owner=k, epsilon_k=1.0 / cfg.n_sensors))
    return RssMap(
        datasets=datasets,
        sites_norm=(sites - cmin) / (cmax - cmin),
        rss_min_dbm=rss_min,
        rss_max_dbm=rss_max,
        coord_min_m=cmin,
        coord_max_m=cmax,
        cfg=cfg,
        _shadow=shadow,
    )


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

def _layout():
    spans = []
    pos = 0
    for fan_in, fan_out in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]):
        spans.append((pos, pos + fan_in * fan_out, pos + fan_in * fan_out + fan_out))
        pos += fan_in * fan_out + fan_out
    return spans, pos


_SPANS, N_PARAMS = _layout()


@dataclass
class MlpModel:
    """Flat-parameter MLP; the flattening order is (W1, b1, W2, b2, W3, b3)."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.shape != (N_PARAMS,):
            raise ValueError(f"expected {N_PARAMS} parameters, got {self.w.shape}")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("non-finite parameters")

    def unpack(self):
        out = []
        for (start, mid, end), (fan_in, fan_out) in zip(_SPANS, zip(LAYER_SIZES[:-1], LAYER_SIZES[1:])):
            out.append((self.w[start:mid].reshape(fan_in, fan_out), self.w[mid:end]))
        return out

    def copy(self) -> "MlpModel":
        return MlpModel(self.w.copy())


def init_model(seed: int) -> MlpModel:
    """Glorot-uniform initialization, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    chunks = []
    for fan_in, fan_out in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return MlpModel(np.concatenate(chunks))


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Predict normalized RSS for (n, 2) coordinates; returns (n,)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a = x
    layers = model.unpack()
    for w, b in layers[:-1]:
        a = np.maximum(a @ w + b, 0.0)
    w, b = layers[-1]
    return (a @ w + b).ravel()


def mse_loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    pred = forward(model, x)
    return float(np.mean((pred - np.asarray(y).ravel()) ** 2))


def batch_sq_loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """Summed squared error over a batch: the quantity the gradient descends."""
    pred = forward(model, x)
    return float(np.sum((pred - np.asarray(y).ravel()) ** 2))


def local_gradient(model: MlpModel, dataset: RssDataset, batch_idx: np.ndarray,
                   epsilon_k: float | None = None) -> np.ndarray:
    """epsilon_k-weighted gradient of the batch's summed squared error.

    Summing (not averaging) over the batch pairs with the eta = 2/(2000+t)
    schedule: the product lands at an effective mean-loss step near 0.2 that
    actually trains the network within a few thousand rounds.
    """
    if len(batch_idx) == 0:
        raise ValueError("empty batch")
    eps = dataset.epsilon_k if epsilon_k is None else epsilon_k
    x = dataset.x[batch_idx]
    y = dataset.y[batch_idx]
    layers = model.unpack()
    acts = [x]
    pre = []
    a = x
    for w, b in layers[:-1]:
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    w_last, b_last = layers[-1]
    pred = (acts[-1] @ w_last + b_last).ravel()

    delta = 2.0 * (pred - y)[:, None]          # d(sum sq err)/d(pred)
    grads = [None] * len(layers)
    grads[-1] = (acts[-1].T @ delta, delta.sum(axis=0))
    back = delta @ w_last.T
    for li in range(len(layers) - 2, -1, -1):
        back = back * (pre[li] > 0.0)
        grads[li] = (acts[li].T @ back, back.sum(axis=0))
        if li > 0:
            back = back @ layers[li][0].T
    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return eps * flat


def global_update(model: MlpModel, aggregate: np.ndarray, eta_t: float) -> MlpModel:
    """SGD step w <- w - eta * g; a non-finite aggregate rejects the round."""
    aggregate = np.asarray(aggregate, dtype=float)
    if not np.all(np.isfinite(aggregate)):
        return model
    return MlpModel(model.w - eta_t * aggregate)


def eta_schedule(cfg: TrainConfig, t: int) -> float:
    return cfg.eta_num / (cfg.eta_offset + t)


# ---------------------------------------------------------------------------
# gradient <-> PAM payload mapping
# ---------------------------------------------------------------------------

def payload_scale(vectors, bound: float, q: float = 1.0) -> float:
    """Common per-round scale: bound over the largest reference peak across senders.

    ``vectors`` holds one equal-length payload per sender (a list or a
    (senders, n) array); one quantile call covers them all.  The default
    reference is the true maximum, which never clips and keeps noiseless
    aggregation exactly linear.  A quantile below one trades a clipped tail
    for more amplitude resolution on everything else.
    """
    peak = float(np.max(np.quantile(np.abs(np.asarray(vectors, dtype=float)), q, axis=-1)))
    if peak == 0.0:
        return 1.0
    return bound / peak


def chunk_payload(g: np.ndarray, n_carriers: int, scale: float):
    """Scale, clip to [-1, 1], zero-pad, and split into per-symbol vectors.

    Returns the (n_chunks, n_carriers) chunks and the payload length; a
    (senders, n) stack gives one block of chunks per sender.
    """
    g = np.asarray(g, dtype=float)
    v = np.clip(g * scale, -1.0, 1.0)
    n = g.shape[-1]
    n_chunks = max(1, int(np.ceil(n / n_carriers)))
    padded = np.zeros(g.shape[:-1] + (n_chunks * n_carriers,))
    padded[..., :n] = v
    return padded.reshape(g.shape[:-1] + (n_chunks, n_carriers)), n


def dechunk_payload(chunks: list[np.ndarray], n_values: int, scale: float) -> np.ndarray:
    flat = np.concatenate([np.asarray(c, dtype=float) for c in chunks])
    if n_values > len(flat):
        raise ValueError("declared payload length exceeds the chunked data")
    return flat[:n_values] / scale


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def heatmap_grid(rss: RssMap, n: int | None = None) -> np.ndarray:
    """Normalized coordinates of the evaluation grid inside the map disk,
    excluding the exclusion disks around the transmitter sites."""
    cfg = rss.cfg
    n = cfg.heatmap_n if n is None else n
    sites = np.asarray(cfg.sites)
    center = sites.mean(axis=0)
    g = np.linspace(-cfg.map_radius_m, cfg.map_radius_m, n)
    gx, gy = np.meshgrid(g, g)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1) + center
    keep = (np.linalg.norm(pts - center, axis=1) <= cfg.map_radius_m) & np.all(
        np.linalg.norm(pts[:, None, :] - sites[None, :, :], axis=2) >= cfg.site_exclusion_m, axis=1
    )
    return rss.to_norm(pts[keep])


def heatmap_nmse(model: MlpModel, rss: RssMap, n: int | None = None):
    """Per-cell squared prediction error normalized by the grid's mean square
    of the true surface; returns (cells, coords)."""
    coords = heatmap_grid(rss, n)
    truth = rss.truth_norm(coords)
    pred = forward(model, coords)
    cells = (pred - truth) ** 2 / float(np.mean(truth**2))
    return cells, coords


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

def batch_indices(cfg: TrainConfig, seed: int, t: int, sensor: int, n: int) -> np.ndarray:
    """The round-t batch draw for one sensor, shared by paired runs."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7919, t, sensor)))
    return rng.choice(n, size=cfg.batch_size, replace=False)


def train(cfg: TrainConfig, rss: RssMap, seed: int, aggregate) -> tuple[MlpModel, np.ndarray]:
    """SGD on the sum of the sensors' local gradients, one step per round.

    ``aggregate(grads)`` turns the per-sensor gradients of a round into the
    summed update.  Every run starts from ``init_model(seed)`` and draws the
    shared batch schedule, so two runs that differ only in ``aggregate`` are
    comparable round by round.
    """
    model = init_model(seed)
    all_x = np.concatenate([d.x for d in rss.datasets])
    all_y = np.concatenate([d.y for d in rss.datasets])
    losses = np.empty(cfg.rounds)
    for t in range(cfg.rounds):
        grads = [
            local_gradient(model, ds, batch_indices(cfg, seed, t, k, len(ds.y)))
            for k, ds in enumerate(rss.datasets)
        ]
        model = global_update(model, aggregate(grads), eta_schedule(cfg, t))
        losses[t] = mse_loss(model, all_x, all_y)
    return model, losses


def offline_baseline(cfg: TrainConfig, rss: RssMap, seed: int) -> tuple[MlpModel, np.ndarray]:
    """Noiseless aggregation twin: exact sum of local gradients every round."""
    return train(cfg, rss, seed, lambda grads: sum(grads, np.zeros(N_PARAMS)))
