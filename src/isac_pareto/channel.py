"""Clustered mmWave channel synthesis, ULA steering vectors, and path loss.

Channels are frequency-flat vectors toward single-antenna users, built as a
sum of clustered rays with Laplacian angular offsets around uniformly drawn
cluster centers. All randomness flows through an explicit Rng stream so a
trial index fully determines its channel realization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .numerics import Rng

__all__ = [
    "ArrayGeometry",
    "ChannelSet",
    "steering_vector",
    "path_loss_db",
    "generate_channels",
    "dump_channels",
    "load_channels",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and spacing in wavelengths."""

    n_elements: int
    spacing_over_lambda: float = 0.5

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        if self.spacing_over_lambda <= 0:
            raise ValueError("spacing_over_lambda must be positive")


@dataclass(frozen=True)
class ChannelSet:
    """Per-user channel vectors with the angles/distances that produced them.

    h has shape (M, N_t); h[m] is the channel of user m.
    """

    h: np.ndarray
    cu_angles: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        if self.h.ndim != 2 or self.h.shape[0] < 1 or self.h.shape[1] < 1:
            raise ValueError("h must be a nonempty (M, N_t) array")
        if not np.all(np.isfinite(self.h)):
            raise ValueError("channel entries must be finite")
        if np.any(np.all(self.h == 0, axis=1)):
            raise ValueError("a channel vector is identically zero")

    @property
    def n_tx(self) -> int:
        return self.h.shape[1]


def steering_vector(angle_deg: float, geom: ArrayGeometry) -> np.ndarray:
    """Unit-norm ULA response toward `angle_deg` (broadside = 0).

    Entry k is exp(j*2*pi*spacing*k*sin(angle)) / sqrt(N).
    """
    if not -90.0 <= angle_deg <= 90.0:
        raise ValueError(f"angle must lie in [-90, 90] degrees, got {angle_deg}")
    n = geom.n_elements
    phase = 2.0 * np.pi * geom.spacing_over_lambda * np.sin(np.deg2rad(angle_deg))
    return np.exp(1j * phase * np.arange(n)) / np.sqrt(n)


def steering_matrix(angles_deg, geom: ArrayGeometry) -> np.ndarray:
    """Stack steering vectors as columns, one per angle."""
    return np.column_stack([steering_vector(a, geom) for a in np.atleast_1d(angles_deg)])


def path_loss_db(distance_m: float, shadow_db: float = 0.0) -> float:
    """Distance-dependent loss 61.4 + 20*log10(d) plus a shadowing term, in dB."""
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    return 61.4 + 20.0 * np.log10(distance_m) + shadow_db


def _laplacian_offsets(rng: np.random.Generator, center: float, scale: float, count: int) -> np.ndarray:
    """Laplacian ray offsets around a cluster center, resampled into [-90, 90]."""
    angles = np.empty(count)
    filled = 0
    while filled < count:
        draw = center + rng.laplace(0.0, scale, size=count - filled)
        keep = draw[(draw >= -90.0) & (draw <= 90.0)]
        angles[filled:filled + keep.size] = keep
        filled += keep.size
    return angles


def generate_channels(cfg, rng: Rng) -> ChannelSet:
    """Draw one channel realization for every user in the scenario.

    Per user: cluster centers uniform in [-90, 90] degrees, Laplacian ray
    offsets whose standard deviation equals the configured angular spread,
    and complex ray gains CN(0, 10^(-PL/10)) with the path loss evaluated at
    the user's distance including a fresh shadowing draw. Rays are summed
    with the sqrt(N_t / (N_clu * N_ray)) normalization.
    """
    gen = rng.generator()
    return _generate_channels_with(cfg, gen)


def _generate_channels_with(cfg, gen: np.random.Generator) -> ChannelSet:
    geom = ArrayGeometry(cfg.n_tx, cfg.spacing_over_lambda)
    m_users = cfg.n_cu
    n_paths = cfg.n_clu * cfg.n_ray
    # Laplace scale chosen so the offset standard deviation is the spread.
    lap_scale = cfg.angular_spread_deg / np.sqrt(2.0)

    if cfg.distances_m is not None:
        distances = np.asarray(cfg.distances_m, dtype=float)
    else:
        distances = gen.uniform(10.0, 100.0, size=m_users)
    if cfg.cu_angles_deg is not None:
        cu_angles = np.asarray(cfg.cu_angles_deg, dtype=float)
    else:
        cu_angles = gen.uniform(-90.0, 90.0, size=m_users)

    h = np.zeros((m_users, cfg.n_tx), dtype=np.complex128)
    for m in range(m_users):
        shadow = gen.normal(0.0, cfg.shadow_std_db) if cfg.shadow_std_db > 0 else 0.0
        pl_db = path_loss_db(distances[m], shadow)
        gain_var = 10.0 ** (-0.1 * pl_db)
        centers = gen.uniform(-90.0, 90.0, size=cfg.n_clu)
        accum = np.zeros(cfg.n_tx, dtype=np.complex128)
        for center in centers:
            rays = _laplacian_offsets(gen, center, lap_scale, cfg.n_ray)
            alphas = np.sqrt(gain_var / 2.0) * (
                gen.normal(size=cfg.n_ray) + 1j * gen.normal(size=cfg.n_ray)
            )
            for alpha, ray in zip(alphas, rays):
                accum += alpha * steering_vector(ray, geom)
        h[m] = np.sqrt(cfg.n_tx / n_paths) * accum
    return ChannelSet(h=h, cu_angles=cu_angles, distances=distances)


def dump_channels(ch: ChannelSet) -> str:
    """Serialize a ChannelSet as JSON (complex entries as [re, im] pairs)."""
    payload = {
        "h": [[[v.real, v.imag] for v in row] for row in ch.h],
        "cu_angles": ch.cu_angles.tolist(),
        "distances": ch.distances.tolist(),
    }
    return json.dumps(payload)


def load_channels(text: str) -> ChannelSet:
    """Inverse of dump_channels."""
    payload = json.loads(text)
    h = np.array(
        [[complex(re, im) for re, im in row] for row in payload["h"]],
        dtype=np.complex128,
    )
    return ChannelSet(
        h=h,
        cu_angles=np.asarray(payload["cu_angles"], dtype=float),
        distances=np.asarray(payload["distances"], dtype=float),
    )
