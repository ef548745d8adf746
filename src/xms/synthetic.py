"""Synthetic paired-modality datasets with planted class and pair structure.

Each pair shares one latent vector split into a class part (class mean plus
within-class noise) and an instance part (pair-specific, class-independent).
Every modality observes the latent through its own orthonormal map plus
ambient noise.  Class information is what supervised fitters can exploit;
the instance part creates strong cross-modal correlation that carries no
class signal, so unsupervised correlation-seeking methods spend capacity on
it.  That reproduces, in miniature, the supervised-over-unsupervised gap in
subcategory-level retrieval while keeping instance-level matching possible.
"""

from __future__ import annotations

import numpy as np

from .dataset_io import FeatureMatrix, PairedMultimodalDataset
from .errors import ConfigError, is_int, is_real


def _orthonormal_columns(rng, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q


def make_synthetic_dataset(
    n: int = 400,
    c: int = 3,
    d_a: int = 128,
    d_b: int = 128,
    seed: int = 0,
    class_dim: int = 4,
    instance_dim: int = 24,
    class_sep: float = 4.0,
    within_sd: float = 1.0,
    instance_sd: float = 3.0,
    noise_sd: float = 0.5,
) -> PairedMultimodalDataset:
    counts = dict(n=n, c=c, d_a=d_a, d_b=d_b, seed=seed, class_dim=class_dim, instance_dim=instance_dim)
    if not (all(is_int(v) and v >= 0 for v in counts.values()) and c >= 1):
        raise ConfigError("bad_config", f"synthetic counts and seed must be integers >= 0, c >= 1; got {counts}")
    scales = dict(class_sep=class_sep, within_sd=within_sd, instance_sd=instance_sd, noise_sd=noise_sd)
    if not all(is_real(v) and v >= 0 for v in scales.values()):
        raise ConfigError("bad_config", f"synthetic scales must be finite reals >= 0; got {scales}")
    latent_dim = class_dim + instance_dim
    if min(d_a, d_b) < latent_dim:
        raise ConfigError("bad_dims", f"need d_a, d_b >= class_dim + instance_dim = {latent_dim}")
    if n < c:
        raise ConfigError("bad_dims", "need at least one sample per class")
    rng = np.random.default_rng(seed)

    centers = rng.standard_normal((c, class_dim))
    centers -= centers.mean(axis=0)
    centers *= class_sep / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)

    labels = np.arange(n) % c + 1
    rng.shuffle(labels)

    z_class = centers[labels - 1].T + within_sd * rng.standard_normal((class_dim, n))
    z_inst = instance_sd * rng.standard_normal((instance_dim, n))
    z = np.vstack([z_class, z_inst])

    xa = _orthonormal_columns(rng, d_a, latent_dim) @ z + noise_sd * rng.standard_normal((d_a, n))
    xb = _orthonormal_columns(rng, d_b, latent_dim) @ z + noise_sd * rng.standard_normal((d_b, n))
    return PairedMultimodalDataset(FeatureMatrix(xa), FeatureMatrix(xb), labels, c)
