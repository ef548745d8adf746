"""Fitted subspace models: projection, preprocessing state, and file IO."""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from ..dataset_io import (
    FeatureMatrix,
    PairedMultimodalDataset,
    json_default,
    read_exact,
    read_matrix_stream,
    write_matrix_stream,
)
from ..errors import ConfigError, DataError, is_int
from ..preprocess import PcaModel, center_fit, pca_apply

METHOD_NAMES = ("cca", "pls", "blm", "gmlda", "gmmfa", "cdfe", "cca3v", "lcfs", "jfssl")

_MODEL_MAGIC = b"XMSM"


@dataclass(frozen=True)
class SubspaceModel:
    """Learned projection pair (wa, wb) mapping both modalities into d dims.

    Each modality is transformed before its projection: by ``pca_*`` when it
    is set, then by subtracting ``center_*``, which lives in the space the
    projections were fitted in (the PCA output space when ``pca_*`` is set,
    the raw space otherwise).
    """

    wa: np.ndarray
    wb: np.ndarray
    method: str
    d: int
    center_a: np.ndarray
    center_b: np.ndarray
    pca_a: PcaModel | None = None
    pca_b: PcaModel | None = None
    hyperparams: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    fit_seconds: float = 0.0

    def __post_init__(self):
        if self.method not in METHOD_NAMES:
            raise ConfigError("bad_method", f"unknown method {self.method!r}")
        if self.wa.shape[1] != self.d or self.wb.shape[1] != self.d:
            raise ConfigError("bad_dim", "wa and wb must both have d columns")
        for p, w, center, pca in (("a", self.wa, self.center_a, self.pca_a), ("b", self.wb, self.center_b, self.pca_b)):
            if np.shape(center) != (w.shape[0],):
                raise ConfigError("dim_mismatch", f"center_{p} needs one entry per row of w{p} ({w.shape[0]})")
            if pca is not None and pca.k != w.shape[0]:
                raise ConfigError("dim_mismatch", f"pca_{p} keeps {pca.k} dims, but w{p} has {w.shape[0]} rows")
        if not (np.isfinite(self.wa).all() and np.isfinite(self.wb).all()):
            raise ConfigError("non_finite", "projection matrices contain NaN or Inf")

    @property
    def objective_trace(self) -> np.ndarray | None:
        trace = self.metadata.get("objective_trace")
        return None if trace is None else np.asarray(trace, dtype=np.float64)


def _own_config(config, config_class, method: str):
    """A fitter's ``config``, or ``config_class()`` for None; a config that is not a ``config_class``
    (a subclass is one) raises ``bad_hyperparam`` before a missing field can."""
    if config is None:
        return config_class()
    if not isinstance(config, config_class):
        raise ConfigError("bad_hyperparam", f"{method} reads a {config_class.__name__}, got a {type(config).__name__}")
    return config


def _fit_closed_form(
    train: PairedMultimodalDataset, method: str, d: int | None, d_max: int, solve, supervised: bool = False
) -> SubspaceModel:
    """The front end of the closed-form fitters.

    It centers both training views; for ``d`` None takes the one default,
    min(30, ``d_max``, d_a, d_b), which a ``supervised`` method (one that reads
    labels) caps at c - 1 but not below 1; checks 1 <= d <= ``d_max``
    (``bad_dim``); and calls ``solve(xa, xb, d)`` on the centered views, which
    returns ``(wa, wb, hyperparams, metadata)``.  The model keeps the training
    means as its centers, and ``fit_seconds`` covers all of it.
    """
    t0 = time.perf_counter()
    mean_a, xa = center_fit(train.xa)
    mean_b, xb = center_fit(train.xb)
    if d is None:
        d = min(30, d_max, train.d_a, train.d_b)
        if supervised:
            d = max(min(train.c - 1, d), 1)
    if not (is_int(d) and 1 <= d <= d_max):
        raise ConfigError("bad_dim", f"d must lie in 1..{d_max}, got {d}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing product fails a finiteness check instead
        wa, wb, hyperparams, metadata = solve(xa, xb, d)
    return SubspaceModel(
        wa=wa,
        wb=wb,
        method=method,
        d=d,
        center_a=mean_a,
        center_b=mean_b,
        hyperparams=hyperparams,
        metadata=metadata,
        fit_seconds=time.perf_counter() - t0,
    )


def project(model: SubspaceModel, x: FeatureMatrix, modality: str) -> FeatureMatrix:
    """Map raw-space features of one modality into the common subspace."""
    if modality == "a":
        w, pca, center = model.wa, model.pca_a, model.center_a
    elif modality == "b":
        w, pca, center = model.wb, model.pca_b, model.center_b
    else:
        raise ConfigError("bad_modality", f"modality must be 'a' or 'b', got {modality!r}")
    if pca is not None:
        z = pca_apply(pca, x).values
    else:
        if x.d != w.shape[0]:
            raise ConfigError("dim_mismatch", f"modality {modality} expects d={w.shape[0]}, got {x.d}")
        z = x.values
    return FeatureMatrix(w.T @ (z - center[:, None]))


def _as_row(vec: np.ndarray) -> np.ndarray:
    return np.asarray(vec, dtype=np.float64).reshape(1, -1)


def save_model(model: SubspaceModel, path) -> None:
    """Single-file model format: JSON header, then XMS1 matrix blocks.

    Layout: magic ``XMSM``, uint64 header length, UTF-8 JSON header, then the
    matrix blocks named (in order) by the header's ``blocks`` list.
    """
    blocks: list[tuple[str, np.ndarray]] = [
        ("wa", model.wa),
        ("wb", model.wb),
        ("center_a", _as_row(model.center_a)),
        ("center_b", _as_row(model.center_b)),
    ]
    for name, pca in (("pca_a", model.pca_a), ("pca_b", model.pca_b)):
        if pca is not None:
            blocks.append((f"{name}_mean", _as_row(pca.mean)))
            blocks.append((f"{name}_basis", pca.basis))
            blocks.append((f"{name}_eigenvalues", _as_row(pca.eigenvalues)))
    header = {
        "format": "xms-model-1",
        "method": model.method,
        "d": int(model.d),
        "hyperparams": model.hyperparams,
        "metadata": model.metadata,
        "fit_seconds": model.fit_seconds,
        "blocks": [name for name, _ in blocks],
    }
    payload = json.dumps(header, default=json_default).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        for _, values in blocks:
            write_matrix_stream(fh, values)


def load_model(path) -> SubspaceModel:
    """Read a ``save_model`` file; a truncated or malformed one raises ``DataError("malformed_file")``."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12 or head[:4] != _MODEL_MAGIC:
            raise DataError("malformed_file", f"{path}: not an xms model file")
        (header_len,) = struct.unpack("<Q", head[4:])
        try:
            header = json.loads(read_exact(fh, header_len, f"{path}: truncated model header").decode("utf-8"))
            return _model_from(header, {name: read_matrix_stream(fh, name) for name in header["blocks"]})
        # ValueError covers bad UTF-8 and JSON; ConfigError, a header that contradicts its blocks
        except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:
            raise DataError("malformed_file", f"{path}: bad model header: {exc!r}") from exc


def _model_from(header: dict, blocks: dict) -> SubspaceModel:
    def pca_from(name: str) -> PcaModel | None:
        if f"{name}_basis" not in blocks:
            return None
        return PcaModel(
            mean=blocks[f"{name}_mean"].ravel(),
            basis=blocks[f"{name}_basis"],
            eigenvalues=blocks[f"{name}_eigenvalues"].ravel(),
        )

    return SubspaceModel(
        wa=blocks["wa"],
        wb=blocks["wb"],
        method=header["method"],
        d=int(header["d"]),
        center_a=blocks["center_a"].ravel(),
        center_b=blocks["center_b"].ravel(),
        pca_a=pca_from("pca_a"),
        pca_b=pca_from("pca_b"),
        hyperparams=header.get("hyperparams", {}),
        metadata=header.get("metadata", {}),
        fit_seconds=float(header.get("fit_seconds", 0.0)),
    )
