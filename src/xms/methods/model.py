"""Fitted subspace models: projection, preprocessing state, and file IO."""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from ..dataset_io import FeatureMatrix, PairedMultimodalDataset, read_matrix_stream, write_matrix_stream
from ..errors import ConfigError, DataError
from ..preprocess import PcaModel, center_fit, pca_apply

METHOD_NAMES = ("cca", "pls", "blm", "gmlda", "gmmfa", "cdfe", "cca3v", "lcfs", "jfssl")

_MODEL_MAGIC = b"XMSM"


@dataclass(frozen=True)
class Preprocessing:
    """Per-modality transform applied before the projection matrices.

    ``center_*`` lives in the space the projections were fitted in (the PCA
    output space when ``pca_*`` is set, the raw space otherwise).
    """

    center_a: np.ndarray
    center_b: np.ndarray
    pca_a: PcaModel | None = None
    pca_b: PcaModel | None = None


@dataclass(frozen=True)
class SubspaceModel:
    """Learned projection pair (wa, wb) mapping both modalities into d dims."""

    wa: np.ndarray
    wb: np.ndarray
    method: str
    d: int
    preprocessing: Preprocessing
    hyperparams: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    fit_seconds: float = 0.0

    def __post_init__(self):
        if self.method not in METHOD_NAMES:
            raise ConfigError("bad_method", f"unknown method {self.method!r}")
        if self.wa.shape[1] != self.d or self.wb.shape[1] != self.d:
            raise ConfigError("bad_dim", "wa and wb must both have d columns")
        if not (np.isfinite(self.wa).all() and np.isfinite(self.wb).all()):
            raise ConfigError("non_finite", "projection matrices contain NaN or Inf")

    @property
    def objective_trace(self) -> np.ndarray | None:
        trace = self.metadata.get("objective_trace")
        return None if trace is None else np.asarray(trace, dtype=np.float64)


def _fit_closed_form(
    train: PairedMultimodalDataset, method: str, d: int | None, d_max: int, default_d: int, solve
) -> SubspaceModel:
    """The front end of the closed-form fitters.

    It centers both training views, takes ``default_d`` when ``d`` is None,
    checks 1 <= d <= ``d_max`` (``bad_dim``), and calls ``solve(xa, xb, d)``
    on the centered views, which returns ``(wa, wb, hyperparams, metadata)``.
    The model keeps the training means as its centers, and ``fit_seconds``
    covers all of it.
    """
    t0 = time.perf_counter()
    mean_a, xa = center_fit(train.xa)
    mean_b, xb = center_fit(train.xb)
    d = default_d if d is None else d
    if not 1 <= d <= d_max:
        raise ConfigError("bad_dim", f"d must lie in 1..{d_max}, got {d}")
    wa, wb, hyperparams, metadata = solve(xa, xb, d)
    return SubspaceModel(
        wa=wa,
        wb=wb,
        method=method,
        d=d,
        preprocessing=Preprocessing(center_a=mean_a, center_b=mean_b),
        hyperparams=hyperparams,
        metadata=metadata,
        fit_seconds=time.perf_counter() - t0,
    )


def project(model: SubspaceModel, x: FeatureMatrix, modality: str) -> FeatureMatrix:
    """Map raw-space features of one modality into the common subspace."""
    if modality == "a":
        w, pca, center = model.wa, model.preprocessing.pca_a, model.preprocessing.center_a
    elif modality == "b":
        w, pca, center = model.wb, model.preprocessing.pca_b, model.preprocessing.center_b
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
        ("center_a", _as_row(model.preprocessing.center_a)),
        ("center_b", _as_row(model.preprocessing.center_b)),
    ]
    for name, pca in (("pca_a", model.preprocessing.pca_a), ("pca_b", model.preprocessing.pca_b)):
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
    payload = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        for _, values in blocks:
            write_matrix_stream(fh, values)


def load_model(path) -> SubspaceModel:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MODEL_MAGIC:
            raise DataError("malformed_file", f"{path}: not an xms model file")
        (header_len,) = struct.unpack("<Q", fh.read(8))
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError("malformed_file", f"{path}: bad model header: {exc}") from exc
        blocks = {name: read_matrix_stream(fh, name) for name in header["blocks"]}

    def pca_from(name: str) -> PcaModel | None:
        if f"{name}_basis" not in blocks:
            return None
        return PcaModel(
            mean=blocks[f"{name}_mean"].ravel(),
            basis=blocks[f"{name}_basis"],
            eigenvalues=blocks[f"{name}_eigenvalues"].ravel(),
        )

    preprocessing = Preprocessing(
        center_a=blocks["center_a"].ravel(),
        center_b=blocks["center_b"].ravel(),
        pca_a=pca_from("pca_a"),
        pca_b=pca_from("pca_b"),
    )
    return SubspaceModel(
        wa=blocks["wa"],
        wb=blocks["wb"],
        method=header["method"],
        d=int(header["d"]),
        preprocessing=preprocessing,
        hyperparams=header.get("hyperparams", {}),
        metadata=header.get("metadata", {}),
        fit_seconds=float(header.get("fit_seconds", 0.0)),
    )
