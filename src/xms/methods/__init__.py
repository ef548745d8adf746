"""Method fitters and the PCA-aware fitting front end."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from ..dataset_io import PairedMultimodalDataset
from ..errors import ConfigError, is_int, is_real
from ..preprocess import pca_apply, pca_fit
from .cca import _RidgeConfig, fit_cca, fit_cca3v
from .cdfe import CdfeConfig, fit_cdfe
from .coupled import LcfsConfig, SparseCoupledConfig, fit_jfssl, fit_lcfs
from .gma import VARIANTS, GmaConfig, GmmfaConfig, fit_gma
from .model import METHOD_NAMES, SubspaceModel, load_model, project, save_model
from .pls import fit_pls

__all__ = [
    "METHOD_NAMES",
    "CdfeConfig",
    "GmaConfig",
    "GmmfaConfig",
    "LcfsConfig",
    "SparseCoupledConfig",
    "SubspaceModel",
    "check_request",
    "fit_cca",
    "fit_cca3v",
    "fit_cdfe",
    "fit_gma",
    "fit_jfssl",
    "fit_lcfs",
    "fit_method",
    "fit_pls",
    "load_model",
    "method_config",
    "project",
    "save_model",
]


def _method_key(name) -> str:
    """``name`` stripped, in lower case and without ``-`` and ``_``; a name that is not a string is ``bad_config``."""
    if not isinstance(name, str):
        raise ConfigError("bad_config", f"method name must be a string, got {name!r}")
    return name.strip().lower().replace("-", "").replace("_", "")


def normalize_method_name(name: str) -> str:
    canonical = _method_key(name)
    if canonical not in METHOD_NAMES:
        raise ConfigError("bad_method", f"unknown method {name!r}; choose from {', '.join(METHOD_NAMES)}")
    return canonical


def _pca_options(pca: dict | None) -> dict:
    """``pca_fit``'s keyword arguments for a PCA spec; ``{}`` for no PCA (None or an empty mapping).

    A spec is ``{"mode": "energy", "value": <finite number in (0, 1]>}`` or
    ``{"mode": "dim", "value": <integer >= 1>}`` (neither a bool, and no other
    key); anything else raises ``bad_pca``.  ``pca_fit`` still checks the
    dimension against the data.
    """
    if pca is None or pca == {}:
        return {}
    spec = pca if isinstance(pca, dict) and set(pca) <= {"mode", "value"} else {}
    kind, value = spec.get("mode"), spec.get("value")
    if kind == "energy" and is_real(value) and 0 < value <= 1:
        return {"energy": float(value)}
    if kind == "dim" and is_int(value) and value >= 1:
        return {"k": int(value)}
    raise ConfigError(
        "bad_pca", f"pca must be {{'mode': 'energy', 'value': 0 < v <= 1}} or {{'mode': 'dim', 'value': int >= 1}}, got {pca!r}"
    )


class SplitContext:
    """State of one training split that every fit on it shares.

    Each piece is computed on first use and then kept: the PCA of each spec,
    and whatever a fitter derives from the split alone (``memo``), never from
    its hyperparameters.  Holding the context keeps that state alive;
    dropping it frees the split.  A context that ``pca`` made carries the
    reduced split with its PCA models and their fit time.
    """

    def __init__(self, train: PairedMultimodalDataset, pca_a=None, pca_b=None, pca_seconds: float = 0.0):
        self.train = train
        self.pca_a, self.pca_b, self.pca_seconds = pca_a, pca_b, pca_seconds
        self._memo = {}

    def memo(self, key, build):
        """``build()`` on the first request for ``key``, the kept value after that."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def pca(self, pca: dict | None) -> SplitContext:
        """The split reduced by one PCA spec, fitted per modality on the
        training views (``self`` itself when there is none)."""
        options = _pca_options(pca)
        if not options:
            return self

        def build():
            t0 = time.perf_counter()
            train = self.train
            pca_a, pca_b = pca_fit(train.xa, **options), pca_fit(train.xb, **options)
            reduced = replace(train, xa=pca_apply(pca_a, train.xa), xb=pca_apply(pca_b, train.xb))
            return SplitContext(reduced, pca_a, pca_b, time.perf_counter() - t0)

        return self.memo(("pca", *options.items()), build)


@dataclass(frozen=True)
class _NoConfig:
    pass


# name -> (config class, fitter(context, dim, config), whether ``dim`` may be set);
# the fitters are looked up when called, so patching a module attribute reaches them.
_METHODS = {
    "cca": (_RidgeConfig, lambda ctx, dim, cfg: fit_cca(ctx.train, d=dim, ridge=cfg.ridge), True),
    "pls": (_NoConfig, lambda ctx, dim, cfg: fit_pls(ctx.train, d=dim), True),
    "blm": (VARIANTS["blm"][0], lambda ctx, dim, cfg: fit_gma(ctx.train, "blm", dim, cfg), True),
    "gmlda": (VARIANTS["gmlda"][0], lambda ctx, dim, cfg: fit_gma(ctx.train, "gmlda", dim, cfg), True),
    "gmmfa": (VARIANTS["gmmfa"][0], lambda ctx, dim, cfg: fit_gma(ctx.train, "gmmfa", dim, cfg), True),
    "cdfe": (CdfeConfig, lambda ctx, dim, cfg: fit_cdfe(ctx.train, d=dim, config=cfg), True),
    "cca3v": (_RidgeConfig, lambda ctx, dim, cfg: fit_cca3v(ctx.train, d=dim, ridge=cfg.ridge), True),
    "lcfs": (LcfsConfig, lambda ctx, dim, cfg: fit_lcfs(ctx.train, config=cfg, context=ctx), False),
    "jfssl": (SparseCoupledConfig, lambda ctx, dim, cfg: fit_jfssl(ctx.train, config=cfg, context=ctx), False),
}


def method_config(method: str, hyperparams: dict | None = None):
    """The config of a named method built from ``hyperparams``; an unknown
    name raises ``bad_method``, an unknown key or out-of-range value
    ``bad_hyperparam``.  None of this depends on the data."""
    method = normalize_method_name(method)
    try:
        return _METHODS[method][0](**(hyperparams or {}))
    except TypeError as exc:
        raise ConfigError("bad_hyperparam", f"{method}: {exc}") from exc


def check_request(method: str, dim: int | None = None, pca: dict | None = None, hyperparams: dict | None = None):
    """``(normalized name, config)`` of a fit request, checked without the data in one order: the types
    (``bad_config``: the name is a string, ``dim`` None or an integer, ``hyperparams`` None or a mapping),
    the PCA spec (``bad_pca``), the name (``bad_method``), the hyperparameters (``bad_hyperparam``), and
    whether the method takes a ``dim`` (``bad_dim``).  The range of ``dim`` needs the data; the fitter checks it."""
    method = _method_key(method)
    if not (dim is None or is_int(dim)):
        raise ConfigError("bad_config", f"dim must be an integer or None, got {dim!r}")
    if not (hyperparams is None or isinstance(hyperparams, dict)):
        raise ConfigError("bad_config", f"hyperparams must be a mapping, got {hyperparams!r}")
    _pca_options(pca)
    config = method_config(method, hyperparams)
    if dim is not None and not _METHODS[method][2]:
        raise ConfigError("bad_dim", f"{method} projects into the label space; its dimension is fixed at c")
    return method, config


def fit_method(
    train: PairedMultimodalDataset,
    method: str,
    dim: int | None = None,
    pca: dict | None = None,
    hyperparams: dict | None = None,
    context: SplitContext | None = None,
) -> SubspaceModel:
    """Fit one named method, optionally behind per-modality PCA.

    ``pca`` is ``{"mode": "energy"|"dim", "value": ...}`` or None.  PCA is fit
    on the training views only and folded into the returned model so that
    ``project`` accepts raw-space features.  ``fit_seconds`` covers only the
    method fit, not the PCA.  ``context``, a ``SplitContext`` of ``train``,
    lets several fits on one split share its PCA and derived state; without
    one, nothing outlives the call.
    """
    method, config = check_request(method, dim, pca, hyperparams)
    if context is None:
        context = SplitContext(train)
    elif context.train is not train:
        raise ConfigError("bad_config", "the context belongs to another training split")

    reduced = context.pca(pca)
    model = _METHODS[method][1](reduced, dim, config)
    if reduced.pca_a is not None:
        model = replace(model, pca_a=reduced.pca_a, pca_b=reduced.pca_b)
    return model
