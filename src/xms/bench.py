"""Repeated-split benchmark protocol, statistics, sweeps, and report emission.

One benchmark run draws ``repetitions`` random train/test splits (repetition
r uses seed ``base_seed + r``), fits every configured method on each training
split, evaluates both query directions on the held-out pairs, and aggregates
min/max/mean/var/std summaries, mean CMC curves, box-plot statistics,
Student's t-tests against a baseline, and fit timings.  The splits run in
parallel, one forked worker process per usable CPU (``_all_runs``).
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import datetime
import inspect
import json
import os
import platform
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np
import scipy

from ._version import __version__
from .dataset_io import (
    FeatureMatrix,
    PairedMultimodalDataset,
    fork_cpu_count,
    json_default,
    load_dataset,
    random_split,
    stratified_split,
    subset,
)
from .errors import ConfigError, DataError, XmsError, is_int
from .methods import SplitContext, check_request, fit_method, method_config, normalize_method_name, project
from .retrieval_eval import evaluate_direction, unit_columns
from .synthetic import make_synthetic_dataset

DIRECTIONS = ("a2b", "b2a")
METRIC_MODES = ("map", "acc_at_k")
DEFAULT_PCA = {"mode": "energy", "value": 0.98}  # the protocol's PCA, and xms fit's default


@dataclass(frozen=True)
class MethodSpec:
    """One benchmark entry: a labelled fit request, checked at construction by ``check_request`` (the range of
    ``dim`` needs the data), and per-metric hyperparameters.  Once the label is a string, every error starts with it."""

    name: str
    label: str
    pca: dict | None = None
    dim: int | None = None
    hyperparams: dict = field(default_factory=dict)
    hyperparams_by_metric: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ConfigError("bad_config", f"method label must be a string, got {self.label!r}")
        by_metric = self.hyperparams_by_metric
        try:
            mappings = isinstance(by_metric, dict) and all(isinstance(block, dict) for block in by_metric.values())
            if not (mappings and set(by_metric) <= set(METRIC_MODES)):
                raise ConfigError(
                    "bad_config", f"hyperparams_by_metric must map 'map' or 'acc_at_k' to mappings, got {by_metric!r}"
                )
            check_request(self.name, self.dim, self.pca, self.hyperparams)
            for metric_mode in by_metric:
                method_config(self.name, self.resolved_hyperparams(metric_mode))
        except ConfigError as exc:
            raise ConfigError(exc.code, f"{self.label}: {exc}") from exc

    def resolved_hyperparams(self, metric_mode: str) -> dict:
        return {**(self.hyperparams or {}), **self.hyperparams_by_metric.get(metric_mode, {})}


@dataclass(frozen=True)
class BenchmarkConfig:
    """A benchmark run, checked at construction apart from ``n_train < n``, which needs the data."""

    dataset: str | os.PathLike | dict
    n_train: int
    methods: tuple[MethodSpec, ...]
    repetitions: int = 50
    base_seed: int = 0
    metric_mode: str = "map"
    acc_k: int = 1
    ap_cutoff: int | None = None
    stratified: bool = False
    l2_normalize: bool = False
    include_pca_in_timing: bool = False

    def __post_init__(self):
        for name in ("n_train", "repetitions", "base_seed", "acc_k"):
            if not is_int(getattr(self, name)):
                raise ConfigError("bad_config", f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("stratified", "l2_normalize", "include_pca_in_timing"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError("bad_config", f"{name} must be true or false, got {getattr(self, name)!r}")
        if isinstance(self.dataset, dict):
            params = self.dataset.get("synthetic")
            known = inspect.signature(make_synthetic_dataset).parameters
            if not (self.dataset.keys() == {"synthetic"} and isinstance(params, dict) and params.keys() <= known.keys()):
                raise ConfigError(
                    "bad_config",
                    f"a dataset mapping must be {{'synthetic': {{...}}}} over {sorted(known)}, got {self.dataset!r}",
                )
        elif not isinstance(self.dataset, (str, os.PathLike)):
            raise ConfigError("bad_config", f"dataset must be a directory path or a mapping, got {self.dataset!r}")
        if not (isinstance(self.methods, tuple) and all(isinstance(spec, MethodSpec) for spec in self.methods)):
            raise ConfigError("bad_config", f"methods must be a tuple of MethodSpec, got {self.methods!r}")
        if not self.methods:
            raise ConfigError("bad_config", "at least one method is required")
        labels = [spec.label for spec in self.methods]
        if len(set(labels)) != len(labels):
            raise ConfigError("bad_config", f"duplicate method labels: {labels}")
        if self.repetitions < 1:
            raise ConfigError("bad_config", "repetitions must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("bad_config", f"base_seed must be >= 0, got {self.base_seed}")
        if self.metric_mode not in METRIC_MODES:
            raise ConfigError("bad_config", f"metric_mode must be 'map' or 'acc_at_k', got {self.metric_mode!r}")
        if self.acc_k < 1:
            raise ConfigError("bad_config", f"acc_k must be >= 1, got {self.acc_k}")
        if not (self.ap_cutoff is None or (is_int(self.ap_cutoff) and self.ap_cutoff >= 1)):
            raise ConfigError("bad_config", f"ap_cutoff must be None or an integer >= 1, got {self.ap_cutoff!r}")


def default_method_specs() -> tuple[MethodSpec, ...]:
    """The nine-method protocol lineup: PCA in front of everything except LCFS/JFSSL.

    The GMA variants get beta = 4 here: the benchmark needs the cross-modal
    coupling term to actually bind the two views, and the per-method default
    (beta = 1) under-couples them on representative data.  All hyperparameters
    are echoed into the report.
    """
    tuned = {"gmlda": {"beta": 4.0}, "gmmfa": {"beta": 4.0}}
    specs = [
        MethodSpec(name, f"pca+{name}", pca=DEFAULT_PCA, hyperparams=tuned.get(name, {}))
        for name in ("cca", "pls", "blm", "gmlda", "gmmfa", "cdfe", "cca3v")
    ]
    specs += [MethodSpec(name, name) for name in ("lcfs", "jfssl")]
    return tuple(specs)


# ---------------------------------------------------------------------------
# statistics


def _sample(values, what: str, min_size: int = 1) -> np.ndarray:
    """``values`` as a float array, refused if it holds fewer than ``min_size`` values
    (``bad_config``) or a NaN or infinity (``non_finite``)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < min_size:
        raise ConfigError("bad_config", f"{what}: a sample of {values.size} values is too short (at least {min_size})")
    if not np.isfinite(values).all():
        raise DataError("non_finite", f"{what}: a sample holds a NaN or infinity")
    return values


def summary_stats(values) -> dict:
    """min/max/mean/var/std with 1/(n-1) variance (0 for a single value)."""
    values = _sample(values, "summary_stats")
    var = float(values.var(ddof=1)) if values.size > 1 else 0.0
    return {
        "min": float(values.min()),
        "max": float(values.max()),
        "mean": float(values.mean()),
        "var": var,
        "std": float(np.sqrt(var)),
    }


def students_t_test(sample_a, sample_b, welch=False) -> dict:
    """Two-sample t-test, pooled-variance Student form by default:
    ``{"t_statistic", "p_value", "significant_at_005"}``.

    The two-sided p-value is ``2 * stdtr(dof, -|t|)`` from the Student t CDF.
    Degenerate convention when both samples have zero variance: p = 1 for
    equal means, p = 0 otherwise.
    """
    a, b = (_sample(sample, "t-test", 2) for sample in (sample_a, sample_b))
    var_a, var_b = a.var(ddof=1), b.var(ddof=1)
    diff = a.mean() - b.mean()
    if var_a == 0.0 and var_b == 0.0:
        t, p = (0.0, 1.0) if diff == 0.0 else (np.inf * np.sign(diff), 0.0)
    else:
        if welch:
            se = np.sqrt(var_a / a.size + var_b / b.size)
            dof = se**4 / ((var_a / a.size) ** 2 / (a.size - 1) + (var_b / b.size) ** 2 / (b.size - 1))
        else:
            pooled = ((a.size - 1) * var_a + (b.size - 1) * var_b) / (a.size + b.size - 2)
            se = np.sqrt(pooled * (1.0 / a.size + 1.0 / b.size))
            dof = a.size + b.size - 2
        t = diff / se
        from scipy.special import stdtr  # loaded here: it adds tens of ms to every xms start

        p = 2.0 * stdtr(dof, -abs(t))
    p = float(min(max(p, 0.0), 1.0))
    return {"t_statistic": float(t), "p_value": p, "significant_at_005": p < 0.05}


def box_stats(values) -> dict:
    """Box-plot statistics, as the report holds them: linear-interpolation quartiles, 1.5 IQR
    whiskers, and the values outside the whiskers as a sorted list."""
    values = _sample(values, "box_stats")
    q25, median, q75 = np.percentile(values, [25, 50, 75])
    iqr = q75 - q25
    low_fence, high_fence = q25 - 1.5 * iqr, q75 + 1.5 * iqr
    inside = values[(values >= low_fence) & (values <= high_fence)]
    outliers = values[(values < low_fence) | (values > high_fence)]
    return {
        "median": float(median),
        "q25": float(q25),
        "q75": float(q75),
        "whisker_low": float(inside.min()),
        "whisker_high": float(inside.max()),
        "outliers": np.sort(outliers).tolist(),
    }


# ---------------------------------------------------------------------------
# protocol runner


def _l2_normalize(dataset: PairedMultimodalDataset) -> PairedMultimodalDataset:
    def norm(x: FeatureMatrix) -> FeatureMatrix:
        return FeatureMatrix(unit_columns(x.values)[0])

    return replace(dataset, xa=norm(dataset.xa), xb=norm(dataset.xb))


def _prepared_data(config: BenchmarkConfig, data) -> PairedMultimodalDataset:
    if data is None:
        spec = config.dataset
        data = make_synthetic_dataset(**spec["synthetic"]) if isinstance(spec, dict) else load_dataset(spec)
    if config.l2_normalize:
        data = _l2_normalize(data)
    if not 0 < config.n_train < data.n:
        raise ConfigError("bad_config", f"n_train must lie in 1..{data.n - 1}, got {config.n_train}")
    return data


def direction_views(model, data: PairedMultimodalDataset) -> dict:
    """Each direction's ``(queries, gallery)``: ``model``'s projections of ``data``'s aligned pairs,
    modality a querying modality b's gallery in ``a2b`` and the other way round in ``b2a``."""
    proj_a, proj_b = project(model, data.xa, "a"), project(model, data.xb, "b")
    return {"a2b": (proj_a, proj_b), "b2a": (proj_b, proj_a)}


def _outcome(spec: MethodSpec, context: SplitContext, test, config: BenchmarkConfig, r: int) -> dict:
    """Fit ``spec`` on the context's split and evaluate both directions on ``test``: the fit seconds
    and each direction's ``{"metric", "cmc"}``, or ``{"failure": {...}}`` for a typed error."""
    try:
        model = fit_method(
            context.train,
            spec.name,
            dim=spec.dim,
            pca=spec.pca,
            hyperparams=spec.resolved_hyperparams(config.metric_mode),
            context=context,
        )
        views = direction_views(model, test)
        evaluations = {d: evaluate_direction(*views[d], test.labels, ap_cutoff=config.ap_cutoff) for d in DIRECTIONS}
    except XmsError as exc:
        return {"failure": {"repetition": r, "code": exc.code, "message": str(exc)}}
    seconds = model.fit_seconds
    if config.include_pca_in_timing:
        seconds += context.pca(spec.pca).pca_seconds
    outcome = {"fit_seconds": seconds}
    for d, evaluation in evaluations.items():
        cmc = evaluation["cmc"]
        if config.metric_mode == "map":
            metric = evaluation["map"]
        else:
            metric = float(cmc[min(config.acc_k, cmc.size) - 1])
        outcome[d] = {"metric": metric, "cmc": cmc}
    return outcome


def _entry(spec: MethodSpec, outcomes, metric_name: str) -> dict:
    """The report's ``methods`` entry of one spec from its outcomes, in repetition order."""
    runs = [outcome for outcome in outcomes if "failure" not in outcome]
    failures = [outcome["failure"] for outcome in outcomes if "failure" in outcome]
    directions_out = {}
    for d in DIRECTIONS:
        metric_runs = [float(run[d]["metric"]) for run in runs]
        directions_out[d] = {
            "metric": metric_name,
            "map_runs": metric_runs,
            "summary": summary_stats(metric_runs) if runs else None,
            "cmc_mean": np.mean(np.stack([run[d]["cmc"] for run in runs]), axis=0).tolist() if runs else [],
        }
    times = [run["fit_seconds"] for run in runs]
    return {
        "method": normalize_method_name(spec.name),
        "directions": directions_out,
        "fit_seconds_mean": float(np.mean(times)) if times else None,
        "fit_seconds_var": float(np.var(times, ddof=1)) if len(times) > 1 else 0.0,
        "failures": failures,
        "complete": not failures,
    }


def _split_runs(r: int, data: PairedMultimodalDataset, config: BenchmarkConfig) -> list[dict]:
    """Repetition r: split with seed base_seed + r, then fit and evaluate every spec of the lineup
    against one ``SplitContext``, which is dropped on return; one outcome per spec."""
    seed = config.base_seed + r
    if config.stratified:
        train_idx, test_idx = stratified_split(data.labels, config.n_train, seed)
    else:
        train_idx, test_idx = random_split(data.n, config.n_train, seed)
    train, test = subset(data, train_idx), subset(data, test_idx)
    context = SplitContext(train)
    return [_outcome(spec, context, test, config, r) for spec in config.methods]


def _worker_count(repetitions: int) -> int:
    """Processes to run the repetitions in: one per CPU that ``fork_cpu_count`` allows, at most one
    per repetition.  1 runs them in this process."""
    return max(1, min(fork_cpu_count(), repetitions))


_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _loaded_openblas() -> list:
    """``(path, handle, setter name)`` of every OpenBLAS loaded in this process with a known
    thread-count setter.

    numpy and scipy each load their own OpenBLAS, and ``scipy.linalg``'s
    LAPACK runs on scipy's, so both are found.  A system without
    ``/proc/self/maps`` has none.  The other functions of a library carry the
    setter's prefix and suffix.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    found = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        name = next((name for name in _BLAS_THREAD_SETTERS if hasattr(handle, name)), None)
        if name is not None:
            found.append((lib, handle, name))
    return found


def _blas_thread_setters() -> list:
    """The thread-count setter of every loaded OpenBLAS.  Resolved once, before a pool forks: the
    workers inherit the loaded libraries."""
    setters = []
    for _, handle, name in _loaded_openblas():
        setter = getattr(handle, name)
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setters.append(setter)
    return setters


def _openblas_stamp() -> list[dict]:
    """The file name, core and thread count of every loaded OpenBLAS; None for a getter it lacks."""
    stamp = []
    for lib, handle, name in _loaded_openblas():
        core = getattr(handle, name.replace("set_num_threads", "get_corename"), None)
        threads = getattr(handle, name.replace("set_num_threads", "get_num_threads"), None)  # returns int
        if core is not None:
            core.restype = ctypes.c_char_p
        stamp.append({
            "library": os.path.basename(lib),
            "core": None if core is None else core().decode(),
            "threads": None if threads is None else threads(),
        })
    return stamp


_worker_args = None  # (data, config), inherited from the parent when the pool forks


def _start_worker(data, config, blas_setters) -> None:
    global _worker_args
    _worker_args = (data, config)
    for setter in blas_setters:  # workers already share the CPUs; BLAS threads on top would oversubscribe them
        setter(1)


def _worker_split_runs(r: int) -> list[dict]:
    return _split_runs(r, *_worker_args)


def _all_runs(data: PairedMultimodalDataset, config: BenchmarkConfig, workers: int) -> dict:
    """The report's ``methods`` entry of every spec in ``config.methods``, by label: the one path
    from a lineup to its entries, for the benchmark and the sweep alike.

    With more than one worker, the repetitions run on a pool of that many
    forked processes, started for this call.  The data and config reach them
    by inheritance; only repetition numbers go out and only outcomes come
    back, in repetition order, so they equal a serial run's.
    An error in a repetition is raised here once the workers have finished
    the repetitions they hold; a worker that dies raises ``BrokenProcessPool``.
    """
    if workers == 1:
        splits = [_split_runs(r, data, config) for r in range(config.repetitions)]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        args = (data, config, _blas_thread_setters())
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _start_worker, args)
        try:
            splits = list(pool.map(_worker_split_runs, range(config.repetitions)))
        finally:
            pool.shutdown(cancel_futures=True)
    metric_name = "map" if config.metric_mode == "map" else f"acc@{config.acc_k}"
    return {spec.label: _entry(spec, outcomes, metric_name) for spec, outcomes in zip(config.methods, zip(*splits))}


def run_benchmark(config: BenchmarkConfig, dataset: PairedMultimodalDataset | None = None) -> dict:
    """Execute the full repeated-split protocol and return the report dict.

    All methods fitted on one split share its ``SplitContext``, so each PCA
    spec is fitted once per split.  Repetitions run in parallel, one forked
    worker per usable CPU (see ``_all_runs``); the report is the same for any
    worker count, apart from ``environment`` and the timing fields.
    """
    data = _prepared_data(config, dataset)
    workers = _worker_count(config.repetitions)
    methods_out = _all_runs(data, config, workers)
    box_out = {
        label: {d: box_stats(out["map_runs"]) for d, out in entry["directions"].items() if out["map_runs"]}
        for label, entry in methods_out.items()
    }
    return {
        "config": asdict(config),
        "methods": methods_out,
        "ttests": [],
        "box_stats": box_out,
        "environment": environment_stamp(workers),
    }


def compute_ttests(report: dict, baseline: str, welch: bool = False) -> list[dict]:
    """Baseline-vs-others t-tests per direction plus the per-repetition average.  A report that is
    not a mapping of method entries with finite numeric ``map_runs``, as many per direction, raises
    ``malformed_file``."""
    try:
        methods = {
            label: {d: [float(v) for v in entry["directions"][d]["map_runs"]] for d in DIRECTIONS}
            for label, entry in report["methods"].items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError("malformed_file", f"not a benchmark report: {type(exc).__name__}: {exc}") from exc
    bad = sorted(
        label
        for label, runs in methods.items()
        if len({len(v) for v in runs.values()}) > 1 or not np.isfinite(sum(runs.values(), [])).all()
    )
    if bad:
        raise DataError("malformed_file", f"map_runs must be finite and as many in a2b as in b2a for {bad}")
    if baseline not in methods:
        raise ConfigError("bad_config", f"baseline {baseline!r} not in report (have {sorted(methods)})")
    results = []
    base = methods[baseline]
    for label, other in methods.items():
        if label == baseline or any(len(other[d]) < 2 or len(base[d]) < 2 for d in DIRECTIONS):
            continue
        samples = {d: (base[d], other[d]) for d in DIRECTIONS}
        # "average": the per-repetition direction-averaged metrics
        samples["average"] = tuple(np.mean([runs[d] for d in DIRECTIONS], axis=0) for runs in (base, other))
        for direction, (a, b) in samples.items():
            stats = students_t_test(a, b, welch)
            stats["t_statistic"] = _json_float(stats["t_statistic"])  # an infinite t is written as null
            results.append({"method_pair": [baseline, label], "direction": direction, **stats})
    return results


def lambda_sweep(config: BenchmarkConfig, method: str, grid1, grid2, dataset=None) -> dict:
    """Mean-metric surface over a (lambda1, lambda2) grid for lcfs or jfssl.

    The grid is a lineup: one spec per cell, labelled ``template[i,j]``, whose
    construction checks the values as given (a method without lambdas, or a bad
    lambda, is ``bad_hyperparam``).  The benchmark's own runner (``_all_runs``)
    runs it, so every cell runs the repeated protocol on the same splits and
    each cell's numbers equal a ``run_benchmark`` of that cell alone.  The
    runner goes split by split: all cells are fitted against one
    ``SplitContext``, which is dropped before the next split, so the PCA,
    Grams, least-squares start and graph are built once per split, and one
    split's state is alive per worker at a time.  A cell whose every
    repetition failed is listed in ``failed_cells`` and reads None.
    """
    method = normalize_method_name(method)
    grid1, grid2 = list(grid1), list(grid2)
    if not (grid1 and grid2):
        raise ConfigError("bad_config", "each lambda grid must list one or more values")
    template = next(
        (spec for spec in config.methods if normalize_method_name(spec.name) == method), MethodSpec(method, method)
    )
    base = template.resolved_hyperparams(config.metric_mode)
    cells = {
        (i, j): MethodSpec(
            method, f"{template.label}[{i},{j}]", pca=template.pca, hyperparams={**base, "lambda1": l1, "lambda2": l2}
        )
        for i, l1 in enumerate(grid1)
        for j, l2 in enumerate(grid2)
    }
    grid1, grid2 = [float(v) for v in grid1], [float(v) for v in grid2]
    data = _prepared_data(config, dataset)
    entries = _all_runs(data, replace(config, methods=tuple(cells.values())), _worker_count(config.repetitions))

    surfaces = {d: [[None] * len(grid2) for _ in grid1] for d in DIRECTIONS}
    failed_cells = []
    for (i, j), spec in cells.items():
        entry = entries[spec.label]
        if entry["directions"]["a2b"]["summary"] is None:
            failed_cells.append({"lambda1": grid1[i], "lambda2": grid2[j], "failures": entry["failures"]})
            continue
        for d in DIRECTIONS:
            surfaces[d][i][j] = entry["directions"][d]["summary"]["mean"]
    return {
        "method": method,
        "lambda1_grid": grid1,
        "lambda2_grid": grid2,
        "directions": surfaces,
        "failed_cells": failed_cells,
        "config": asdict(config),
    }


# ---------------------------------------------------------------------------
# config / report plumbing


def _field_mapping(raw, cls, what: str, defaulted=()) -> dict:
    """``raw``, checked to be a mapping from ``cls``'s field names that holds
    every field without a default, apart from those named in ``defaulted``."""
    if not isinstance(raw, dict):
        raise ConfigError("bad_config", f"{what} must be a mapping, got {raw!r}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError("bad_config", f"unknown {what} keys: {sorted(map(str, unknown))}")
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    missing = required - set(defaulted) - set(raw)
    if missing:
        raise ConfigError("bad_config", f"{what} needs {sorted(missing)}")
    return raw


def method_spec_from_dict(entry: dict) -> MethodSpec:
    """A config's method entry; a name that names a method is made canonical, and the label
    defaults to the name, with ``pca+`` in front when the entry sets a PCA.  Any other name
    reaches ``MethodSpec`` as given, which refuses the request in ``check_request``'s order."""
    entry = _field_mapping(entry, MethodSpec, "method entry", defaulted=("label",))
    name = entry["name"]
    with contextlib.suppress(ConfigError):
        name = normalize_method_name(name)
    label = entry.get("label") or f"{'pca+' if entry.get('pca') else ''}{name}"
    return MethodSpec(**{**entry, "name": name, "label": label})


def config_from_dict(raw: dict) -> BenchmarkConfig:
    """A config file's mapping; with ``methods`` missing or null, the default
    nine-method lineup runs (an empty list is refused like any empty lineup)."""
    raw = _field_mapping(raw, BenchmarkConfig, "config", defaulted=("methods",))
    entries = raw.get("methods")
    if entries is not None and not isinstance(entries, (list, tuple)):
        raise ConfigError("bad_config", f"methods must be a list of method entries, got {entries!r}")
    methods = default_method_specs() if entries is None else tuple(method_spec_from_dict(entry) for entry in entries)
    return BenchmarkConfig(**{**raw, "methods": methods})


def _json_float(value: float):
    return float(value) if np.isfinite(value) else None


def environment_stamp(workers: int) -> dict:
    """Versions, platform and time of a run, the processes its repetitions ran in, and the core and
    thread count of each loaded OpenBLAS."""
    return {
        "workers": workers,
        "openblas": _openblas_stamp(),
        "xms_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # not platform.platform(), whose uname() processor field starts a `uname -p` process
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_report_json(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, default=json_default)
        fh.write("\n")


def write_report_csv(report: dict, path) -> None:
    """Main-table layout: one method per row, per-direction summary columns."""
    stats = ("min", "max", "mean", "var", "std")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method"] + [f"{direction}_{stat}" for direction in DIRECTIONS for stat in stats])
        for label, entry in report["methods"].items():
            cells = [label]
            for direction in DIRECTIONS:
                summary = entry["directions"][direction]["summary"]
                cells += [""] * 5 if summary is None else [f"{summary[stat]:.6f}" for stat in stats]
            writer.writerow(cells)
