"""Repeated-split benchmark protocol, statistics, sweeps, and report emission.

One benchmark run draws ``repetitions`` random train/test splits (repetition
r uses seed ``base_seed + r``), fits every configured method on each training
split, evaluates both query directions on the held-out pairs, and aggregates
min/max/mean/var/std summaries, mean CMC curves, box-plot statistics,
Student's t-tests against a baseline, and fit timings.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import platform
import time
from dataclasses import dataclass, field

import numpy as np
import scipy
import scipy.stats

from ._version import __version__
from .dataset_io import FeatureMatrix, PairedMultimodalDataset, load_dataset, random_split, stratified_split, subset
from .errors import ConfigError, XmsError
from .methods import fit_method, normalize_method_name, project
from .retrieval_eval import evaluate_direction
from .synthetic import make_synthetic_dataset

DIRECTIONS = ("a2b", "b2a")


@dataclass(frozen=True)
class MethodSpec:
    """One benchmark entry: a method, its hyperparameters, and PCA setting."""

    name: str
    label: str
    pca: dict | None = None
    dim: int | None = None
    hyperparams: dict = field(default_factory=dict)
    hyperparams_by_metric: dict = field(default_factory=dict)

    def resolved_hyperparams(self, metric_mode: str) -> dict:
        merged = dict(self.hyperparams)
        merged.update(self.hyperparams_by_metric.get(metric_mode, {}))
        return merged


@dataclass(frozen=True)
class BenchmarkConfig:
    dataset: str | dict
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
        if self.repetitions < 1:
            raise ConfigError("bad_config", "repetitions must be >= 1")
        if self.metric_mode not in ("map", "acc_at_k"):
            raise ConfigError("bad_config", f"metric_mode must be 'map' or 'acc_at_k', got {self.metric_mode!r}")
        if not self.methods:
            raise ConfigError("bad_config", "at least one method is required")


@dataclass(frozen=True)
class TTestResult:
    method_pair: tuple[str, str]
    direction: str
    t_statistic: float
    p_value: float
    significant_at_005: bool


@dataclass(frozen=True)
class BoxStats:
    median: float
    q25: float
    q75: float
    whisker_low: float
    whisker_high: float
    outliers: np.ndarray

    def to_dict(self) -> dict:
        return {
            "median": self.median,
            "q25": self.q25,
            "q75": self.q75,
            "whisker_low": self.whisker_low,
            "whisker_high": self.whisker_high,
            "outliers": self.outliers.tolist(),
        }


def default_method_specs(sparse_hyperparams: dict | None = None) -> tuple[MethodSpec, ...]:
    """The nine-method protocol lineup: PCA in front of everything except LCFS/JFSSL.

    The GMA variants get beta = 4 here: the benchmark needs the cross-modal
    coupling term to actually bind the two views, and the per-method default
    (beta = 1) under-couples them on representative data.  All hyperparameters
    are echoed into the report.
    """
    pca = {"mode": "energy", "value": 0.98}
    sparse = dict(sparse_hyperparams or {})
    tuned = {"gmlda": {"beta": 4.0}, "gmmfa": {"beta": 4.0}}
    specs = [
        MethodSpec(name, f"pca+{name}", pca=pca, hyperparams=tuned.get(name, {}))
        for name in ("cca", "pls", "blm", "gmlda", "gmmfa", "cdfe", "cca3v")
    ]
    specs += [MethodSpec(name, name, hyperparams=sparse) for name in ("lcfs", "jfssl")]
    return tuple(specs)


# ---------------------------------------------------------------------------
# statistics


def summary_stats(values) -> dict:
    """min/max/mean/var/std with 1/(n-1) variance (0 for a single value)."""
    values = np.asarray(values, dtype=np.float64)
    var = float(values.var(ddof=1)) if values.size > 1 else 0.0
    return {
        "min": float(values.min()),
        "max": float(values.max()),
        "mean": float(values.mean()),
        "var": var,
        "std": float(np.sqrt(var)),
    }


def students_t_test(sample_a, sample_b, method_pair=("a", "b"), direction="", welch=False) -> TTestResult:
    """Two-sample t-test, pooled-variance Student form by default.

    Degenerate convention when the pooled variance is zero: p = 1 for equal
    means, p = 0 otherwise.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ConfigError("bad_config", "t-test needs at least 2 values per sample")
    var_a, var_b = a.var(ddof=1), b.var(ddof=1)
    diff = a.mean() - b.mean()
    if welch:
        if var_a == 0.0 and var_b == 0.0:
            t, p = (0.0, 1.0) if diff == 0.0 else (np.inf * np.sign(diff), 0.0)
        else:
            se = np.sqrt(var_a / a.size + var_b / b.size)
            t = diff / se
            dof = se**4 / ((var_a / a.size) ** 2 / (a.size - 1) + (var_b / b.size) ** 2 / (b.size - 1))
            p = 2.0 * scipy.stats.t.sf(abs(t), dof)
    else:
        pooled = ((a.size - 1) * var_a + (b.size - 1) * var_b) / (a.size + b.size - 2)
        if pooled == 0.0:
            t, p = (0.0, 1.0) if diff == 0.0 else (np.inf * np.sign(diff), 0.0)
        else:
            t = diff / np.sqrt(pooled * (1.0 / a.size + 1.0 / b.size))
            p = 2.0 * scipy.stats.t.sf(abs(t), a.size + b.size - 2)
    p = float(min(max(p, 0.0), 1.0))
    return TTestResult(tuple(method_pair), direction, float(t), p, p < 0.05)


def box_stats(values) -> BoxStats:
    """Box-plot statistics: linear-interpolation quartiles, 1.5 IQR whiskers."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 1:
        raise ConfigError("bad_config", "box_stats needs at least one value")
    q25, median, q75 = np.percentile(values, [25, 50, 75])
    iqr = q75 - q25
    low_fence, high_fence = q25 - 1.5 * iqr, q75 + 1.5 * iqr
    inside = values[(values >= low_fence) & (values <= high_fence)]
    outliers = values[(values < low_fence) | (values > high_fence)]
    return BoxStats(
        median=float(median),
        q25=float(q25),
        q75=float(q75),
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        outliers=np.sort(outliers),
    )


# ---------------------------------------------------------------------------
# protocol runner


def resolve_dataset(spec) -> PairedMultimodalDataset:
    if isinstance(spec, (str,)) or hasattr(spec, "__fspath__"):
        return load_dataset(spec)
    if isinstance(spec, dict) and "synthetic" in spec:
        return make_synthetic_dataset(**spec["synthetic"])
    raise ConfigError("bad_config", "dataset must be a directory path or {'synthetic': {...}}")


def _l2_normalize(dataset: PairedMultimodalDataset) -> PairedMultimodalDataset:
    def norm(x: FeatureMatrix) -> FeatureMatrix:
        norms = np.linalg.norm(x.values, axis=0)
        return FeatureMatrix(x.values / np.where(norms == 0, 1.0, norms))

    return PairedMultimodalDataset(
        norm(dataset.xa), norm(dataset.xb), dataset.labels, dataset.c, dataset.sample_ids, strict=False
    )


def _evaluate_split(model, test: PairedMultimodalDataset, config: BenchmarkConfig) -> dict:
    proj_a = project(model, test.xa, "a")
    proj_b = project(model, test.xb, "b")
    out = {}
    for direction in DIRECTIONS:
        queries, gallery = (proj_a, proj_b) if direction == "a2b" else (proj_b, proj_a)
        evaluation = evaluate_direction(
            queries, gallery, test.labels, test.labels, direction, ap_cutoff=config.ap_cutoff
        )
        if config.metric_mode == "map":
            metric = evaluation.map
        else:
            k = min(config.acc_k, evaluation.acc_at_k.size)
            metric = float(evaluation.acc_at_k[k - 1])
        out[direction] = {"metric": metric, "cmc": evaluation.acc_at_k}
    return out


def run_benchmark(config: BenchmarkConfig, dataset: PairedMultimodalDataset | None = None) -> dict:
    """Execute the full repeated-split protocol and return the report dict."""
    data = dataset if dataset is not None else resolve_dataset(config.dataset)
    if config.l2_normalize:
        data = _l2_normalize(data)
    if not 0 < config.n_train < data.n:
        raise ConfigError("bad_config", f"n_train must lie in 1..{data.n - 1}, got {config.n_train}")
    labels = [spec.label for spec in config.methods]
    if len(set(labels)) != len(labels):
        raise ConfigError("bad_config", f"duplicate method labels: {labels}")

    runs = {
        spec.label: {
            direction: {"metric": [], "cmc": []} for direction in DIRECTIONS
        }
        for spec in config.methods
    }
    fit_times = {spec.label: [] for spec in config.methods}
    failures = {spec.label: [] for spec in config.methods}

    for r in range(config.repetitions):
        seed = config.base_seed + r
        if config.stratified:
            plan = stratified_split(data.labels, config.n_train, seed)
        else:
            plan = random_split(data.n, config.n_train, seed)
        train = subset(data, plan.train_indices)
        test = subset(data, plan.test_indices)
        for spec in config.methods:
            try:
                t0 = time.perf_counter()
                model = fit_method(
                    train,
                    spec.name,
                    dim=spec.dim,
                    pca=spec.pca,
                    hyperparams=spec.resolved_hyperparams(config.metric_mode),
                )
                wall = time.perf_counter() - t0
                evaluated = _evaluate_split(model, test, config)
            except XmsError as exc:
                failures[spec.label].append({"repetition": r, "code": exc.code, "message": str(exc)})
                continue
            fit_times[spec.label].append(wall if config.include_pca_in_timing else model.fit_seconds)
            for direction in DIRECTIONS:
                runs[spec.label][direction]["metric"].append(evaluated[direction]["metric"])
                runs[spec.label][direction]["cmc"].append(evaluated[direction]["cmc"])

    metric_name = "map" if config.metric_mode == "map" else f"acc@{config.acc_k}"
    methods_out = {}
    box_out = {}
    for spec in config.methods:
        directions_out = {}
        box_out[spec.label] = {}
        for direction in DIRECTIONS:
            metric_runs = runs[spec.label][direction]["metric"]
            cmc_runs = runs[spec.label][direction]["cmc"]
            if metric_runs:
                directions_out[direction] = {
                    "metric": metric_name,
                    "map_runs": [float(v) for v in metric_runs],
                    "summary": summary_stats(metric_runs),
                    "cmc_mean": np.mean(np.stack(cmc_runs), axis=0).tolist(),
                }
                box_out[spec.label][direction] = box_stats(metric_runs).to_dict()
            else:
                directions_out[direction] = {"metric": metric_name, "map_runs": [], "summary": None, "cmc_mean": []}
        times = fit_times[spec.label]
        methods_out[spec.label] = {
            "method": normalize_method_name(spec.name),
            "directions": directions_out,
            "fit_seconds_mean": float(np.mean(times)) if times else None,
            "fit_seconds_var": float(np.var(times, ddof=1)) if len(times) > 1 else 0.0,
            "failures": failures[spec.label],
            "complete": not failures[spec.label],
        }

    return {
        "config": config_to_dict(config),
        "methods": methods_out,
        "ttests": [],
        "box_stats": box_out,
        "environment": environment_stamp(),
    }


def compute_ttests(report: dict, baseline: str, welch: bool = False) -> list[dict]:
    """Baseline-vs-others t-tests per direction plus the per-repetition average."""
    methods = report["methods"]
    if baseline not in methods:
        raise ConfigError("bad_config", f"baseline {baseline!r} not in report (have {sorted(methods)})")
    results = []
    base_runs = {d: methods[baseline]["directions"][d]["map_runs"] for d in DIRECTIONS}
    for label, entry in methods.items():
        if label == baseline:
            continue
        other_runs = {d: entry["directions"][d]["map_runs"] for d in DIRECTIONS}
        if any(len(other_runs[d]) < 2 or len(base_runs[d]) < 2 for d in DIRECTIONS):
            continue
        for direction in DIRECTIONS:
            results.append(
                students_t_test(base_runs[direction], other_runs[direction], (baseline, label), direction, welch)
            )
        # "average value": t-test on per-repetition direction-averaged metrics
        base_avg = np.mean([base_runs[d] for d in DIRECTIONS], axis=0)
        other_avg = np.mean([other_runs[d] for d in DIRECTIONS], axis=0)
        results.append(students_t_test(base_avg, other_avg, (baseline, label), "average", welch))
    return [
        {
            "method_pair": list(r.method_pair),
            "direction": r.direction,
            "t_statistic": _json_float(r.t_statistic),
            "p_value": r.p_value,
            "significant_at_005": r.significant_at_005,
        }
        for r in results
    ]


def lambda_sweep(config: BenchmarkConfig, method: str, grid1, grid2, dataset=None) -> dict:
    """Mean-metric surface over a (lambda1, lambda2) grid for lcfs or jfssl.

    Every cell reruns the full repeated protocol with identical splits, so
    cells are comparable across methods and grids.
    """
    method = normalize_method_name(method)
    if method not in ("lcfs", "jfssl"):
        raise ConfigError("bad_config", f"lambda_sweep supports lcfs and jfssl, got {method}")
    grid1 = [float(v) for v in grid1]
    grid2 = [float(v) for v in grid2]
    if any(v < 0 for v in grid1 + grid2):
        raise ConfigError("bad_config", "lambda grid values must be >= 0")
    template = None
    for spec in config.methods:
        if normalize_method_name(spec.name) == method:
            template = spec
            break
    if template is None:
        template = MethodSpec(method, method)
    data = dataset if dataset is not None else resolve_dataset(config.dataset)
    if config.l2_normalize:
        data = _l2_normalize(data)

    surfaces = {d: [[None] * len(grid2) for _ in grid1] for d in DIRECTIONS}
    failed_cells = []
    for i, l1 in enumerate(grid1):
        for j, l2 in enumerate(grid2):
            hp = dict(template.hyperparams)
            hp.update({"lambda1": l1, "lambda2": l2})
            cell_spec = MethodSpec(method, template.label, pca=template.pca, hyperparams=hp)
            cell_config = dataclasses.replace(config, methods=(cell_spec,))
            report = run_benchmark(cell_config, dataset=data)
            entry = report["methods"][cell_spec.label]
            if not entry["complete"] and not any(
                entry["directions"][d]["map_runs"] for d in DIRECTIONS
            ):
                failed_cells.append({"lambda1": l1, "lambda2": l2, "failures": entry["failures"]})
                continue
            for d in DIRECTIONS:
                summary = entry["directions"][d]["summary"]
                surfaces[d][i][j] = summary["mean"] if summary else None
    return {
        "method": method,
        "lambda1_grid": grid1,
        "lambda2_grid": grid2,
        "directions": surfaces,
        "failed_cells": failed_cells,
        "config": config_to_dict(config),
    }


def measure_fit_time(spec: MethodSpec, train: PairedMultimodalDataset, metric_mode: str = "map", include_pca: bool = False) -> float:
    """Wall-clock seconds of one fit; excludes PCA unless asked."""
    t0 = time.perf_counter()
    model = fit_method(train, spec.name, dim=spec.dim, pca=spec.pca, hyperparams=spec.resolved_hyperparams(metric_mode))
    wall = time.perf_counter() - t0
    return wall if include_pca else model.fit_seconds


# ---------------------------------------------------------------------------
# config / report plumbing


def method_spec_from_dict(entry: dict) -> MethodSpec:
    try:
        name = normalize_method_name(entry["name"])
    except KeyError:
        raise ConfigError("bad_config", "method entry needs a 'name'") from None
    pca = entry.get("pca")
    label = entry.get("label") or (f"pca+{name}" if pca else name)
    unknown = set(entry) - {"name", "label", "pca", "dim", "hyperparams", "hyperparams_by_metric"}
    if unknown:
        raise ConfigError("bad_config", f"unknown method entry keys: {sorted(unknown)}")
    return MethodSpec(
        name=name,
        label=label,
        pca=pca,
        dim=entry.get("dim"),
        hyperparams=dict(entry.get("hyperparams", {})),
        hyperparams_by_metric=dict(entry.get("hyperparams_by_metric", {})),
    )


def config_from_dict(raw: dict) -> BenchmarkConfig:
    if "dataset" not in raw or "n_train" not in raw:
        raise ConfigError("bad_config", "config needs 'dataset' and 'n_train'")
    entries = raw.get("methods")
    if entries:
        methods = tuple(method_spec_from_dict(e) for e in entries)
    else:
        methods = default_method_specs()
    known = {
        "dataset", "n_train", "methods", "repetitions", "base_seed", "metric_mode",
        "acc_k", "ap_cutoff", "stratified", "l2_normalize", "include_pca_in_timing",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError("bad_config", f"unknown config keys: {sorted(unknown)}")
    return BenchmarkConfig(
        dataset=raw["dataset"],
        n_train=int(raw["n_train"]),
        methods=methods,
        repetitions=int(raw.get("repetitions", 50)),
        base_seed=int(raw.get("base_seed", 0)),
        metric_mode=raw.get("metric_mode", "map"),
        acc_k=int(raw.get("acc_k", 1)),
        ap_cutoff=raw.get("ap_cutoff"),
        stratified=bool(raw.get("stratified", False)),
        l2_normalize=bool(raw.get("l2_normalize", False)),
        include_pca_in_timing=bool(raw.get("include_pca_in_timing", False)),
    )


def config_to_dict(config: BenchmarkConfig) -> dict:
    return {
        "dataset": config.dataset,
        "n_train": config.n_train,
        "repetitions": config.repetitions,
        "base_seed": config.base_seed,
        "metric_mode": config.metric_mode,
        "acc_k": config.acc_k,
        "ap_cutoff": config.ap_cutoff,
        "stratified": config.stratified,
        "l2_normalize": config.l2_normalize,
        "include_pca_in_timing": config.include_pca_in_timing,
        "methods": [
            {
                "name": spec.name,
                "label": spec.label,
                "pca": spec.pca,
                "dim": spec.dim,
                "hyperparams": spec.hyperparams,
                "hyperparams_by_metric": spec.hyperparams_by_metric,
            }
            for spec in config.methods
        ],
    }


def _json_float(value: float):
    return float(value) if np.isfinite(value) else None


def environment_stamp() -> dict:
    return {
        "xms_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_report_json(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def write_report_csv(report: dict, path) -> None:
    """Main-table layout: one method per row, per-direction summary columns."""
    columns = ["method"]
    for direction in DIRECTIONS:
        columns += [f"{direction}_{stat}" for stat in ("min", "max", "mean", "var", "std")]
    lines = [",".join(columns)]
    for label, entry in report["methods"].items():
        cells = [label]
        for direction in DIRECTIONS:
            summary = entry["directions"][direction]["summary"]
            if summary is None:
                cells += [""] * 5
            else:
                cells += [f"{summary[stat]:.6f}" for stat in ("min", "max", "mean", "var", "std")]
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
