"""Command-line front end: fit, eval, bench, sweep, ttest.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import yaml

from . import bench as bench_mod
from ._version import __version__
from .dataset_io import load_dataset
from .errors import ConfigError, DataError, XmsError
from .methods import check_request, fit_method, load_model, save_model
from .retrieval_eval import evaluate_direction

DEFAULT_GRID = "0,0.0001,0.001,0.01,0.1,1,10,100"


def _json_option(flag: str, text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ConfigError("bad_config", f"{flag} is not JSON: {exc}") from None


def cmd_fit(args) -> int:
    hyperparams = _json_option("--hyperparams", args.hyperparams)
    pca = _json_option("--pca", args.pca)
    check_request(args.method, args.dim, pca, hyperparams)  # a malformed request is refused before any data is read
    dataset = load_dataset(args.dataset)
    model = fit_method(dataset, args.method, dim=args.dim, pca=pca, hyperparams=hyperparams)
    save_model(model, args.out)
    print(f"fitted {model.method} (d={model.d}) on {dataset.n} pairs in {model.fit_seconds:.3f}s -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    dataset = load_dataset(args.dataset)
    evaluation = evaluate_direction(*bench_mod.direction_views(model, dataset)[args.direction], dataset.labels)
    payload = {"direction": args.direction, "model": str(args.model), "dataset": str(args.dataset)}
    payload.update(map=evaluation["map"], per_query_ap=evaluation["per_query_ap"].tolist(), cmc=evaluation["cmc"].tolist())
    _write_json(payload, args.out)
    print(f"evaluated {args.direction}: map={evaluation['map']:.4f} -> {args.out}")
    return 0


class _ConfigLoader(yaml.SafeLoader):
    """PyYAML's safe loader, which follows YAML 1.1 and so reads ``1e-3`` (no dot) as text, taught
    YAML 1.2's exponent floats: ``1e-3``, ``1E4``, ``.5e3`` and ``1.0e3`` are numbers.  Quoted
    scalars stay text, and PyYAML's own loaders are left as they are."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def _load_config_file(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError("bad_config", f"{path}: no such config file")
    text = path.read_text()
    try:
        if path.suffix.lower() == ".json":
            return json.loads(text)
        return yaml.load(text, Loader=_ConfigLoader)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ConfigError("bad_config", f"{path}: {exc}") from exc


def cmd_bench(args) -> int:
    config = bench_mod.config_from_dict(_load_config_file(args.config))
    labels = [spec.label for spec in config.methods]
    if args.baseline and args.baseline not in labels:
        raise ConfigError("bad_config", f"baseline {args.baseline!r} not in the config (have {sorted(labels)})")
    report = bench_mod.run_benchmark(config)
    if args.baseline:
        report["ttests"] = bench_mod.compute_ttests(report, args.baseline)
    bench_mod.write_report_json(report, args.out)
    if args.csv:
        bench_mod.write_report_csv(report, args.csv)
    for label, entry in report["methods"].items():
        for direction in bench_mod.DIRECTIONS:
            summary = entry["directions"][direction]["summary"]
            mean = f"{summary['mean']:.4f}" if summary else "FAILED"
            print(f"{label:>12s} {direction}: mean={mean}")
    print(f"report -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    config = bench_mod.config_from_dict(_load_config_file(args.config))
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError("bad_config", f"--grid must be comma-separated numbers, got {args.grid!r}") from None
    surface = bench_mod.lambda_sweep(config, args.method, grid, grid)
    _write_json(surface, args.out)
    print(f"{len(grid)}x{len(grid)} sweep of {args.method} -> {args.out}")
    return 0


def cmd_ttest(args) -> int:
    report_path = Path(args.report)
    if not report_path.is_file():
        raise ConfigError("bad_config", f"{report_path}: no such report")
    try:
        report = json.loads(report_path.read_text())
    except ValueError as exc:
        raise DataError("malformed_file", f"{report_path}: not JSON ({exc})") from exc
    results = bench_mod.compute_ttests(report, args.baseline, welch=args.welch)
    _write_json({"baseline": args.baseline, "welch": args.welch, "ttests": results}, args.out)
    print(f"{len(results)} t-tests against {args.baseline} -> {args.out}")
    return 0


# this module's own name: benchmarks/calltrace.py patches it apart from bench.write_report_json
_write_json = bench_mod.write_report_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xms", description=__doc__)
    parser.add_argument("--version", action="version", version=f"xms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one method on a dataset directory")
    fit.add_argument("--dataset", required=True)
    fit.add_argument("--method", required=True)
    fit.add_argument("--out", required=True)
    fit.add_argument("--pca", default=json.dumps(bench_mod.DEFAULT_PCA), help="""per-modality PCA, a JSON spec
                     such as '{"mode": "dim", "value": 32}'; '{}' or null for none (default: %(default)s)""")
    fit.add_argument("--dim", type=int, default=None)
    fit.add_argument("--hyperparams", default="{}", help="""the method's hyperparameters, a JSON object: '{"beta": 4.0}'""")
    fit.set_defaults(func=cmd_fit)

    ev = sub.add_parser("eval", help="evaluate a saved model on a dataset directory")
    ev.add_argument("--model", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--direction", choices=bench_mod.DIRECTIONS, required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    be = sub.add_parser("bench", help="run the repeated-split benchmark from a config file")
    be.add_argument("--config", required=True)
    be.add_argument("--out", required=True)
    be.add_argument("--csv", default=None)
    be.add_argument("--baseline", default=None, help="also emit t-tests against this method label")
    be.set_defaults(func=cmd_bench)

    sw = sub.add_parser("sweep", help="lambda1 x lambda2 sweep of a sparse coupled method")
    sw.add_argument("--config", required=True)
    sw.add_argument("--method", required=True)
    sw.add_argument("--grid", default=DEFAULT_GRID)
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=cmd_sweep)

    tt = sub.add_parser("ttest", help="t-tests of a baseline method against the rest of a report")
    tt.add_argument("--report", required=True)
    tt.add_argument("--baseline", required=True)
    tt.add_argument("--welch", action="store_true")
    tt.add_argument("--out", required=True)
    tt.set_defaults(func=cmd_ttest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except XmsError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
