"""End-to-end and per-layer benchmark of the xms command line.

Run from the repository root, with no installation step:

    python3 benchmarks/perf.py --workload protocol9 --seed 0 --seconds 30 --trace 0

A run synthesises the workload's dataset from ``--data-seed``, writes it to a
directory under ``.bench_work/`` and then drives the public entry point
``xms.cli.main(["bench" | "sweep", ...])`` in this process, as a closed loop
with one caller: the next call starts once the previous call has returned and
its report has been checked.  ``--seed`` is the base seed of the repeated
train/test splits.  Calls go on for up to ``--seconds`` (at least one call).
Stdout of every call is captured.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics of the traced
ones (see calltrace.py); only untraced runs give end-to-end numbers.  Times
are in seconds at the reference machine speed of speedprobe.py, which a probe
measures while each timed block runs; wall-clock figures are printed beside
them.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory
for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".bench_work")  # relative to ROOT, so reports name the same dataset path everywhere
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DIRECTIONS = ("a2b", "b2a")
SETUPS = 3  # set-ups per run; setup_s reports their median
WARMUP_GALLERY = 100  # the warm-up call runs one repetition on at most this many test pairs
LINEUP_SIZE = 9  # methods in the default protocol lineup
SWEEP_GRID = 8  # values per axis of the CLI's default sweep grid
VOLATILE_KEYS = ("environment", "fit_seconds_mean", "fit_seconds_var")
TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    data: dict  # make_synthetic_dataset sizes; the seed is --data-seed
    n_train: int
    repetitions: int  # per call
    methods: tuple | None  # config method entries; None selects the default nine-method lineup
    sweep: bool = False

    @property
    def gallery(self) -> int:
        return self.data["n"] - self.n_train

    @property
    def units(self) -> int:
        """Units per call: one method fitted on one split and evaluated both ways."""
        if self.sweep:
            return SWEEP_GRID**2 * self.repetitions
        return (LINEUP_SIZE if self.methods is None else len(self.methods)) * self.repetitions


CRITERION_DATA = {"n": 400, "c": 3, "d_a": 128, "d_b": 128}

# 4 protocol repetitions per call: at least the core count of the 2-core
# machines the baseline was measured on, so parallel repetitions could show.
WORKLOADS = {
    "protocol9": Workload(CRITERION_DATA, n_train=304, repetitions=4, methods=None),
    "sweep8x8": Workload(CRITERION_DATA, n_train=304, repetitions=2, methods=({"name": "jfssl"},), sweep=True),
    "gallery2k": Workload(
        {"n": 2400, "c": 20, "d_a": 64, "d_b": 64}, n_train=400, repetitions=1, methods=({"name": "cca"},)
    ),
}

END_TO_END = (
    ("fit_evals_per_s", "1/s"),
    ("report_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

FITTERS = ("cca", "pls", "gma", "cdfe", "cca3v", "lcfs", "jfssl")
PER_LAYER = (
    ("preprocess.pca_fit.calls", "count"),
    ("preprocess.pca_fit.self_s", "s"),
    ("preprocess.pca_fit.unique_ratio", "ratio"),
    ("preprocess.pca_fit.ops", "ops"),
    ("preprocess.pca_apply.self_s", "s"),
    ("methods.fit_method.self_s", "s"),
    *((f"methods.{m}.self_s", "s") for m in FITTERS),
    *((f"methods.{m}.{k}", "count") for m in ("lcfs", "jfssl") for k in ("iterations", "at_max_iters")),
    ("numerics.solve_gev.calls", "count"),
    ("numerics.solve_gev.self_s", "s"),
    ("numerics.solve_gev.ops", "ops"),
    ("numerics.graph.calls", "count"),
    ("numerics.graph.self_s", "s"),
    ("numerics.multimodal_graph.unique_ratio", "ratio"),
    ("methods.model.project.self_s", "s"),
    *((f"retrieval_eval.{k}.self_s", "s") for k in ("rank", "ap", "cmc", "evaluate_direction")),
    ("retrieval_eval.ap.calls", "count"),
    *((f"dataset_io.{k}.{m}", u) for k in ("load", "split") for m, u in (("calls", "count"), ("self_s", "s"))),
    *((f"bench.{k}.self_s", "s") for k in ("protocol", "stats", "report")),
    ("bench.report.bytes", "B"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
# Per-call values that must repeat exactly from one traced call to the next.
EXACT_SUFFIXES = (".calls", ".iterations", ".at_max_iters", ".ops", ".unique_ratio")


@dataclass
class Call:
    seconds: float  # at the reference speed (speedprobe.py)
    wall_s: float
    failed: int
    problems: list
    fingerprint: str | None = None
    tracer: object = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0, help="base seed of the repeated train/test splits")
    parser.add_argument(
        "--data-seed", type=int, default=7, help="dataset seed; 7 is the criterion-7 data, others confirm claims"
    )
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blas-threads", type=int, default=1, help="BLAS threads pinned before numpy loads; 0 keeps the default"
    )
    return parser.parse_args(argv)


def blas_thread_count():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment_line(np, scipy) -> str:
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return (
        f"env: nproc={os.cpu_count()} blas_threads={blas_thread_count()} openblas={openblas} "
        f"numpy={np.__version__} scipy={scipy.__version__} python={platform.python_version()}"
    )


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k not in VOLATILE_KEYS}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def fingerprint(paths) -> str:
    """SHA-256 over the written reports, JSON ones without environment and timing fields."""
    digest = hashlib.sha256()
    for path in paths:
        raw = Path(path).read_bytes()
        if path.suffix == ".json":
            raw = json.dumps(_strip_volatile(json.loads(raw)), sort_keys=True).encode()
        digest.update(raw)
    return digest.hexdigest()


def _cmc_ok(curve, gallery: int) -> bool:
    return (
        len(curve) == gallery
        and all(b >= a - TOL for a, b in zip(curve, curve[1:]))
        and abs(curve[-1] - 1.0) <= TOL
    )


def _direction_problem(result: dict, n_failed: int, wl: Workload) -> str | None:
    runs = result["map_runs"]
    if len(runs) + n_failed != wl.repetitions:
        return f"{len(runs)} MAP values for {wl.repetitions} repetitions"
    if not all(0.0 <= v <= 1.0 for v in runs):
        return "MAP outside [0, 1]"
    if runs and not _cmc_ok(result["cmc_mean"], wl.gallery):
        return f"CMC not non-decreasing to 1 over {wl.gallery} ranks"
    return None


def check_bench(report: dict, wl: Workload) -> tuple[int, list]:
    """Failed units of one bench report and the reasons."""
    methods = report["methods"]
    expected = LINEUP_SIZE if wl.methods is None else len(wl.methods)
    if len(methods) != expected:
        return wl.units, [f"report has {len(methods)} methods, expected {expected}"]
    every_rep = set(range(wl.repetitions))
    failed, problems = set(), []
    for label, entry in methods.items():
        bad = {f["repetition"] for f in entry["failures"]}
        problems += [f"{label} repetition {f['repetition']}: [{f['code']}] {f['message']}" for f in entry["failures"]]
        for direction in DIRECTIONS:
            problem = _direction_problem(entry["directions"][direction], len(bad), wl)
            if problem:
                problems.append(f"{label} {direction}: {problem}")
                bad = every_rep
                break
        failed |= {(label, r) for r in bad}
    if wl.methods is None:  # the protocol's sanity ordering: supervised beats plain CCA
        for label in ("pca+gmlda", "lcfs"):
            for direction in DIRECTIONS:
                ours = methods[label]["directions"][direction]["summary"]
                cca = methods["pca+cca"]["directions"][direction]["summary"]
                if ours and cca and not ours["mean"] > cca["mean"]:
                    problems.append(f"{label} {direction}: mean MAP {ours['mean']:.4f} <= pca+cca {cca['mean']:.4f}")
                    failed |= {(label, r) for r in every_rep}
    return len(failed), problems


def check_sweep(surface: dict, wl: Workload) -> tuple[int, list]:
    """Failed units of one sweep surface: a cell that is not a finite MAP fails its repetitions."""
    bad_cells, problems = set(), []
    for direction in DIRECTIONS:
        rows = surface["directions"][direction]
        if len(rows) != SWEEP_GRID or any(len(row) != SWEEP_GRID for row in rows):
            return wl.units, [f"{direction}: surface is not {SWEEP_GRID}x{SWEEP_GRID}"]
        bad_cells |= {(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v is None or not 0 <= v <= 1}
    problems += [f"cell lambda1={c['lambda1']} lambda2={c['lambda2']} failed" for c in surface["failed_cells"]]
    if bad_cells:
        problems.append(f"{len(bad_cells)} of {SWEEP_GRID**2} cells not a finite MAP in [0, 1]")
    return len(bad_cells) * wl.repetitions, problems


class Runner:
    """Writes the workload's inputs and makes checked calls into the CLI."""

    def __init__(self, name: str, data_seed: int, split_seed: int, xms, probe):
        self.wl, self.data_seed, self.split_seed, self.xms = WORKLOADS[name], data_seed, split_seed, xms
        self.probe = probe
        self.dir = WORK / name
        self.outputs = [self.dir / "report.json"] + ([self.dir / "report.csv"] if self.wl.methods is None else [])

    def argv(self, warmup: bool) -> list:
        config = str(self.dir / ("warmup.json" if warmup else "config.json"))
        report = str(self.outputs[0])
        if self.wl.sweep:
            argv = ["sweep", "--config", config, "--method", "jfssl", "--out", report]
            return argv + ["--grid", "1"] if warmup else argv
        argv = ["bench", "--config", config, "--out", report]
        if self.wl.methods is None:
            argv += ["--baseline", "pca+cca", "--csv", str(self.outputs[1])]
        return argv

    def set_up(self) -> tuple[float, float, object]:
        """Synthesise, write and warm up once; returns (reference s, wall s, warm-up exit code or error text)."""
        self.probe.begin()
        dataset = self.xms.synthetic.make_synthetic_dataset(**self.wl.data, seed=self.data_seed)
        self.xms.dataset_io.save_dataset(dataset, self.dir / "data")
        warmup_train = max(self.wl.n_train, self.wl.data["n"] - WARMUP_GALLERY)
        for name, n_train, reps in (
            ("config.json", self.wl.n_train, self.wl.repetitions),
            ("warmup.json", warmup_train, 1),
        ):
            config = {"dataset": str(self.dir / "data"), "n_train": n_train, "repetitions": reps,
                      "base_seed": self.split_seed}
            if self.wl.methods is not None:
                config["methods"] = list(self.wl.methods)
            (self.dir / name).write_text(json.dumps(config, indent=2) + "\n")
        rc, _ = self._invoke(self.argv(warmup=True), trace=False)
        wall, seconds = self.probe.end()
        return seconds, wall, rc

    def input_fingerprint(self) -> str:
        return fingerprint(sorted((self.dir / "data").iterdir()))

    def _invoke(self, argv, trace):
        """Call xms.cli.main with stdout captured; returns (exit code or error text, tracer)."""
        sink = io.StringIO()
        tracer = None
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if trace:
                    rc, tracer = self.xms.calltrace.traced_call(self.xms.cli.main, (argv,))
                else:
                    rc = self.xms.cli.main(argv)
        except Exception as exc:  # a crash fails the call's units; the loop goes on
            rc = f"{type(exc).__name__}: {exc}"
        if rc != 0:
            rc = f"{rc}: {sink.getvalue().strip()[-500:]}"
        return rc, tracer

    def call(self, trace: bool) -> Call:
        for path in self.outputs:
            path.unlink(missing_ok=True)
        self.probe.begin()
        rc, tracer = self._invoke(self.argv(warmup=False), trace)
        wall, seconds = self.probe.end()
        if rc != 0:
            return Call(seconds, wall, self.wl.units, [f"call failed: {rc}"], tracer=tracer)
        try:
            report = json.loads(self.outputs[0].read_text())
            failed, problems = (check_sweep if self.wl.sweep else check_bench)(report, self.wl)
            digest = fingerprint(self.outputs)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable report: {type(exc).__name__}: {exc}"
            return Call(seconds, wall, self.wl.units, [problem], tracer=tracer)
        return Call(seconds, wall, failed, problems, digest, tracer)


def timed_loop(runner: Runner, seconds: float, trace: bool) -> list:
    """Rounds of calls for `seconds`: a round starts only if a median round still fits (at least one).

    A round is one untraced call or, with trace, an untraced and a traced
    call in an order that flips every round.
    """
    rounds, durations = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        if not trace:
            rounds.append((runner.call(trace=False),))
        else:
            order = (False, True) if len(rounds) % 2 == 0 else (True, False)
            pair = {t: runner.call(trace=t) for t in order}
            rounds.append((pair[False], pair[True]))
        durations.append(time.perf_counter() - t0)
    return rounds


def per_layer_metrics(traced: list, untraced: list, layers: list) -> tuple[dict, list]:
    """Per-call layer metrics over the traced calls; returns (metrics, problems)."""
    per_call = [c.tracer.metrics(layers) for c in traced if c.tracer is not None]
    if not per_call:
        return {name: 0 for name, _ in PER_LAYER}, ["no traced call completed"]
    values, problems = {}, []
    for name, _ in PER_LAYER[:-1]:
        series = [m.get(name, 0) for m in per_call]
        if name.endswith(EXACT_SUFFIXES):
            values[name] = series[0]
            if any(v != series[0] for v in series):
                problems.append(f"{name} differs between traced calls: {series}")
        else:
            values[name] = statistics.median(series)
    values["trace.overhead_ratio"] = (
        statistics.median(c.seconds for c in traced) / statistics.median(c.seconds for c in untraced) - 1.0
    )
    return values, problems


def against_reference(actual, expected) -> str:
    """A mismatch is reported, not failed: a change may alter results on purpose and must say so."""
    if expected is None:
        return "no reference for these seeds"
    if actual == expected:
        return "matches reference"
    if isinstance(actual, dict):
        changed = sorted(k for k in set(actual) | set(expected) if actual.get(k) != expected.get(k))
        return "DIFFER from reference: " + ", ".join(f"{k} {expected.get(k)} -> {actual.get(k)}" for k in changed)
    return f"DIFFERS from reference {expected}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "xms" / "cli.py").is_file():
        print(f"benchmark: no xms sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.blas_threads > 0:
        for var in BLAS_ENV:  # must precede the first numpy import to take effect
            os.environ[var] = str(args.blas_threads)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (the probe needs numpy, so its import is timed in wall seconds)

    from speedprobe import SpeedProbe

    numpy_s = time.perf_counter() - t0
    probe = SpeedProbe()
    probe.start()
    try:
        return run(args, probe, numpy_s)
    finally:
        probe.stop()


def run(args, probe, numpy_s: float) -> int:
    """Import xms, set up, run the timed loop, check and print; every block is timed under the probe."""
    probe.begin()
    import numpy as np
    import scipy

    import calltrace
    import xms.cli
    import xms.dataset_io
    import xms.synthetic

    import_wall, import_s = probe.end()
    if Path(xms.__file__).resolve().parent != ROOT / "src" / "xms":
        print(f"benchmark: imported xms from {xms.__file__}, not from this checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)

    wl = WORKLOADS[args.workload]
    modules = SimpleNamespace(cli=xms.cli, dataset_io=xms.dataset_io, synthetic=xms.synthetic, calltrace=calltrace)
    runner = Runner(args.workload, args.data_seed, args.seed, modules, probe)
    shutil.rmtree(runner.dir, ignore_errors=True)
    runner.dir.mkdir(parents=True)

    print(f"workload {args.workload}: seed={args.seed} data_seed={args.data_seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(environment_line(np, scipy))
    setups = [runner.set_up() for _ in range(SETUPS)]
    problems = [f"warm-up call failed: {rc}" for _, _, rc in setups if rc != 0]
    print(f"inputs: sha256 {runner.input_fingerprint()}")

    rounds = timed_loop(runner, args.seconds, bool(args.trace))
    calls = [c for pair in rounds for c in pair]
    attempted = wl.units * len(calls)
    failed = sum(c.failed for c in calls)
    problems += [p for c in calls for p in c.problems]

    digests = {c.fingerprint for c in calls}
    if len(digests) > 1:
        problems.append(f"report fingerprint differs between calls: {sorted(map(str, digests))}")
    reference = json.loads((HERE / "reference.json").read_text())
    key = f"data_seed={args.data_seed} seed={args.seed}"
    print(f"report fingerprint: {calls[0].fingerprint} "
          f"({against_reference(calls[0].fingerprint, reference['fingerprints'].get(args.workload, {}).get(key))})")

    untraced = [pair[0] for pair in rounds]
    if args.trace:
        traced = [pair[1] for pair in rounds]
        metrics, trace_problems = per_layer_metrics(traced, untraced, calltrace.layers())
        problems += trace_problems
        counts = {name: v for name, v in metrics.items() if name.endswith(EXACT_SUFFIXES)}
        print(f"per-layer counts: {against_reference(counts, reference['counts'].get(args.workload, {}).get(key))}")
        missing = sorted(set().union(*(c.tracer.missing for c in traced if c.tracer is not None)))
        if missing:
            print(f"layers missing (reported as 0): {', '.join(missing)}")
        units = dict(PER_LAYER)
        print(f"per-layer metrics, per call, over {len(traced)} traced calls (self_s and bytes: median):")
        for name, value in metrics.items():
            print(f"  {name} = {value} {units[name]}")
    else:
        call_seconds = [c.seconds for c in untraced]
        wall_seconds = [c.wall_s for c in untraced]
        done = attempted - failed
        metrics = {
            "fit_evals_per_s": done / sum(call_seconds),
            "report_s_p50": statistics.median(call_seconds),
            "setup_s": numpy_s + import_s + statistics.median(s for s, _, _ in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        print(f"times at the reference speed of speedprobe.py; median reference/wall ratio of the calls "
              f"{statistics.median(c.seconds / c.wall_s for c in untraced):.4f}")
        print(f"  fit_evals_per_s = {metrics['fit_evals_per_s']} 1/s ({done} units in {sum(call_seconds):.3f} s; "
              f"wall clock {done / sum(wall_seconds):.4f} 1/s)")
        print(f"  report_s_p50 = {metrics['report_s_p50']} s (median of {len(call_seconds)} calls: "
              f"{', '.join(f'{s:.3f}' for s in call_seconds)}; wall clock {statistics.median(wall_seconds):.4f} s)")
        print(f"  setup_s = {metrics['setup_s']} s (numpy import {numpy_s:.3f} s wall + other imports "
              f"{import_s:.3f} s + median of {SETUPS} set-ups; wall clock "
              f"{numpy_s + import_wall + statistics.median(w for _, w, _ in setups):.4f} s)")
        print(f"  peak_rss_mb = {metrics['peak_rss_mb']} MB")
    print(f"  fail_ratio = {failed / attempted} ({failed} of {attempted} units)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
