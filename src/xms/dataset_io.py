"""Loading, validation, persistence, and splitting of paired two-modality datasets.

On-disk layout of a dataset directory::

    features_a.csv   one sample per row, comma-separated floats
    features_b.csv   same row count as features_a.csv
    labels.csv       one integer per row

Feature/label files may also use the binary format: magic ``XMS1``, two
little-endian uint64 (rows, cols), then rows*cols little-endian float64
values in row-major order.  An optional ``manifest.json`` can rename the
three files and declare the class count ``c``; it is read for those four keys
only, and any other key is ignored.

In memory, feature matrices are column-per-sample (d x n); the CSV/binary
files are row-per-sample and are transposed on load.

Where this process may fork onto two or more CPUs and runs no other Python
thread, ``load_dataset`` reads a text ``features_b`` and then the labels in a
forked child while it reads ``features_a`` itself, so both paths read the
files in the same order (``fork_cpu_count`` owns the CPU rule for every
process xms forks).
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import signal
import struct
import sys
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .errors import ConfigError, DataError, XmsError, is_int

_MAGIC = b"XMS1"

# the three files of a dataset directory, in manifest order; one that the manifest
# does not name is ``<role>.csv`` or ``<role>.bin``
ROLES = ("features_a", "features_b", "labels")


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense d x n matrix, one feature vector per column."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError("bad_shape", f"feature matrix must be 2-D and non-empty, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise DataError("non_finite", "feature matrix contains NaN or Inf")
        object.__setattr__(self, "values", values)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def _integer_labels(labels) -> np.ndarray:
    """``labels`` as a flat int64 array.  A label that is not an integer (1.5, NaN,
    inf, or beyond int64) is ``DataError("non_integer_label")``; integral floats such
    as 2.0 pass, as label files are read as floats."""
    raw = np.asarray(labels).ravel()
    if raw.dtype.kind not in "biu":
        raw = raw.astype(np.float64)
        if not ((raw == np.round(raw)) & (np.abs(raw) < 2.0**63)).all():  # NaN fails the first test, inf the second
            raise DataError("non_integer_label", "labels must be integers")
    return raw.astype(np.int64, copy=False)


@dataclass(frozen=True)
class PairedMultimodalDataset:
    """Aligned feature matrices for modalities a and b plus 1-based class labels.

    Column i of ``xa`` and column i of ``xb`` form one true pair sharing
    ``labels[i]``.  ``strict`` requires every class in 1..c to be populated;
    subsets of a dataset may legitimately miss a class and are built with
    ``strict=False``.
    """

    xa: FeatureMatrix
    xb: FeatureMatrix
    labels: np.ndarray
    c: int
    strict: bool = field(default=True, repr=False)

    def __post_init__(self):
        labels = _integer_labels(self.labels)
        object.__setattr__(self, "labels", labels)
        if self.xa.n != self.xb.n or self.xa.n != labels.size:
            raise DataError(
                "pair_count_mismatch",
                f"sample counts differ: xa has {self.xa.n}, xb has {self.xb.n}, labels has {labels.size}",
            )
        if self.c < 1:
            raise DataError("bad_class_count", f"c must be >= 1, got {self.c}")
        if labels.size and (labels.min() < 1 or labels.max() > self.c):
            raise DataError("label_range", f"labels must lie in 1..{self.c}, found range [{labels.min()}, {labels.max()}]")
        if self.strict:
            present = np.unique(labels)
            if present.size != self.c:
                missing = sorted(set(range(1, self.c + 1)) - set(present.tolist()))
                raise DataError("empty_class", f"classes without samples: {missing}")

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def d_a(self) -> int:
        return self.xa.d

    @property
    def d_b(self) -> int:
        return self.xb.d


def encode_labels(labels, c: int) -> np.ndarray:
    """One-hot encode 1-based labels into an n x c matrix (row i has a 1 at labels[i])."""
    labels = _integer_labels(labels)
    if labels.size and (labels.min() < 1 or labels.max() > c):
        raise DataError("label_range", f"labels must lie in 1..{c}")
    out = np.zeros((labels.size, c))
    out[np.arange(labels.size), labels - 1] = 1.0
    return out


def random_split(n: int, n_train: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform split without replacement into sorted 0-based ``(train_indices, test_indices)``;
    deterministic for a fixed seed."""
    if not (is_int(n_train) and 0 < n_train < n):
        raise ConfigError("bad_split", f"need an integer 0 < n_train < n, got n_train={n_train!r}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def stratified_split(labels, n_train: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class proportional split into sorted 0-based ``(train_indices, test_indices)``.

    Each class keeps the floor of its share of ``n_train``; the classes with
    the largest remainders get one sample more, and equal remainders are
    taken in an order drawn from the RNG.
    """
    labels = _integer_labels(labels)
    n = labels.size
    if not (is_int(n_train) and 0 < n_train < n):
        raise ConfigError("bad_split", f"need an integer 0 < n_train < n, got n_train={n_train!r}, n={n}")
    rng = np.random.default_rng(seed)
    frac = n_train / n
    members = [rng.permutation(np.flatnonzero(labels == cls)) for cls in np.unique(labels)]
    quotas = np.array([frac * idx.size for idx in members])
    counts = np.floor(quotas).astype(np.int64)
    # largest-remainder apportionment so the counts sum to exactly n_train: counts - quotas
    # ascending puts the largest remainder first, and equal remainders go by tie_order
    tie_order = rng.permutation(len(members))
    counts[np.lexsort((tie_order, counts - quotas))[: n_train - counts.sum()]] += 1
    train = np.sort(np.concatenate([idx[:m] for idx, m in zip(members, counts)]))
    test = np.setdiff1d(np.arange(n), train)
    return train, test


def subset(dataset: PairedMultimodalDataset, indices) -> PairedMultimodalDataset:
    """Select columns (pairs) in the given order from both modalities and labels.  A non-empty
    ``indices`` must hold integers (not a boolean mask, nor floats) in 0..n-1: ``index_range``."""
    indices = np.asarray(indices).ravel()
    if indices.size and (indices.dtype.kind not in "iu" or indices.min() < 0 or indices.max() >= dataset.n):
        raise DataError("index_range", f"indices must be integers in 0..{dataset.n - 1}")
    indices = indices.astype(np.int64, copy=False)
    return PairedMultimodalDataset(
        FeatureMatrix(dataset.xa.values[:, indices]),
        FeatureMatrix(dataset.xb.values[:, indices]),
        dataset.labels[indices],
        dataset.c,
        strict=False,
    )


def json_default(value):
    """The ``default=`` hook of the JSON writers: a numpy scalar, which the config checks accept as
    a number, is written as its Python value.  ``json`` calls it only for values it cannot write."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# matrix file IO


def write_matrix_stream(fh, values) -> None:
    """Write one XMS1 block (magic, rows, cols, row-major float64 LE) to a stream."""
    values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if values.ndim != 2:
        raise DataError("bad_shape", "binary matrix blocks hold 2-D arrays")
    fh.write(_MAGIC)
    fh.write(struct.pack("<QQ", values.shape[0], values.shape[1]))
    fh.write(values.astype("<f8").tobytes(order="C"))


def read_exact(fh, size: int, message: str) -> bytes:
    """The next ``size`` bytes of the seekable binary stream ``fh``.  A size field read from a file is
    checked against the bytes left before anything is read or allocated: one that runs past the end is
    ``DataError("malformed_file", message)``."""
    here = fh.tell()
    if size > fh.seek(0, os.SEEK_END) - here:
        raise DataError("malformed_file", message)
    fh.seek(here)
    return fh.read(size)


def read_matrix_stream(fh, name: str = "block") -> np.ndarray:
    head = fh.read(20)
    if len(head) < 20 or head[:4] != _MAGIC:
        raise DataError("malformed_file", f"{name}: missing XMS1 magic")
    rows, cols = struct.unpack("<QQ", head[4:20])
    if max(rows, cols) > np.iinfo(np.intp).max // 8:  # numpy's limit, which holds for an empty array too
        raise DataError("malformed_file", f"{name}: matrix block shape {rows}x{cols} is beyond any array")
    payload = read_exact(fh, rows * cols * 8, f"{name}: truncated matrix block ({rows}x{cols})")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def write_matrix_binary(path, values) -> None:
    """Write a 2-D array as a standalone XMS1 binary file."""
    with open(path, "wb") as fh:
        write_matrix_stream(fh, values)


def read_matrix_binary(path) -> np.ndarray:
    path = Path(path)
    with open(path, "rb") as fh:
        values = read_matrix_stream(fh, str(path))
        if fh.read(1):
            raise DataError("malformed_file", f"{path}: trailing bytes after matrix block")
    return values


def write_matrix_csv(path, values) -> None:
    np.savetxt(path, np.asarray(values, dtype=np.float64), delimiter=",", fmt="%.17g")


def read_matrix_text(path) -> np.ndarray:
    """Read a CSV matrix.  ``#`` starts a comment, as in ``np.loadtxt``: a line
    that starts with ``#`` is skipped wherever it stands, as is the rest of a
    data line from a ``#`` on, and so are blank lines.  A file with no data
    row is ``DataError("malformed_file")``."""
    try:
        with warnings.catch_warnings():
            # the typed error below says it, without numpy's warning first
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise DataError("malformed_file", f"{path}: {exc}") from exc
    if values.size == 0:
        raise DataError("malformed_file", f"{path}: no data rows")
    return values


def _is_binary(path) -> bool:
    with open(path, "rb") as fh:
        return fh.read(4) == _MAGIC


def read_matrix(path) -> np.ndarray:
    """Read a matrix file, sniffing binary vs text by the magic bytes."""
    path = Path(path)
    if not path.is_file():
        raise DataError("missing_file", f"{path}: no such file")
    return read_matrix_binary(path) if _is_binary(path) else read_matrix_text(path)


# ---------------------------------------------------------------------------
# forked processes


def fork_cpu_count() -> int:
    """The CPUs that processes forked from this one may run on: those of this process's affinity
    mask.  0 where it may not fork: a platform without fork or an affinity mask, or a daemonic
    process (a pool worker), which may not start processes of its own."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    multiprocessing = sys.modules.get("multiprocessing")  # a process that never loaded it is no pool worker
    if multiprocessing is not None and multiprocessing.current_process().daemon:
        return 0
    return len(os.sched_getaffinity(0))


def _fork_call(job: Callable[[], object]) -> tuple[int, BinaryIO] | None:
    """Fork a child that runs ``job()`` and sends back, as one pickle on a pipe, its result or the
    ``XmsError`` it raised; returns ``(pid, read end of the pipe)``, or None where no process can be
    started.

    The job resolves and reads files only, so no BLAS or LAPACK code runs in
    the forked copy.  The child leaves by ``os._exit``: no atexit hook runs and
    no inherited stdio buffer is flushed twice.  Any other exception ends it
    without a result.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # say, the process limit is reached
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                outcome = job()
            except XmsError as exc:
                outcome = exc
            with open(write_end, "wb") as pipe:
                pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


# ---------------------------------------------------------------------------
# dataset directory IO


def _resolve(directory: Path, manifest: dict, role: str) -> Path:
    if role in manifest:
        path = directory / manifest[role]
        if not path.is_file():
            raise DataError("missing_file", f"{path}: named by manifest but absent")
        return path
    for ext in (".csv", ".bin"):
        path = directory / (role + ext)
        if path.is_file():
            return path
    raise DataError("missing_file", f"{directory}: no {role}.csv or .bin")


def _normalize_labels(raw: np.ndarray, declared_c: int | None) -> tuple[np.ndarray, int]:
    labels = _integer_labels(raw)
    if declared_c is not None:
        return labels, declared_c  # checked against c by PairedMultimodalDataset
    # no declared c: remap whatever integers appear onto 1..c preserving order
    uniq, codes = np.unique(labels, return_inverse=True)
    return codes + 1, uniq.size


def _read_roles(directory: Path, manifest: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of each file in ``ROLES``, read in that order, resolving each file just before it
    is read; the first failure is raised.

    Where this process may fork onto two or more CPUs, runs no other Python
    thread and ``features_b`` is a text file, the sequence is split after its
    first file: a child (``_fork_call``) reads ``features_b`` and then the
    labels while this process reads ``features_a``.  A fork of a process that
    runs other threads can leave the child waiting on a lock one of them held
    (OpenBLAS stops its own threads before a fork).  A binary file is a copy,
    which a child would only slow down.  The child is killed and reaped on
    every path; if it sends no whole result, this process reads the rest itself.
    """

    def read(role: str) -> np.ndarray:
        return read_matrix(_resolve(directory, manifest, role))

    def rest() -> tuple[np.ndarray, ...]:
        return tuple(read(role) for role in ROLES[1:])

    child = None
    if fork_cpu_count() > 1 and threading.active_count() == 1:
        with contextlib.suppress(DataError, OSError):  # raised by the serial read, in its turn
            if not _is_binary(_resolve(directory, manifest, ROLES[1])):
                child = _fork_call(rest)
    if child is None:
        return (read(ROLES[0]), *rest())

    pid, pipe = child
    outcome = None
    try:
        first = read(ROLES[0])
        with contextlib.suppress(Exception):  # cut short (the child died) or unreadable: read again below
            outcome = pickle.load(pipe)  # read straight from the pipe: no second copy of the arrays
    finally:
        pipe.close()
        with contextlib.suppress(ProcessLookupError, ChildProcessError):  # reaped elsewhere (SIGCHLD ignored)
            os.kill(pid, signal.SIGKILL)  # one that sent its whole result is exiting anyway
            os.waitpid(pid, 0)
    if outcome is None:  # no whole result from the child
        outcome = rest()
    if isinstance(outcome, XmsError):
        raise outcome
    return (first, *outcome)


def load_dataset(path) -> PairedMultimodalDataset:
    """Load and validate a dataset directory; pairing is by row order."""
    directory = Path(path)
    if not directory.is_dir():
        raise DataError("missing_file", f"{directory}: not a dataset directory")
    manifest = {}
    manifest_path = directory / "manifest.json"
    if manifest_path.is_file():
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise DataError("malformed_file", f"{manifest_path}: {exc}") from exc
        if not (
            isinstance(manifest, dict)
            and all(isinstance(manifest.get(role, ""), str) for role in ROLES)
            and (manifest.get("c") is None or is_int(manifest["c"]))
        ):
            raise DataError("malformed_file", f"{manifest_path}: must map {ROLES} to file names and c to an integer")

    xa_rows, xb_rows, raw_labels = _read_roles(directory, manifest)
    if raw_labels.shape[1] != 1:
        raise DataError("malformed_file", "labels file must have one value per row")
    if xa_rows.shape[0] != xb_rows.shape[0] or xa_rows.shape[0] != raw_labels.shape[0]:
        raise DataError(
            "pair_count_mismatch",
            f"row counts differ: features_a={xa_rows.shape[0]}, features_b={xb_rows.shape[0]}, labels={raw_labels.shape[0]}",
        )
    labels, c = _normalize_labels(raw_labels, manifest.get("c"))
    return PairedMultimodalDataset(FeatureMatrix(xa_rows.T), FeatureMatrix(xb_rows.T), labels, c)


def save_dataset(dataset: PairedMultimodalDataset, path, fmt: str = "csv") -> None:
    """Write a dataset directory (``fmt`` is ``csv`` or ``binary``) plus manifest."""
    if fmt not in ("csv", "binary"):
        raise ConfigError("bad_format", f"fmt must be csv or binary, got {fmt!r}")
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    ext = ".csv" if fmt == "csv" else ".bin"
    write = write_matrix_csv if fmt == "csv" else write_matrix_binary
    rows = (dataset.xa.values.T, dataset.xb.values.T, dataset.labels.reshape(-1, 1).astype(np.float64))
    for role, values in zip(ROLES, rows):
        write(directory / (role + ext), values)
    manifest = {**{role: role + ext for role in ROLES}, "c": int(dataset.c)}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
