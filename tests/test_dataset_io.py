import io
import json
import os
import pickle
import signal
import struct
import threading
import warnings

import numpy as np
import pytest

import xms.dataset_io
from xms.dataset_io import (
    FeatureMatrix,
    PairedMultimodalDataset,
    _normalize_labels,
    encode_labels,
    load_dataset,
    random_split,
    read_matrix,
    read_matrix_binary,
    save_dataset,
    stratified_split,
    subset,
    write_matrix_binary,
    write_matrix_stream,
)
from xms.errors import ConfigError, DataError
from xms.methods.cdfe import pair_weights
from xms.numerics import class_knn_graphs, scatter
from xms.synthetic import make_synthetic_dataset
from tests.conftest import refused_without_allocating


def make_dataset(rng, n, c, d_a=4, d_b=3):
    labels = np.arange(n) % c + 1
    return PairedMultimodalDataset(
        FeatureMatrix(rng.standard_normal((d_a, n))),
        FeatureMatrix(rng.standard_normal((d_b, n))),
        labels,
        c,
    )


# ---------------------------------------------------------------------------
# types and validation


def test_feature_matrix_rejects_non_finite():
    with pytest.raises(DataError) as err:
        FeatureMatrix(np.array([[1.0, np.nan]]))
    assert err.value.code == "non_finite"


def test_pair_count_mismatch():
    with pytest.raises(DataError) as err:
        PairedMultimodalDataset(
            FeatureMatrix(np.zeros((2, 10))), FeatureMatrix(np.zeros((2, 9))), np.ones(10, dtype=int), 1
        )
    assert err.value.code == "pair_count_mismatch"


def test_label_out_of_range():
    with pytest.raises(DataError) as err:
        PairedMultimodalDataset(
            FeatureMatrix(np.zeros((2, 3))), FeatureMatrix(np.zeros((2, 3))), np.array([1, 2, 4]), 3
        )
    assert err.value.code == "label_range"


@pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, -np.inf, 2.0**63])
def test_non_integer_labels_rejected(bad):
    # a cast would truncate 1.5 to 1 without a word
    x = FeatureMatrix(np.zeros((2, 3)))
    with pytest.raises(DataError) as err:
        PairedMultimodalDataset(x, x, [bad, 2.0, 1.0], 2)
    assert err.value.code == "non_integer_label"


LABEL_READERS = {
    "encode_labels": lambda labels: encode_labels(labels, 3),
    "stratified_split": lambda labels: stratified_split(labels, 2, 0),
    "scatter": lambda labels: scatter(FeatureMatrix(np.arange(8.0).reshape(2, 4)), labels),
    "class_knn_graphs": lambda labels: class_knn_graphs(FeatureMatrix(np.arange(8.0).reshape(2, 4)), labels, 1, 1),
    "pair_weights": lambda labels: pair_weights(labels, 0.5),
}


@pytest.mark.parametrize("bad", [1.5, np.nan, np.inf])
@pytest.mark.parametrize("reader", sorted(LABEL_READERS))
def test_public_label_readers_apply_the_label_rule(reader, bad):
    # each would cast [1.5, 1.2, 2.9, 2.1] to [1, 1, 2, 2] without a word
    with pytest.raises(DataError) as err:
        LABEL_READERS[reader]([bad, 1.2, 2.9, 2.1])
    assert err.value.code == "non_integer_label"
    LABEL_READERS[reader]([1.0, 1.0, 2.0, 2.0])


def test_integral_float_labels_accepted():
    x = FeatureMatrix(np.zeros((2, 3)))
    ds = PairedMultimodalDataset(x, x, [2.0, 1.0, 2.0], 2)
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [2, 1, 2]


@pytest.mark.parametrize(
    "build, code",
    [
        pytest.param(lambda x: FeatureMatrix(np.zeros(3)), "bad_shape", id="feature-matrix-1d"),
        pytest.param(lambda x: PairedMultimodalDataset(x, x, [1, 1, 1], 0), "bad_class_count", id="c-zero"),
    ],
)
def test_constructors_refuse_bad_shapes_and_counts(build, code):
    with pytest.raises(DataError) as err:
        build(FeatureMatrix(np.zeros((2, 3))))
    assert err.value.code == code


def test_empty_class_rejected_when_strict():
    with pytest.raises(DataError) as err:
        PairedMultimodalDataset(
            FeatureMatrix(np.zeros((2, 3))), FeatureMatrix(np.zeros((2, 3))), np.array([1, 1, 3]), 3
        )
    assert err.value.code == "empty_class"


# ---------------------------------------------------------------------------
# encode_labels


def test_encode_labels_examples():
    assert encode_labels([1, 2, 1], 2).tolist() == [[1, 0], [0, 1], [1, 0]]
    assert encode_labels([3], 3).tolist() == [[0, 0, 1]]
    with pytest.raises(DataError):
        encode_labels([4], 3)


def test_encode_labels_rows_sum_to_one(rng):
    labels = rng.integers(1, 6, size=50)
    onehot = encode_labels(labels, 5)
    assert np.all(onehot.sum(axis=1) == 1.0)
    assert set(np.unique(onehot)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# splits


def test_random_split_shoe_and_chair_counts():
    train_idx, test_idx = random_split(419, 304, seed=1)
    assert train_idx.size == 304 and test_idx.size == 115
    train_idx, test_idx = random_split(297, 200, seed=1)
    assert train_idx.size == 200 and test_idx.size == 97


def test_random_split_deterministic():
    a_train, a_test = random_split(100, 60, seed=42)
    b_train, b_test = random_split(100, 60, seed=42)
    assert np.array_equal(a_train, b_train)
    assert np.array_equal(a_test, b_test)
    c_train, _ = random_split(100, 60, seed=43)
    assert not np.array_equal(a_train, c_train)


def test_random_split_partition_over_many_seeds():
    for seed in range(1000):
        train_idx, test_idx = random_split(37, 20, seed)
        train, test = set(train_idx.tolist()), set(test_idx.tolist())
        assert not train & test
        assert train | test == set(range(37))


def test_random_split_bad_sizes():
    with pytest.raises(ConfigError):
        random_split(10, 10, 0)
    with pytest.raises(ConfigError):
        random_split(10, 0, 0)


def test_split_sizes_must_leave_both_sides_non_empty():
    for split in (lambda n_train: random_split(5, n_train, 0), lambda n_train: stratified_split([1, 2, 1, 2, 1], n_train, 0)):
        for n_train in (0, 5):
            with pytest.raises(ConfigError) as err:
                split(n_train)
            assert err.value.code == "bad_split"


@pytest.mark.parametrize(
    "split",
    [
        pytest.param(lambda: random_split(30, True, 0), id="random-bool"),
        pytest.param(lambda: random_split(30, 20.0, 0), id="random-float"),
        pytest.param(lambda: stratified_split(np.arange(30) % 3 + 1, 20.0, 0), id="stratified-float"),
    ],
)
def test_split_sizes_must_be_integers(split):
    # True would split off one sample, and 20.0 would fail as a slice index with an untyped error
    with pytest.raises(ConfigError) as err:
        split()
    assert err.value.code == "bad_split"


def test_stratified_split_preserves_class_balance():
    labels = np.repeat([1, 2, 3], [50, 30, 20])
    train_idx, _ = stratified_split(labels, 60, seed=3)
    assert train_idx.size == 60
    counts = np.bincount(labels[train_idx], minlength=4)[1:]
    assert counts.tolist() == [30, 18, 12]


def test_stratified_split_draws_tied_remainders_at_random():
    # 3 classes of 5 and n_train=7: each share is 7/3, so exactly one class gets 3
    labels = np.repeat([1, 2, 3], 5)
    got_extra = np.zeros(3, dtype=int)
    for seed in range(30):
        train_idx, _ = stratified_split(labels, 7, seed)
        counts = np.bincount(labels[train_idx], minlength=4)[1:]
        assert counts.sum() == 7
        assert set(counts.tolist()) <= {2, 3}
        got_extra += counts == 3
    assert np.all(got_extra >= 1)


# ---------------------------------------------------------------------------
# subset


def test_subset_identity(rng):
    ds = make_dataset(rng, 12, 3)
    same = subset(ds, np.arange(12))
    assert np.array_equal(same.xa.values, ds.xa.values)
    assert np.array_equal(same.labels, ds.labels)


def test_subset_partition_counts(rng):
    ds = make_dataset(rng, 30, 3)
    train_idx, test_idx = random_split(30, 18, seed=0)
    train, test = subset(ds, train_idx), subset(ds, test_idx)
    assert train.n + test.n == ds.n


def test_subset_swap_involution(rng):
    ds = make_dataset(rng, 8, 2)
    twice = subset(subset(ds, [1, 0]), [1, 0])
    assert np.array_equal(twice.xa.values, ds.xa.values[:, :2])
    assert np.array_equal(twice.xb.values, ds.xb.values[:, :2])
    assert np.array_equal(twice.labels, ds.labels[:2])


def test_subset_preserves_pairing(rng):
    ds = make_dataset(rng, 25, 4)
    for seed in range(50):
        idx = np.random.default_rng(seed).permutation(25)[:10]
        sub = subset(ds, idx)
        assert np.array_equal(sub.labels, ds.labels[idx])
        assert np.array_equal(sub.xa.values, ds.xa.values[:, idx])
        assert np.array_equal(sub.xb.values, ds.xb.values[:, idx])


def test_subset_index_out_of_range(rng):
    ds = make_dataset(rng, 5, 2)
    with pytest.raises(DataError) as err:
        subset(ds, [0, 5])
    assert err.value.code == "index_range"


@pytest.mark.parametrize(
    "indices", [pytest.param(lambda ds: ds.labels == 1, id="boolean-mask"), pytest.param(lambda ds: [0.0, 2.7], id="floats")]
)
def test_subset_refuses_indices_that_are_not_integers(rng, indices):
    # a mask read as indices picks samples 0 and 1 over and over, and 2.7 would be truncated to 2
    ds = make_dataset(rng, 30, 3)
    with pytest.raises(DataError) as err:
        subset(ds, indices(ds))
    assert err.value.code == "index_range"


# ---------------------------------------------------------------------------
# file round trips


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child that ``os.fork`` starts in this process."""
    pids, real_fork = [], os.fork

    def spy():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def set_cpus(monkeypatch, cpus):
    """Make the affinity mask read ``cpus``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _comment_csv(path):
    """Put # comment lines before, between and after a CSV's rows, and a note after its first row."""
    rows = path.read_text().splitlines()
    rows[0] += " # note"
    path.write_text("\n".join(["# header", rows[0], "# between", "", *rows[1:], "# last"]) + "\n")


def _as_binary(directory, role):
    """Replace the dataset's CSV of ``role`` by a binary file of the same values."""
    write_matrix_binary(directory / f"{role}.bin", read_matrix(directory / f"{role}.csv"))
    (directory / f"{role}.csv").unlink()
    _set_manifest(directory, **{role: f"{role}.bin"})


@pytest.mark.parametrize("fmt", ["csv", "binary", "a-binary", "b-binary"])
def test_save_load_round_trip(rng, tmp_path, monkeypatch, forks, fmt):
    ds = make_dataset(rng, 17, 3)
    directory = tmp_path / "ds"
    save_dataset(ds, directory, fmt="binary" if fmt == "binary" else "csv")
    if fmt in ("a-binary", "b-binary"):
        _as_binary(directory, "features_a" if fmt == "a-binary" else "features_b")
    for path in directory.glob("*.csv"):
        _comment_csv(path)
    # a text features_b is parsed in a forked child on two CPUs and nowhere else, to the same arrays
    loads = {}
    for cpus in ((0,), (0, 1)):
        set_cpus(monkeypatch, cpus)
        loads[cpus] = load_dataset(directory)
        assert len(forks) == (len(cpus) > 1 and fmt in ("csv", "a-binary"))
        forks.clear()
    serial, back = loads[(0,)], loads[(0, 1)]
    assert (back.xa.values == serial.xa.values).all() and (back.xb.values == serial.xb.values).all()
    assert (back.labels == serial.labels).all() and back.c == serial.c
    assert back.n == ds.n and back.c == ds.c
    if fmt == "binary":
        assert np.array_equal(back.xa.values, ds.xa.values)
        assert np.array_equal(back.xb.values, ds.xb.values)
    else:
        np.testing.assert_allclose(back.xa.values, ds.xa.values, atol=1e-12)
        np.testing.assert_allclose(back.xb.values, ds.xb.values, atol=1e-12)
    assert np.array_equal(back.labels, ds.labels)
    assert_no_child_left()


def test_binary_round_trip_bit_exact(rng, tmp_path):
    values = rng.standard_normal((7, 5)) * 1e-7
    write_matrix_binary(tmp_path / "m.bin", values)
    assert np.array_equal(read_matrix(tmp_path / "m.bin"), values)


def test_load_shoe_shaped_directory(rng, tmp_path):
    # 419 pairs, 3 subclasses, as in the shoe protocol
    ds = make_dataset(rng, 419, 3, d_a=6, d_b=6)
    save_dataset(ds, tmp_path / "shoe")
    back = load_dataset(tmp_path / "shoe")
    assert back.n == 419 and back.c == 3


def test_load_chair_shaped_directory(rng, tmp_path):
    ds = make_dataset(rng, 297, 6, d_a=5, d_b=4)
    save_dataset(ds, tmp_path / "chair")
    back = load_dataset(tmp_path / "chair")
    assert back.n == 297 and back.c == 6


def test_load_mismatched_rows(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    np.savetxt(d / "features_a.csv", np.zeros((10, 3)), delimiter=",")
    np.savetxt(d / "features_b.csv", np.zeros((9, 3)), delimiter=",")
    np.savetxt(d / "labels.csv", np.ones((10, 1)), delimiter=",")
    with pytest.raises(DataError) as err:
        load_dataset(d)
    assert err.value.code == "pair_count_mismatch"


def test_load_non_finite(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    np.savetxt(d / "features_a.csv", np.full((4, 2), np.inf), delimiter=",")
    np.savetxt(d / "features_b.csv", np.zeros((4, 2)), delimiter=",")
    np.savetxt(d / "labels.csv", np.ones((4, 1)), delimiter=",")
    with pytest.raises(DataError) as err:
        load_dataset(d)
    assert err.value.code == "non_finite"


def test_load_label_outside_declared_c(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    np.savetxt(d / "features_a.csv", np.zeros((3, 2)), delimiter=",")
    np.savetxt(d / "features_b.csv", np.zeros((3, 2)), delimiter=",")
    np.savetxt(d / "labels.csv", np.array([[1], [2], [5]]), delimiter=",")
    (d / "manifest.json").write_text(json.dumps({"c": 3}))
    with pytest.raises(DataError) as err:
        load_dataset(d)
    assert err.value.code == "label_range"


def test_load_declared_c_with_an_empty_class(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    np.savetxt(d / "features_a.csv", np.zeros((3, 2)), delimiter=",")
    np.savetxt(d / "features_b.csv", np.zeros((3, 2)), delimiter=",")
    np.savetxt(d / "labels.csv", np.array([[1], [2], [2]]), delimiter=",")
    (d / "manifest.json").write_text(json.dumps({"c": 3}))
    with pytest.raises(DataError) as err:
        load_dataset(d)
    assert err.value.code == "empty_class"


@pytest.mark.parametrize("declared_c", [None, 3])
@pytest.mark.parametrize("bad", ["1.5", "nan", "inf"])
def test_load_non_integer_labels(tmp_path, declared_c, bad):
    # checked before the labels are remapped, by the constructor's rule
    d = tmp_path / "bad"
    d.mkdir()
    np.savetxt(d / "features_a.csv", np.zeros((3, 2)), delimiter=",")
    np.savetxt(d / "features_b.csv", np.zeros((3, 2)), delimiter=",")
    (d / "labels.csv").write_text(f"1\n{bad}\n3\n")
    if declared_c is not None:
        (d / "manifest.json").write_text(json.dumps({"c": declared_c}))
    with pytest.raises(DataError) as err:
        load_dataset(d)
    assert err.value.code == "non_integer_label"
    with pytest.raises(DataError) as err:
        _normalize_labels(np.array([[1.0], [float(bad)], [3.0]]), declared_c)
    assert err.value.code == "non_integer_label"


def test_load_malformed_file(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "features_a.csv").write_text("1.0,2.0\nnot,numbers\n")
    np.savetxt(d / "features_b.csv", np.zeros((2, 2)), delimiter=",")
    np.savetxt(d / "labels.csv", np.ones((2, 1)), delimiter=",")
    with pytest.raises(DataError) as err:
        load_dataset(d)
    assert err.value.code == "malformed_file"


@pytest.mark.parametrize(
    "manifest",
    [
        pytest.param(["features_a.csv"], id="list"),
        pytest.param({"c": "3"}, id="c-str"),
        pytest.param({"c": 3.0}, id="c-float"),
        pytest.param({"features_a": 5}, id="file-int"),
    ],
)
def test_load_malformed_manifest(tmp_path, manifest):
    d = tmp_path / "bad"
    d.mkdir()
    np.savetxt(d / "features_a.csv", np.zeros((3, 2)), delimiter=",")
    np.savetxt(d / "features_b.csv", np.zeros((3, 2)), delimiter=",")
    np.savetxt(d / "labels.csv", np.array([[1], [2], [3]]), delimiter=",")
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError) as err:
        load_dataset(d)
    assert err.value.code == "malformed_file"


def test_load_missing_file(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    with pytest.raises(DataError) as err:
        load_dataset(d)
    assert err.value.code == "missing_file"


def test_load_remaps_noncontiguous_labels(tmp_path):
    d = tmp_path / "remap"
    d.mkdir()
    np.savetxt(d / "features_a.csv", np.arange(8.0).reshape(4, 2), delimiter=",")
    np.savetxt(d / "features_b.csv", np.arange(8.0).reshape(4, 2), delimiter=",")
    np.savetxt(d / "labels.csv", np.array([[10], [30], [10], [20]]), delimiter=",")
    back = load_dataset(d)
    assert back.c == 3
    assert back.labels.tolist() == [1, 3, 1, 2]


def test_label_remap_equals_per_sample_dict_reference():
    rng = np.random.default_rng(17)
    for case in range(300):
        raw = rng.integers(-40, 40, size=(int(rng.integers(1, 120)), 1)).astype(float)
        # reference: map each distinct label to its 1-based rank, one sample at a time
        values = raw.ravel().astype(np.int64)
        rank = {int(v): i + 1 for i, v in enumerate(np.unique(values))}
        expected = np.array([rank[int(v)] for v in values], dtype=np.int64)
        labels, c = _normalize_labels(raw, None)
        assert c == len(rank)
        assert labels.dtype == expected.dtype and labels.shape == expected.shape
        assert np.array_equal(labels, expected)


def test_csv_header_row_skipped(tmp_path):
    d = tmp_path / "hdr"
    d.mkdir()
    (d / "features_a.csv").write_text("# f0,f1\n1.0,2.0\n3.0,4.0\n")
    (d / "features_b.csv").write_text("1.0,2.0\n3.0,4.0\n")
    (d / "labels.csv").write_text("1\n2\n")
    back = load_dataset(d)
    assert back.n == 2
    assert back.xa.values.T.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    # every # line is skipped wherever it stands, and a data line's tail from its # on
    (d / "features_b.csv").write_text("1.0,2.0\n# between rows\n\n3.0,4.0 # trailing note\n# last\n")
    assert load_dataset(d).xb.values.T.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_refuses_a_missing_matrix_file(tmp_path):
    with pytest.raises(DataError) as err:
        read_matrix(tmp_path / "absent.csv")
    assert err.value.code == "missing_file"


def test_matrix_block_refuses_a_3d_array():
    with pytest.raises(DataError) as err:
        write_matrix_stream(io.BytesIO(), np.zeros((2, 2, 2)))
    assert err.value.code == "bad_shape"


def _block(values):
    stream = io.BytesIO()
    write_matrix_stream(stream, values)
    return stream.getvalue()


def _header(rows, cols):
    """A block header declaring ``rows x cols``, followed by 64 bytes of payload."""
    return b"XMS1" + struct.pack("<QQ", rows, cols) + bytes(64)


@pytest.mark.parametrize(
    "content, message",
    [
        pytest.param(b"XMS2" + _block(np.ones((2, 3)))[4:], "missing XMS1 magic", id="wrong-magic"),
        pytest.param(_block(np.ones((2, 3)))[:-8], "truncated matrix block", id="truncated"),
        pytest.param(_block(np.ones((2, 3))) + b"\0", "trailing bytes", id="trailing-bytes"),
        # a declared shape whose payload runs past the end of the file, or that no array can hold even when
        # empty, is refused from the header, before anything of its size is read
        pytest.param(_header(2**63, 2**63), "beyond any array", id="size-overflows-2x"),
        pytest.param(_header(2**40, 2**20), "truncated matrix block", id="size-2^63-bytes"),
        pytest.param(_header(1, 2**61), "beyond any array", id="size-2^64-bytes"),
        pytest.param(_header(0, 2**63), "beyond any array", id="empty-cols-beyond-numpy"),
        pytest.param(_header(2**64 - 1, 0), "beyond any array", id="empty-rows-beyond-numpy"),
    ],
)
def test_binary_matrix_file_refuses_bad_bytes(tmp_path, content, message):
    path = tmp_path / "m.bin"
    path.write_bytes(content)
    err = refused_without_allocating(read_matrix_binary, path)
    assert err.code == "malformed_file" and message in str(err)


def _set_manifest(directory, **entries):
    manifest = json.loads((directory / "manifest.json").read_text())
    (directory / "manifest.json").write_text(json.dumps({**manifest, **entries}))


@pytest.mark.parametrize(
    "breakage, code",
    [
        pytest.param(lambda d: (d / "features_a.csv").write_text(""), "malformed_file", id="empty-csv"),
        pytest.param(lambda d: (d / "features_a.csv").write_text("# f0,f1\n\n# f2\n"), "malformed_file", id="comments-only-csv"),
        pytest.param(lambda d: _set_manifest(d, features_b="gone.csv"), "missing_file", id="manifest-file-absent"),
        pytest.param(lambda d: (d / "manifest.json").write_text("{not json"), "malformed_file", id="manifest-not-json"),
        pytest.param(lambda d: (d / "labels.csv").write_text("1,1\n2,2\n1,1\n2,2\n"), "malformed_file", id="labels-2-cols"),
    ],
)
def test_load_refuses_broken_directories(rng, tmp_path, breakage, code):
    save_dataset(make_dataset(rng, 4, 2), tmp_path)
    breakage(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the typed error alone, without a warning before it
        with pytest.raises(DataError) as err:
            load_dataset(tmp_path)
    assert err.value.code == code


MALFORMED_CSV = "1.0,2.0\nnot,numbers\n"


@pytest.mark.parametrize(
    "breakage, culprit, code",
    [
        pytest.param({"features_a.csv": MALFORMED_CSV, "labels.csv": None}, "features_a.csv", "malformed_file",
                     id="a-malformed-labels-missing"),
        pytest.param({"features_a.csv": MALFORMED_CSV, "features_b.csv": MALFORMED_CSV}, "features_a.csv",
                     "malformed_file", id="a-and-b-malformed"),
        pytest.param({"features_b.csv": MALFORMED_CSV, "labels.csv": MALFORMED_CSV}, "features_b.csv",
                     "malformed_file", id="b-and-labels-malformed"),
        pytest.param({"features_b.csv": MALFORMED_CSV, "labels.csv": None}, "features_b.csv", "malformed_file",
                     id="b-malformed-labels-missing"),
        pytest.param({"manifest": "gone.csv", "labels.csv": MALFORMED_CSV}, "gone.csv", "missing_file",
                     id="b-absent-labels-malformed"),
        pytest.param({"labels.csv": MALFORMED_CSV}, "labels.csv", "malformed_file", id="labels-malformed"),
        pytest.param({"labels.csv": None}, "labels.csv", "missing_file", id="labels-missing"),
    ],
)
@pytest.mark.parametrize("cpus", [(0,), (0, 1)], ids=["one-cpu", "two-cpus"])
def test_load_errors_keep_the_role_order(rng, tmp_path, monkeypatch, forks, breakage, culprit, code, cpus):
    # resolve a, read a, resolve b, read b, resolve labels, read labels: the first failure is raised,
    # with no warning before it, whether or not features_b is parsed in a forked child
    save_dataset(make_dataset(rng, 4, 2), tmp_path)
    for name, text in breakage.items():
        if name == "manifest":
            _set_manifest(tmp_path, features_b=text)
        elif text is None:
            (tmp_path / name).unlink()
        else:
            (tmp_path / name).write_text(text)
    set_cpus(monkeypatch, cpus)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as err:
            load_dataset(tmp_path)
    assert err.value.code == code
    assert str(err.value).startswith(str(tmp_path / culprit))
    assert len(forks) == (len(cpus) > 1 and "manifest" not in breakage)
    assert_no_child_left()


def test_forked_reads_leave_no_child(rng, tmp_path, monkeypatch, forks):
    save_dataset(make_dataset(rng, 40, 2), tmp_path)
    set_cpus(monkeypatch, (0, 1))
    load_dataset(tmp_path)
    assert_no_child_left()
    (tmp_path / "features_a.csv").write_text(MALFORMED_CSV)  # raised while the child may still be parsing
    with pytest.raises(DataError):
        load_dataset(tmp_path)
    assert_no_child_left()
    assert len(forks) == 2


def _die(path):
    os.kill(os.getpid(), signal.SIGKILL)


def _unreadable(pipe):
    raise ValueError("cannot reshape array")  # as numpy's _frombuffer may raise on a bad stream


@pytest.mark.parametrize("breakage", ["child-killed", "result-unreadable"])
def test_child_result_that_does_not_arrive_is_read_again(rng, tmp_path, monkeypatch, forks, breakage):
    save_dataset(make_dataset(rng, 17, 3), tmp_path)
    set_cpus(monkeypatch, (0,))
    expected = load_dataset(tmp_path)
    if breakage == "child-killed":
        parent, real_read = os.getpid(), xms.dataset_io.read_matrix
        monkeypatch.setattr(xms.dataset_io, "read_matrix", lambda path: (_die if os.getpid() != parent else real_read)(path))
    else:
        monkeypatch.setattr(pickle, "load", _unreadable)
    set_cpus(monkeypatch, (0, 1))
    back = load_dataset(tmp_path)
    assert len(forks) == 1
    assert (back.xb.values == expected.xb.values).all() and (back.xa.values == expected.xa.values).all()
    assert (back.labels == expected.labels).all()
    assert_no_child_left()


def test_a_process_running_other_threads_forks_nothing(rng, tmp_path, monkeypatch, forks):
    # a fork of a multi-threaded process can leave the child waiting on a lock another thread held
    save_dataset(make_dataset(rng, 17, 3), tmp_path)
    set_cpus(monkeypatch, (0,))
    expected = load_dataset(tmp_path)
    set_cpus(monkeypatch, (0, 1))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        back = load_dataset(tmp_path)
    finally:
        stop.set()
        thread.join()
    assert not forks
    assert (back.xb.values == expected.xb.values).all() and (back.xa.values == expected.xa.values).all()
    assert (back.labels == expected.labels).all()


def test_load_reads_every_file_itself_when_fork_fails(rng, tmp_path, monkeypatch):
    ds = make_dataset(rng, 17, 3)
    save_dataset(ds, tmp_path / "csv")
    set_cpus(monkeypatch, (0, 1))

    def fork_refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork_refused)
    back = load_dataset(tmp_path / "csv")
    np.testing.assert_allclose(back.xb.values, ds.xb.values, atol=1e-12)
    assert np.array_equal(back.labels, ds.labels)


@pytest.mark.parametrize("sample_ids", ["ids.txt", ["ids.txt"], "absent.txt"], ids=["string", "list", "absent-file"])
def test_manifest_keys_beyond_the_files_and_c_are_ignored(rng, tmp_path, sample_ids):
    # a sample-id entry, which older datasets carry, is one more ignored key, whatever its value
    save_dataset(make_dataset(rng, 6, 2), tmp_path)
    (tmp_path / "ids.txt").write_text("s0\ns1\ns2\ns3\ns4\ns5\n")
    expected = load_dataset(tmp_path)
    _set_manifest(tmp_path, sample_ids=sample_ids, notes="hand-made")
    back = load_dataset(tmp_path)
    assert np.array_equal(back.xa.values, expected.xa.values) and np.array_equal(back.xb.values, expected.xb.values)
    assert np.array_equal(back.labels, expected.labels) and back.c == expected.c


def test_save_dataset_refuses_an_unknown_format(rng, tmp_path):
    with pytest.raises(ConfigError) as err:
        save_dataset(make_dataset(rng, 4, 2), tmp_path, fmt="npz")
    assert err.value.code == "bad_format"
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# synthetic datasets


@pytest.mark.parametrize(
    "counts",
    [pytest.param({"d_b": 27}, id="d_b-below-latent"), pytest.param({"n": 2, "c": 3}, id="n-below-c")],
)
def test_synthetic_dataset_refuses_too_few_dims_or_samples(counts):
    with pytest.raises(ConfigError) as err:
        make_synthetic_dataset(**{"n": 30, "c": 3, "d_a": 28, "d_b": 28, **counts})
    assert err.value.code == "bad_dims"
