import io
import json

import numpy as np
import pytest

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
        pytest.param(
            lambda x: PairedMultimodalDataset(x, x, [1, 1, 1], 1, sample_ids=("a", "b")),
            "pair_count_mismatch",
            id="sample-ids-length",
        ),
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


# ---------------------------------------------------------------------------
# file round trips


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_save_load_round_trip(rng, tmp_path, fmt):
    ds = make_dataset(rng, 17, 3)
    save_dataset(ds, tmp_path / "ds", fmt=fmt)
    back = load_dataset(tmp_path / "ds")
    assert back.n == ds.n and back.c == ds.c
    if fmt == "binary":
        assert np.array_equal(back.xa.values, ds.xa.values)
        assert np.array_equal(back.xb.values, ds.xb.values)
    else:
        np.testing.assert_allclose(back.xa.values, ds.xa.values, atol=1e-12)
        np.testing.assert_allclose(back.xb.values, ds.xb.values, atol=1e-12)
    assert np.array_equal(back.labels, ds.labels)


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_sample_ids_round_trip(rng, tmp_path, fmt):
    base = make_dataset(rng, 6, 2)
    ids = ("s0", "s1", "s2", "s3", "s4", "s5")
    ds = PairedMultimodalDataset(base.xa, base.xb, base.labels, base.c, sample_ids=ids)
    save_dataset(ds, tmp_path / "ds", fmt=fmt)
    assert load_dataset(tmp_path / "ds").sample_ids == ids


def test_subset_keeps_sample_ids_in_index_order(rng):
    base = make_dataset(rng, 6, 2)
    ds = PairedMultimodalDataset(base.xa, base.xb, base.labels, base.c, sample_ids=tuple(f"s{i}" for i in range(6)))
    assert subset(ds, [4, 1, 5]).sample_ids == ("s4", "s1", "s5")
    assert subset(base, [4, 1]).sample_ids is None


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
        pytest.param({"sample_ids": ["ids.txt"]}, id="sample-ids-list"),
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


@pytest.mark.parametrize(
    "content, message",
    [
        pytest.param(b"XMS2" + _block(np.ones((2, 3)))[4:], "missing XMS1 magic", id="wrong-magic"),
        pytest.param(_block(np.ones((2, 3)))[:-8], "truncated matrix block", id="truncated"),
        pytest.param(_block(np.ones((2, 3))) + b"\0", "trailing bytes", id="trailing-bytes"),
    ],
)
def test_binary_matrix_file_refuses_bad_bytes(tmp_path, content, message):
    path = tmp_path / "m.bin"
    path.write_bytes(content)
    with pytest.raises(DataError, match=message) as err:
        read_matrix_binary(path)
    assert err.value.code == "malformed_file"


def _set_manifest(directory, **entries):
    manifest = json.loads((directory / "manifest.json").read_text())
    (directory / "manifest.json").write_text(json.dumps({**manifest, **entries}))


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data:UserWarning")
@pytest.mark.parametrize(
    "breakage, code",
    [
        pytest.param(lambda d: (d / "features_a.csv").write_text(""), "malformed_file", id="empty-csv"),
        pytest.param(lambda d: _set_manifest(d, features_b="gone.csv"), "missing_file", id="manifest-file-absent"),
        pytest.param(lambda d: _set_manifest(d, sample_ids="ids.txt"), "missing_file", id="manifest-ids-absent"),
        pytest.param(lambda d: (d / "manifest.json").write_text("{not json"), "malformed_file", id="manifest-not-json"),
        pytest.param(lambda d: (d / "labels.csv").write_text("1,1\n2,2\n1,1\n2,2\n"), "malformed_file", id="labels-2-cols"),
    ],
)
def test_load_refuses_broken_directories(rng, tmp_path, breakage, code):
    save_dataset(make_dataset(rng, 4, 2), tmp_path)
    breakage(tmp_path)
    with pytest.raises(DataError) as err:
        load_dataset(tmp_path)
    assert err.value.code == code


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
