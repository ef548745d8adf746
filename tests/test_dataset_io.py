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
    save_dataset,
    stratified_split,
    subset,
    write_matrix_binary,
)
from xms.errors import ConfigError, DataError


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
