import json
import struct

import numpy as np
import pytest

from xms.dataset_io import FeatureMatrix
from xms.errors import ConfigError, DataError
from xms.methods import SubspaceModel, fit_method, load_model, project, save_model
from xms.preprocess import PcaModel
from tests.conftest import random_paired_dataset, refused_without_allocating


def identity_model(d):
    return SubspaceModel(
        wa=np.eye(d),
        wb=np.eye(d),
        method="cca",
        d=d,
        center_a=np.zeros(d),
        center_b=np.zeros(d),
    )


def test_project_identity_no_preprocessing(rng):
    x = FeatureMatrix(rng.standard_normal((3, 7)))
    out = project(identity_model(3), x, "a")
    np.testing.assert_allclose(out.values, x.values)


def test_project_shape_and_modality_checks(rng):
    model = identity_model(3)
    with pytest.raises(ConfigError):
        project(model, FeatureMatrix(np.zeros((4, 2))), "a")
    with pytest.raises(ConfigError):
        project(model, FeatureMatrix(np.zeros((3, 2))), "c")


def test_round_trip_plain_model(tmp_path, rng):
    model = identity_model(4)
    model.hyperparams["ridge"] = 0.5
    model.metadata["note"] = [1.0, 2.0]
    save_model(model, tmp_path / "m.xms")
    back = load_model(tmp_path / "m.xms")
    assert back.method == "cca" and back.d == 4
    assert np.array_equal(back.wa, model.wa)
    assert back.hyperparams == {"ridge": 0.5}
    assert back.metadata == {"note": [1.0, 2.0]}


def test_round_trip_fitted_model_with_pca(tmp_path, rng):
    ds = random_paired_dataset(rng, n=40, d_a=8, d_b=7, c=3)
    model = fit_method(ds, "gmlda", pca={"mode": "energy", "value": 0.95}, hyperparams={"beta": 2.0})
    save_model(model, tmp_path / "m.xms")
    back = load_model(tmp_path / "m.xms")
    assert np.array_equal(back.wa, model.wa)
    assert np.array_equal(back.pca_a.basis, model.pca_a.basis)
    assert np.array_equal(back.pca_b.mean, model.pca_b.mean)
    assert back.hyperparams == model.hyperparams
    # projections through the loaded model agree bit-for-bit
    np.testing.assert_array_equal(
        project(back, ds.xa, "a").values, project(model, ds.xa, "a").values
    )


def test_round_trip_numpy_scalar_hyperparams(tmp_path, rng):
    # the config checks accept numpy integers and reals, so the header writer must too
    ds = random_paired_dataset(rng, n=40, d_a=8, d_b=7, c=3)
    model = fit_method(ds, "lcfs", hyperparams={"max_iters": np.int64(5), "lambda1": np.float32(0.5)})
    save_model(model, tmp_path / "m.xms")
    back = load_model(tmp_path / "m.xms")
    assert back.hyperparams["max_iters"] == 5 and type(back.hyperparams["max_iters"]) is int
    assert back.hyperparams["lambda1"] == 0.5 and type(back.hyperparams["lambda1"]) is float
    assert back.hyperparams == model.hyperparams
    assert np.array_equal(back.wa, model.wa) and np.array_equal(back.wb, model.wb)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.xms"
    path.write_bytes(b"not a model at all")
    with pytest.raises(DataError) as err:
        load_model(path)
    assert err.value.code == "malformed_file"


def model_file(header) -> bytes:
    payload = json.dumps(header).encode("utf-8")
    return b"XMSM" + struct.pack("<Q", len(payload)) + payload


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"XMSM", id="magic-only"),
        pytest.param(b"XMSM\x05\x00", id="short-length"),
        pytest.param(model_file({"method": "cca", "d": 1}), id="no-blocks"),
        pytest.param(model_file(["method", "cca"]), id="header-list"),
        pytest.param(model_file({"method": "cca", "d": 1, "blocks": []}), id="no-projections"),
        # size fields beyond the end of the file, refused before anything of their size is read
        pytest.param(b"XMSM" + struct.pack("<Q", 2**63) + b"{}", id="header-length-2^63"),
        pytest.param(
            model_file({"method": "cca", "d": 1, "blocks": ["wa"]}) + b"XMS1" + struct.pack("<QQ", 2**62, 4),
            id="block-2^62x4",
        ),
    ],
)
def test_load_rejects_malformed_model_files(tmp_path, content):
    path = tmp_path / "bad.xms"
    path.write_bytes(content)
    assert refused_without_allocating(load_model, path).code == "malformed_file"


def test_load_rejects_header_that_contradicts_its_blocks(tmp_path):
    path = tmp_path / "m.xms"
    save_model(identity_model(2), path)
    content = path.read_bytes()
    path.write_bytes(content.replace(b'"d": 2', b'"d": 3'))
    with pytest.raises(DataError) as err:
        load_model(path)
    assert err.value.code == "malformed_file"


def pca_model(d, k):
    return PcaModel(mean=np.zeros(d), basis=np.eye(d, k), eigenvalues=np.ones(k))


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param({"center_a": np.zeros(2)}, id="center-a-too-short"),
        pytest.param({"center_b": np.zeros(4)}, id="center-b-too-long"),
        pytest.param({"center_a": np.zeros((3, 1))}, id="center-a-not-a-vector"),
        pytest.param({"pca_a": pca_model(6, 4)}, id="pca-a-keeps-more-dims"),
        pytest.param({"pca_b": pca_model(6, 2)}, id="pca-b-keeps-fewer-dims"),
    ],
)
def test_model_refuses_shapes_that_disagree(fields):
    with pytest.raises(ConfigError) as err:
        SubspaceModel(**{**vars(identity_model(3)), **fields})
    assert err.value.code == "dim_mismatch"


@pytest.mark.parametrize(
    "fields, code",
    [
        pytest.param({"method": "lda"}, "bad_method", id="unknown-method"),
        pytest.param({"wa": np.diag([1.0, np.nan, 1.0])}, "non_finite", id="nan-weight"),
        pytest.param({"wb": np.diag([1.0, 1.0, np.inf])}, "non_finite", id="inf-weight"),
    ],
)
def test_model_refuses_unknown_methods_and_non_finite_weights(fields, code):
    with pytest.raises(ConfigError) as err:
        SubspaceModel(**{**vars(identity_model(3)), **fields})
    assert err.value.code == code


def test_objective_trace_accessor(rng):
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    model = fit_method(ds, "lcfs", hyperparams={"lambda1": 0.1, "lambda2": 0.1})
    trace = model.objective_trace
    assert trace is not None and trace.ndim == 1
    assert identity_model(2).objective_trace is None
