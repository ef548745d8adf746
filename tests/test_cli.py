import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import xms
from xms.bench import MethodSpec, compute_ttests, config_from_dict, method_spec_from_dict
from xms.errors import ConfigError
from xms.cli import _load_config_file, build_parser, main
from xms.dataset_io import load_dataset, save_dataset
from xms.methods import load_model, project, save_model
from xms.retrieval_eval import evaluate_direction
from xms.synthetic import make_synthetic_dataset


@pytest.fixture
def dataset_dir(tmp_path):
    ds = make_synthetic_dataset(n=50, c=3, d_a=10, d_b=8, seed=2, class_dim=3, instance_dim=4)
    path = tmp_path / "data"
    save_dataset(ds, path)
    return path


def test_fit_then_eval(tmp_path, dataset_dir, capsys):
    model_path = tmp_path / "model.xms"
    assert main([
        "fit", "--dataset", str(dataset_dir), "--method", "gmlda",
        "--out", str(model_path), "--pca", '{"mode": "energy", "value": 0.95}', "--hyperparams", '{"beta": 2.0}',
    ]) == 0
    assert model_path.exists()

    out_path = tmp_path / "eval.json"
    assert main([
        "eval", "--model", str(model_path), "--dataset", str(dataset_dir),
        "--direction", "a2b", "--out", str(out_path),
    ]) == 0
    payload = json.loads(out_path.read_text())
    assert set(payload) == {"direction", "model", "dataset", "map", "per_query_ap", "cmc"}
    assert 0.0 <= payload["map"] <= 1.0
    assert payload["map"] == np.mean(payload["per_query_ap"])
    assert len(payload["per_query_ap"]) == 50
    assert len(payload["cmc"]) == 50
    assert payload["cmc"][-1] == 1.0


def test_eval_directions_equal_evaluate_direction_of_the_projections(tmp_path, dataset_dir):
    model_path = tmp_path / "model.xms"
    assert main(["fit", "--dataset", str(dataset_dir), "--method", "cca", "--out", str(model_path)]) == 0
    model, data = load_model(model_path), load_dataset(dataset_dir)
    proj_a, proj_b = project(model, data.xa, "a"), project(model, data.xb, "b")
    payloads = {}
    for direction, (queries, gallery) in (("a2b", (proj_a, proj_b)), ("b2a", (proj_b, proj_a))):
        out_path = tmp_path / f"{direction}.json"
        argv = ["eval", "--model", str(model_path), "--dataset", str(dataset_dir), "--direction", direction]
        assert main(argv + ["--out", str(out_path)]) == 0
        payloads[direction] = json.loads(out_path.read_text())
        expected = evaluate_direction(queries, gallery, data.labels)
        assert payloads[direction]["map"] == expected["map"]
        assert payloads[direction]["per_query_ap"] == expected["per_query_ap"].tolist()
        assert payloads[direction]["cmc"] == expected["cmc"].tolist()
    assert payloads["a2b"]["per_query_ap"] != payloads["b2a"]["per_query_ap"]  # the directions differ here


def test_eval_model_whose_center_disagrees_with_its_pca_exit_3(tmp_path, dataset_dir, capsys):
    model_path = tmp_path / "model.xms"
    assert main(["fit", "--dataset", str(dataset_dir), "--method", "cca", "--pca", '{"mode": "dim", "value": 4}',
                 "--out", str(model_path)]) == 0
    model = load_model(model_path)
    object.__setattr__(model, "center_a", np.zeros(7))  # a length-7 center behind a 4-dim PCA
    save_model(model, model_path)
    out_path = tmp_path / "eval.json"
    argv = ["eval", "--model", str(model_path), "--dataset", str(dataset_dir), "--direction", "a2b", "--out", str(out_path)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error [malformed_file]")
    assert not out_path.exists()


def test_fit_no_pca_and_fixed_dim(tmp_path, dataset_dir):
    model_path = tmp_path / "m.xms"
    assert main([
        "fit", "--dataset", str(dataset_dir), "--method", "cca",
        "--out", str(model_path), "--pca", "{}", "--dim", "3",
    ]) == 0


@pytest.mark.parametrize(
    "argv, pca",
    [
        pytest.param(["--pca", "{}"], None, id="empty"),
        pytest.param(["--pca", "null"], None, id="null"),
        pytest.param(["--pca", '{"mode": "dim", "value": 4}'], {"mode": "dim", "value": 4}, id="dim"),
        pytest.param([], {"mode": "energy", "value": 0.98}, id="default"),
    ],
)
def test_fit_pca_spec_matches_fit_method(tmp_path, dataset_dir, argv, pca):
    model_path = tmp_path / "m.xms"
    assert main(["fit", "--dataset", str(dataset_dir), "--method", "cca", "--out", str(model_path), *argv]) == 0
    saved = xms.load_model(model_path)
    dataset = xms.load_dataset(dataset_dir)
    fitted = xms.fit_method(dataset, "cca", pca=pca)
    for name in ("wa", "wb", "center_a", "center_b"):
        assert np.array_equal(getattr(saved, name), getattr(fitted, name)), name
    assert (saved.pca_a is None) == (pca is None)
    for view in ("a", "b"):
        features = getattr(dataset, f"x{view}")
        assert np.array_equal(xms.project(saved, features, view).values, xms.project(fitted, features, view).values)


@pytest.mark.parametrize(
    "text, code",
    [
        pytest.param('{"mode": "dim", "value": 2.5}', "bad_pca", id="dim-float"),
        pytest.param('{"mode": "energy", "value": 1.5}', "bad_pca", id="energy-above-one"),
        pytest.param('{"mode": "energy"}', "bad_pca", id="no-value"),
        pytest.param("0.98", "bad_pca", id="number"),
        pytest.param('{"mode": "energy", "value": 0.9, "whiten": true}', "bad_pca", id="unknown-key"),
        pytest.param("{mode: dim}", "bad_config", id="not-json"),
    ],
)
def test_fit_bad_pca_exit_2(tmp_path, dataset_dir, capsys, text, code):
    model_path = tmp_path / "m.xms"
    argv = ["fit", "--dataset", str(dataset_dir), "--method", "cca", "--out", str(model_path), "--pca", text]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error [{code}]")
    assert not model_path.exists()


def test_fit_hyperparams_reach_the_model(tmp_path, dataset_dir):
    # keys that had no flag of their own, such as JFSSL's graph_k
    model_path = tmp_path / "m.xms"
    argv = ["fit", "--dataset", str(dataset_dir), "--method", "jfssl", "--out", str(model_path), "--pca", "null"]
    assert main(argv + ["--hyperparams", '{"graph_k": 3, "max_iters": 7}']) == 0
    hyperparams = xms.load_model(model_path).hyperparams
    assert hyperparams["graph_k"] == 3 and hyperparams["max_iters"] == 7


@pytest.mark.parametrize(
    "text, code",
    [
        pytest.param("[1, 2]", "bad_config", id="list"),
        pytest.param("4.0", "bad_config", id="number"),
        pytest.param("{beta: 4}", "bad_config", id="not-json"),
        pytest.param('{"beta": 4.0, "graph_k": 3}', "bad_hyperparam", id="unknown-key"),
        pytest.param('{"beta": NaN}', "bad_hyperparam", id="nan"),
    ],
)
def test_fit_bad_hyperparams_exit_2(tmp_path, dataset_dir, capsys, text, code):
    model_path = tmp_path / "m.xms"
    argv = ["fit", "--dataset", str(dataset_dir), "--method", "gmlda", "--out", str(model_path), "--hyperparams", text]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error [{code}]")
    assert not model_path.exists()


def entrance_codes(tmp_path, dataset_dir, capsys, request_fields, cli=True) -> dict:
    """The error code of one fit request at MethodSpec, a config file's method entry, fit_method and,
    with ``cli``, xms fit."""
    request = {"dim": None, "pca": None, "hyperparams": {}, **request_fields}
    entrances = {
        "MethodSpec": lambda: MethodSpec(label="x", **request),
        "method entry": lambda: method_spec_from_dict(request),
        "fit_method": lambda: xms.fit_method(xms.load_dataset(dataset_dir), request["name"], request["dim"],
                                             request["pca"], request["hyperparams"]),
    }
    codes = {}
    for entrance, call in entrances.items():
        with pytest.raises(ConfigError) as err:
            call()
        codes[entrance] = err.value.code
    if cli:
        argv = ["fit", "--dataset", str(dataset_dir), "--method", request["name"], "--out", str(tmp_path / "m.xms"),
                "--pca", json.dumps(request["pca"]), "--hyperparams", json.dumps(request["hyperparams"])]
        assert main(argv + (["--dim", str(request["dim"])] if request["dim"] is not None else [])) == 2
        codes["xms fit"] = re.match(r"error \[(\w+)\]", capsys.readouterr().err).group(1)
        assert not (tmp_path / "m.xms").exists()
    return codes


@pytest.mark.parametrize(
    "request_fields, code",
    [
        pytest.param({"name": "lcfs", "dim": 2, "hyperparams": {"lamda1": 0.1}}, "bad_hyperparam", id="lcfs-dim-key"),
        pytest.param({"name": "cca", "pca": {"mode": "x"}, "hyperparams": {"zz": 1}}, "bad_pca", id="cca-pca-key"),
        pytest.param({"name": "jfssl", "dim": 2, "pca": {"mode": "dim", "value": 0}}, "bad_pca", id="jfssl-dim-pca"),
    ],
)
def test_two_fault_request_gets_one_code_at_every_entrance(tmp_path, dataset_dir, capsys, request_fields, code):
    # MethodSpec, a config file's method entry, fit_method and xms fit all check a request in one order
    codes = entrance_codes(tmp_path, dataset_dir, capsys, request_fields)
    assert codes == dict.fromkeys(codes, code)


@pytest.mark.parametrize(
    "request_fields, cli",
    [
        # xms fit's --dim is parsed as an integer and --method is text, so only the hyperparameters reach it
        pytest.param({"name": "cca", "dim": "3"}, False, id="dim-str"),
        pytest.param({"name": "cca", "dim": 2.0}, False, id="dim-float"),
        pytest.param({"name": "cca", "dim": True}, False, id="dim-bool"),
        pytest.param({"name": 3}, False, id="name-int"),
        pytest.param({"name": "gmlda", "hyperparams": []}, True, id="hyperparams-list"),
        pytest.param({"name": "gmlda", "hyperparams": 0}, True, id="hyperparams-zero"),
        pytest.param({"name": "gmlda", "hyperparams": 4.0}, True, id="hyperparams-number"),
    ],
)
def test_mistyped_request_is_a_config_error_at_every_entrance(tmp_path, dataset_dir, capsys, request_fields, cli):
    # check_request checks the types first, so every entrance refuses them alike, and none fits a model
    codes = entrance_codes(tmp_path, dataset_dir, capsys, request_fields, cli)
    assert codes == dict.fromkeys(codes, "bad_config")


def test_method_entry_errors_start_with_a_label_that_differs_from_the_name():
    # the label, not the method name, leads every error of the request, the config class's own included
    spec = {"name": "cca", "pca": {"mode": "energy", "value": 0.98}, "hyperparams": {"ridge": -1}}
    for make in (lambda: MethodSpec(label="pca+cca", **spec), lambda: method_spec_from_dict(spec)):
        with pytest.raises(ConfigError) as err:
            make()
        assert err.value.code == "bad_hyperparam"
        assert str(err.value).startswith("pca+cca: ridge must be finite")


def test_missing_dataset_exit_3(tmp_path, capsys):
    code = main([
        "fit", "--dataset", str(tmp_path / "nope"), "--method", "cca",
        "--out", str(tmp_path / "m.xms"),
    ])
    assert code == 3


def test_numerical_failure_exit_4(tmp_path, capsys):
    # constant modality b: zero cross-covariance structure for PLS
    from xms.dataset_io import FeatureMatrix, PairedMultimodalDataset

    rng = np.random.default_rng(0)
    xa = rng.standard_normal((4, 20))
    xb = np.ones((3, 20))
    ds = PairedMultimodalDataset(FeatureMatrix(xa), FeatureMatrix(xb), np.ones(20, dtype=int), 1)
    path = tmp_path / "flat"
    save_dataset(ds, path)
    code = main([
        "fit", "--dataset", str(path), "--method", "pls",
        "--out", str(tmp_path / "m.xms"), "--pca", "{}", "--dim", "1",
    ])
    assert code == 4
    assert "no_covariance" in capsys.readouterr().err


def test_bench_sweep_ttest_pipeline(tmp_path, dataset_dir):
    config = {
        "dataset": str(dataset_dir),
        "n_train": 35,
        "repetitions": 2,
        "methods": [
            {"name": "cca", "dim": 2},
            {"name": "lcfs", "hyperparams": {"lambda1": 0.01, "lambda2": 0.01}},
        ],
    }
    config_path = tmp_path / "bench.yaml"
    config_path.write_text(yaml.safe_dump(config))

    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    assert main([
        "bench", "--config", str(config_path), "--out", str(report_path), "--csv", str(csv_path),
    ]) == 0
    report = json.loads(report_path.read_text())
    assert set(report["methods"]) == {"cca", "lcfs"}
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header[0] == "method" and "a2b_mean" in header and "b2a_std" in header

    ttest_path = tmp_path / "ttests.json"
    assert main([
        "ttest", "--report", str(report_path), "--baseline", "lcfs", "--out", str(ttest_path),
    ]) == 0
    ttests = json.loads(ttest_path.read_text())["ttests"]
    assert {r["direction"] for r in ttests} == {"a2b", "b2a", "average"}

    sweep_path = tmp_path / "surface.json"
    assert main([
        "sweep", "--config", str(config_path), "--method", "jfssl",
        "--grid", "0,0.1", "--out", str(sweep_path),
    ]) == 0
    surface = json.loads(sweep_path.read_text())
    assert len(surface["directions"]["a2b"]) == 2
    assert len(surface["directions"]["a2b"][0]) == 2


def test_bench_json_config(tmp_path, dataset_dir):
    config = {"dataset": str(dataset_dir), "n_train": 35, "repetitions": 1,
              "methods": [{"name": "blm", "dim": 2}]}
    config_path = tmp_path / "bench.json"
    config_path.write_text(json.dumps(config))
    assert main(["bench", "--config", str(config_path), "--out", str(tmp_path / "r.json")]) == 0


def test_bench_bad_config_exit_2(tmp_path, capsys):
    config_path = tmp_path / "bad.yaml"
    bad_configs = (
        {"dataset": "x"},
        {"dataset": "x", "n_train": "ten"},
        {"dataset": "x", "n_train": 3, "methods": [{"name": "cca", "dim": "3"}]},
        {"dataset": "x", "n_train": 3, "methods": []},
        {"dataset": {"synthetic": {"n": 60, "bogus": 1}}, "n_train": 30, "methods": [{"name": "cca"}]},
        {"dataset": {"synthetic": [1]}, "n_train": 30, "methods": [{"name": "cca"}]},
        {"dataset": {"synthetic": {"n": 60}, "seed": 5}, "n_train": 30, "methods": [{"name": "cca"}]},
        {"dataset": {"synthtic": {"n": 60}}, "n_train": 30, "methods": [{"name": "cca"}]},
        *(
            {"dataset": {"synthetic": synthetic}, "n_train": 30, "methods": [{"name": "cca"}]}
            for synthetic in ({"n": "60"}, {"n": 60.5}, {"n": 60, "seed": -1}, {"noise_sd": "x"}, {"c": True})
        ),
    )
    for text in [yaml.safe_dump(bad) for bad in bad_configs] + [""]:
        config_path.write_text(text)
        assert main(["bench", "--config", str(config_path), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("error [bad_config]")


HAND_WRITTEN_CONFIG = """\
dataset: {dataset}
n_train: 35
repetitions: 2
methods:
  - {{name: cca, dim: 2, hyperparams: {{ridge: 1e-4}}}}
  - name: lcfs
    hyperparams:
      lambda1: {lambda1}
      lambda2: 1E-3
"""


def test_yaml_config_reads_exponent_floats(tmp_path, dataset_dir):
    # YAML 1.1, which PyYAML follows, reads 1e-3 (no dot) as text; config files read it as a number
    config_path = tmp_path / "bench.yaml"
    config_path.write_text(HAND_WRITTEN_CONFIG.format(dataset=dataset_dir, lambda1="1e-3"))
    assert yaml.safe_load(config_path.read_text())["methods"][0]["hyperparams"] == {"ridge": "1e-4"}
    report_path = tmp_path / "report.json"
    assert main(["bench", "--config", str(config_path), "--out", str(report_path)]) == 0
    methods = json.loads(report_path.read_text())["config"]["methods"]
    assert [spec["hyperparams"] for spec in methods] == [{"ridge": 1e-4}, {"lambda1": 1e-3, "lambda2": 1e-3}]
    sweep_path = tmp_path / "surface.json"
    argv = ["sweep", "--config", str(config_path), "--method", "lcfs", "--grid", "0,1e-3", "--out", str(sweep_path)]
    assert main(argv) == 0
    assert json.loads(sweep_path.read_text())["lambda1_grid"] == [0.0, 1e-3]


def test_yaml_config_keeps_quoted_exponents_as_text(tmp_path, dataset_dir, capsys):
    config_path = tmp_path / "bench.yaml"
    config_path.write_text(HAND_WRITTEN_CONFIG.format(dataset=dataset_dir, lambda1="'1e-3'"))
    assert _load_config_file(config_path)["methods"][1]["hyperparams"]["lambda1"] == "1e-3"
    assert main(["bench", "--config", str(config_path), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error [bad_hyperparam]")


def test_bench_dim_on_label_space_method_exit_2(tmp_path, dataset_dir, capsys):
    config_path = tmp_path / "bench.yaml"
    methods = [{"name": "cca", "dim": 2}, {"name": "jfssl", "dim": 2}]
    config_path.write_text(yaml.safe_dump({"dataset": str(dataset_dir), "n_train": 35, "methods": methods}))
    out_path = tmp_path / "r.json"
    assert main(["bench", "--config", str(config_path), "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith("error [bad_dim]: jfssl")
    assert not out_path.exists()


def test_sweep_bad_grid_exit_2(tmp_path, dataset_dir, capsys):
    config_path = tmp_path / "sweep.yaml"
    config_path.write_text(yaml.safe_dump({"dataset": str(dataset_dir), "n_train": 35, "methods": [{"name": "jfssl"}]}))
    argv = ["sweep", "--config", str(config_path), "--method", "jfssl", "--out", str(tmp_path / "s.json")]
    for grid in ("0,x", ","):
        assert main(argv + ["--grid", grid]) == 2
        assert capsys.readouterr().err.startswith("error [bad_config]")


@pytest.mark.parametrize(
    "command, hyperparams",
    [
        pytest.param(["bench"], {"lamda1": 0.1}, id="bench"),
        pytest.param(["sweep", "--method", "jfssl", "--grid", "0,0.1"], {"graph_K": 3}, id="sweep"),
    ],
)
def test_bad_hyperparams_exit_2(tmp_path, dataset_dir, capsys, command, hyperparams):
    config_path = tmp_path / "config.yaml"
    methods = [{"name": "jfssl", "hyperparams": hyperparams}]
    config_path.write_text(yaml.safe_dump({"dataset": str(dataset_dir), "n_train": 35, "methods": methods}))
    out_path = tmp_path / "out.json"
    assert main([command[0], "--config", str(config_path), "--out", str(out_path), *command[1:]]) == 2
    assert capsys.readouterr().err.startswith("error [bad_hyperparam]")
    assert not out_path.exists()


def test_bench_baseline_writes_the_ttests_of_its_report(tmp_path, dataset_dir):
    methods = [{"name": "cca", "dim": 2}, {"name": "pls", "dim": 2}]
    config_path = tmp_path / "bench.yaml"
    config_path.write_text(yaml.safe_dump({"dataset": str(dataset_dir), "n_train": 35, "repetitions": 3, "methods": methods}))
    report_path = tmp_path / "r.json"
    assert main(["bench", "--config", str(config_path), "--out", str(report_path), "--baseline", "pls"]) == 0
    report = json.loads(report_path.read_text())
    assert len(report["ttests"]) == 3
    assert report["ttests"] == compute_ttests(report, "pls")


@pytest.mark.parametrize(
    "name, text",
    [
        pytest.param(None, None, id="absent"),
        pytest.param("bench.yaml", "dataset: [x\n", id="yaml-malformed"),
        pytest.param("bench.json", '{"dataset": ', id="json-malformed"),
    ],
)
def test_bench_unreadable_config_file_exit_2(tmp_path, capsys, name, text):
    config_path = tmp_path / (name or "absent.yaml")
    if text is not None:
        config_path.write_text(text)
    out_path = tmp_path / "r.json"
    assert main(["bench", "--config", str(config_path), "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error [bad_config]: {config_path}")
    assert not out_path.exists()


def test_ttest_missing_report_exit_2(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    assert main(["ttest", "--report", str(tmp_path / "absent.json"), "--baseline", "cca", "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith("error [bad_config]")
    assert not out_path.exists()


def test_bench_unknown_baseline_exit_2_before_fitting(tmp_path, dataset_dir, capsys, monkeypatch):
    def run_benchmark(config):
        raise AssertionError("the benchmark ran")

    monkeypatch.setattr("xms.bench.run_benchmark", run_benchmark)
    config_path = tmp_path / "bench.yaml"
    config_path.write_text(yaml.safe_dump({"dataset": str(dataset_dir), "n_train": 35, "methods": [{"name": "cca"}]}))
    out_path = tmp_path / "r.json"
    argv = ["bench", "--config", str(config_path), "--out", str(out_path), "--baseline", "nosuch"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error [bad_config]: baseline 'nosuch'")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("{not json", id="not-json"),
        pytest.param("[1, 2]", id="list"),
        pytest.param('"report"', id="string"),
        pytest.param("{}", id="no-methods"),
        pytest.param('{"methods": ["cca"]}', id="methods-list"),
        pytest.param('{"methods": {"cca": {}}}', id="no-directions"),
        pytest.param('{"methods": {"cca": {"directions": {"a2b": {}, "b2a": {}}}}}', id="no-map-runs"),
        pytest.param('{"methods": {"cca": {"directions": {"a2b": {"map_runs": 0.5}}}}}', id="map-runs-number"),
        pytest.param('{"methods": {"cca": {"directions": {"a2b": {"map_runs": ["x"]}}}}}', id="map-runs-str"),
        pytest.param(
            '{"methods": {"cca": {"directions": {"a2b": {"map_runs": [0.1, 0.2, 0.3]}, "b2a": {"map_runs": [0.1, 0.2]}}},'
            ' "pls": {"directions": {"a2b": {"map_runs": [0.4, 0.5, 0.6]}, "b2a": {"map_runs": [0.4, 0.5, 0.6]}}}}}',
            id="map-runs-uneven-directions",
        ),
        pytest.param(
            '{"methods": {"cca": {"directions": {"a2b": {"map_runs": [0.1, NaN]}, "b2a": {"map_runs": [0.1, 0.2]}}},'
            ' "pls": {"directions": {"a2b": {"map_runs": [0.4, 0.5]}, "b2a": {"map_runs": [0.4, 0.5]}}}}}',
            id="map-runs-nan",
        ),
        pytest.param(
            '{"methods": {"cca": {"directions": {"a2b": {"map_runs": [0.1, 0.2]}, "b2a": {"map_runs": [0.1, 0.2]}}},'
            ' "pls": {"directions": {"a2b": {"map_runs": [0.4, 0.5]}, "b2a": {"map_runs": [-Infinity, 0.5]}}}}}',
            id="map-runs-infinity",
        ),
    ],
)
def test_ttest_malformed_report_exit_3(tmp_path, capsys, text):
    report_path = tmp_path / "report.json"
    report_path.write_text(text)
    out_path = tmp_path / "ttests.json"
    assert main(["ttest", "--report", str(report_path), "--baseline", "cca", "--out", str(out_path)]) == 3
    assert capsys.readouterr().err.startswith("error [malformed_file]")
    assert not out_path.exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of the import time; p-values come from scipy.special.stdtr, which is
    # loaded only by the first t-test
    src = str(Path(xms.__file__).resolve().parents[1])
    code = "import sys, xms.cli; assert 'scipy.stats' not in sys.modules and 'scipy.special' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def fenced_blocks(text: str, language: str) -> list[str]:
    """The bodies of a markdown text's fenced blocks opened with ```language."""
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_commands_and_config_parse():
    # a flag removed from the CLI, or a key removed from the config schema, cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [line for block in fenced_blocks(readme, "bash") for line in block.splitlines() if line.startswith("xms ")]
    assert len(commands) >= 6
    parser = build_parser()
    for line in commands:
        assert callable(parser.parse_args(shlex.split(line)[1:]).func), line
    (config,) = fenced_blocks(readme, "yaml")
    assert [spec.name for spec in config_from_dict(yaml.safe_load(config)).methods] == ["cca", "gmlda", "lcfs"]
