import csv
import json

import numpy as np
import pytest

from cempca.cli import main
from cempca.data import load_csv, standardize


def run(argv):
    return main([str(a) for a in argv])


def test_generate_line_count(tmp_path):
    out = tmp_path / "atom.csv"
    assert run(["generate", "--shape", "atom", "--n", 120, "--seed", 7,
                "--out", out]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 121  # header + rows


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["generate", "--shape", "tetra", "--n", 80, "--seed", 3, "--out", a])
    run(["generate", "--shape", "tetra", "--n", 80, "--seed", 3, "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_generate_chang_column_count(tmp_path):
    out = tmp_path / "chang.csv"
    run(["generate", "--shape", "chang", "--n", 50, "--seed", 1, "--out", out])
    header = out.read_text().split("\n")[0].split(",")
    assert len(header) == 16 and header[-1] == "label"


def test_generate_default_sizes(tmp_path):
    out = tmp_path / "hepta.csv"
    run(["generate", "--shape", "hepta", "--seed", 1, "--out", out])
    assert len(out.read_text().strip().split("\n")) == 213


def test_fit_kmeans_single_cluster_wcss(tmp_path):
    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 60, "--seed", 2, "--out", data])
    out = tmp_path / "fit.json"
    assert run(["fit", "kmeans", data, "--g", 1, "--restarts", 2,
                "--seed", 0, "--out", out]) == 0
    payload = json.loads(out.read_text())
    ds = load_csv(data, label_column="label")
    Xs = standardize(ds.X)
    total = float(((Xs - Xs.mean(axis=0)) ** 2).sum())
    assert np.isclose(payload["objective_final"], total, atol=1e-8)
    assert payload["metrics"]["acc"] > 0


def test_fit_deterministic_json(tmp_path):
    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 80, "--seed", 2, "--out", data])
    outs = []
    for name in ("f1.json", "f2.json"):
        out = tmp_path / name
        assert run(["fit", "cem", data, "--g", 4, "--restarts", 3,
                    "--seed", 11, "--out", out]) == 0
        payload = json.loads(out.read_text())
        payload.pop("wall_time")
        outs.append(payload)
    assert outs[0] == outs[1]


def test_fit_cempca_atom_small(tmp_path):
    data = tmp_path / "atom.csv"
    run(["generate", "--shape", "atom", "--n", 300, "--seed", 5, "--out", data])
    out = tmp_path / "fit.json"
    emb = tmp_path / "emb.csv"
    code = run(["fit", "cempca", data, "--g", 2, "--p", 3, "--delta", "1e-6",
                "--neighbors", 15, "--smooth", 2, "--restarts", 6, "--seed", 1,
                "--out", out, "--emit-embedding", emb])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["metrics"]["nmi"] >= 0.9
    assert len(payload["assignments"]) == 300
    header = emb.read_text().split("\n")[0].split(",")
    assert header == ["b0", "b1", "b2", "m0", "m1", "m2"]


def test_fit_label_column_autodetect_absent(tmp_path):
    data = tmp_path / "plain.csv"
    data.write_text("x0,x1\n" + "\n".join(f"{i},{i % 3}" for i in range(20)) + "\n")
    out = tmp_path / "fit.json"
    assert run(["fit", "kmeans", data, "--g", 2, "--restarts", 2,
                "--seed", 0, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["metrics"] == {}


def test_fit_embedding_flag_rejected_for_plain_mixture(tmp_path):
    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 60, "--seed", 2, "--out", data])
    code = run(["fit", "kmeans", data, "--g", 2, "--seed", 0,
                "--emit-embedding", tmp_path / "e.csv"])
    assert code == 2


def test_fit_missing_file_exit_code(tmp_path):
    assert run(["fit", "kmeans", tmp_path / "absent.csv", "--g", 2]) == 3


def test_evaluate_perfect_and_known(tmp_path):
    truth = tmp_path / "truth.csv"
    truth.write_text("label\n0\n0\n1\n1\n")
    pred = tmp_path / "pred.csv"
    pred.write_text("label\n0\n1\n0\n1\n")
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(["evaluate", truth, truth]) == 0
    scores = json.loads(buf.getvalue())
    assert scores == {"acc": 1.0, "ari": 1.0, "nmi": 1.0}

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(["evaluate", pred, truth]) == 0
    scores = json.loads(buf.getvalue())
    assert scores["acc"] == 0.5 and abs(scores["nmi"]) <= 1e-12


def test_evaluate_relabeled_copy(tmp_path):
    truth = tmp_path / "truth.csv"
    truth.write_text("label\n0\n0\n1\n2\n1\n")
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("label\n2\n2\n0\n1\n0\n")
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        run(["evaluate", shuffled, truth])
    assert json.loads(buf.getvalue())["acc"] == 1.0


def test_evaluate_against_fit_json(tmp_path):
    data = tmp_path / "d.csv"
    run(["generate", "--shape", "hepta", "--n", 140, "--seed", 4, "--out", data])
    out = tmp_path / "fit.json"
    run(["fit", "kmeans", data, "--g", 7, "--restarts", 5, "--seed", 1,
         "--out", out])
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(["evaluate", out, data]) == 0
    payload = json.loads(out.read_text())
    scores = json.loads(buf.getvalue())
    assert np.isclose(scores["acc"], payload["metrics"]["acc"], atol=1e-12)


def test_benchmark_empty_suite(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"datasets": [], "methods": []}))
    out_dir = tmp_path / "results"
    assert run(["benchmark", suite, out_dir]) == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "results.txt").exists()


def test_benchmark_single_cell_consistency(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "seed": 5,
        "datasets": [{"name": "tetra", "shape": "tetra", "n": 100, "seed": 2}],
        "methods": [{"name": "kmeans", "method": "kmeans",
                     "params": {"restarts": 3}}],
    }))
    out_dir = tmp_path / "results"
    assert run(["benchmark", suite, out_dir]) == 0
    rows = (out_dir / "results.csv").read_text().strip().split("\n")
    assert len(rows) == 2
    header = rows[0].split(",")
    cell = dict(zip(header, rows[1].split(",")))
    assert cell["status"] == "ok"

    # replaying the recorded seed through the library reproduces the metrics
    from cempca.cli import run_method
    from cempca.data import gen_fcps
    ds = gen_fcps("tetra", 100, seed=2)
    ds.name = "tetra"
    record, _ = run_method("kmeans", ds, {"g": 4, "restarts": 3},
                           int(cell["seed"]))
    assert np.isclose(record.metrics["nmi"], float(cell["nmi"]), atol=1e-12)
    assert np.isclose(record.metrics["acc"], float(cell["acc"]), atol=1e-12)

    table = (out_dir / "results.txt").read_text()
    assert "kmeans" in table and "tetra" in table


def test_benchmark_cell_seeds_are_counter_based(tmp_path):
    # cell (dataset i, method j) is seeded by
    # SeedSequence(entropy=suite seed, spawn_key=(i, j)).generate_state(1)[0]
    path = _suite_path(tmp_path, {
        "seed": 7,
        "datasets": [{"name": "a", "shape": "tetra", "n": 60, "seed": 1},
                     {"name": "b", "shape": "tetra", "n": 60, "seed": 2}],
        "methods": [{"name": "km", "method": "kmeans", "params": {"restarts": 1}},
                    {"name": "cem", "method": "cem", "params": {"restarts": 1}}]})
    assert run(["benchmark", path, tmp_path / "results"]) == 0
    with open(tmp_path / "results" / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["dataset"], r["method"], int(r["seed"])) for r in rows] == [
        ("a", "km", 393969088), ("a", "cem", 1834709978),
        ("b", "km", 75971499), ("b", "cem", 3983357107)]


def test_benchmark_csv_and_table_agree(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "seed": 1,
        "datasets": [{"name": "hepta", "shape": "hepta", "n": 140, "seed": 3}],
        "methods": [{"name": "kmeans", "method": "kmeans",
                     "params": {"restarts": 4}},
                    {"name": "cem", "method": "cem",
                     "params": {"restarts": 4}}],
    }))
    out_dir = tmp_path / "results"
    run(["benchmark", suite, out_dir])
    rows = (out_dir / "results.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    table = (out_dir / "results.txt").read_text()
    for row in rows[1:]:
        cell = dict(zip(header, row.split(",")))
        triple = (f"{float(cell['nmi']):.2f}/{float(cell['ari']):.2f}/"
                  f"{float(cell['acc']):.2f}")
        assert triple in table
    assert "median iterations" in table


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run(["fit", "kmeans", "x.csv", "--g", 2, "--bogus-flag"])
    assert err.value.code == 2


def test_fit_max_iter_default_follows_library(tmp_path, monkeypatch):
    from cempca import cli
    from cempca.cempca import CempcaConfig

    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 60, "--seed", 2, "--out", data])
    seen = []
    real = cli.fit_cempca
    monkeypatch.setattr(cli, "fit_cempca",
                        lambda X, cfg, seed: seen.append(cfg.max_iter) or real(X, cfg, seed=seed))
    caps = {}
    for method, extra in (("cempca", ["--smooth", 0]), ("cem", [])):
        out = tmp_path / f"{method}.json"
        assert run(["fit", method, data, "--g", 4, "--restarts", 1, *extra,
                    "--out", out]) == 0
        caps[method] = json.loads(out.read_text())["config"]["max_iter"]
    assert seen == [CempcaConfig.max_iter] == [caps["cempca"]] == [40]
    assert caps["cem"] == 100


def _read_results(out_dir):
    import csv

    with open(out_dir / "results.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, {row["method"]: row for row in reader}


def test_benchmark_suite_accepts_diag_spelling(tmp_path):
    from cempca.cli import run_method
    from cempca.data import gen_fcps

    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "seed": 3,
        "datasets": [{"name": "tetra", "shape": "tetra", "n": 100, "seed": 2}],
        "methods": [{"name": "cem-diag", "method": "cem",
                     "params": {"restarts": 2, "cov": "diag"}}],
    }))
    out_dir = tmp_path / "results"
    assert run(["benchmark", suite, out_dir]) == 0
    _, rows = _read_results(out_dir)
    cell = rows["cem-diag"]
    assert cell["status"] == "ok"
    ds = gen_fcps("tetra", 100, seed=2)
    record, _ = run_method("cem", ds, {"g": 4, "restarts": 2, "cov": "diagonal"},
                           int(cell["seed"]))
    assert float(cell["nmi"]) == record.metrics["nmi"]


def test_benchmark_failed_cell_records_error(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "seed": 1,
        "datasets": [{"name": "tetra", "shape": "tetra", "n": 100, "seed": 2}],
        "methods": [{"name": "kmeans", "method": "kmeans", "params": {"restarts": 2}},
                    {"name": "too-wide", "method": "kmeans-pca",
                     "params": {"restarts": 2, "p": 50}}],
    }))
    out_dir = tmp_path / "results"
    assert run(["benchmark", suite, out_dir]) == 0
    header, rows = _read_results(out_dir)
    assert header[-1] == "error"
    assert rows["kmeans"]["status"] == "ok" and rows["kmeans"]["error"] == ""
    failed = rows["too-wide"]
    assert failed["status"] == "failed"
    assert failed["error"] == "p must be in [1, 3], got 50"


def test_fit_cempca_defaults_come_from_config(tmp_path, monkeypatch):
    from cempca import cli
    from cempca.cempca import CempcaConfig

    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 60, "--seed", 2, "--out", data])
    seen = []

    class Stop(Exception):
        pass

    def capture(X, cfg, seed):
        seen.append(cfg)
        raise Stop

    monkeypatch.setattr(cli, "fit_cempca", capture)
    with pytest.raises(Stop):
        run(["fit", "cempca", data, "--g", 4])
    assert seen == [CempcaConfig(g=4)]


def test_benchmark_csv_counts_failed_restarts(tmp_path, monkeypatch):
    from cempca import cempca as core
    from cempca.errors import DegenerateUpdateError

    real = core.update_B
    calls = []

    def update_B(X, Q, M, delta):
        calls.append(1)
        if len(calls) == 1:
            raise DegenerateUpdateError("X Q + delta M is rank-deficient")
        return real(X, Q, M, delta)

    monkeypatch.setattr(core, "update_B", update_B)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "seed": 1,
        "datasets": [{"name": "tetra", "shape": "tetra", "n": 100, "seed": 2}],
        "methods": [{"name": "cempca", "method": "cempca",
                     "params": {"restarts": 3, "smooth": 0}},
                    {"name": "kmeans", "method": "kmeans", "params": {"restarts": 2}},
                    {"name": "too-wide", "method": "kmeans-pca",
                     "params": {"restarts": 2, "p": 50}}],
    }))
    out_dir = tmp_path / "results"
    assert run(["benchmark", suite, out_dir]) == 0
    header, rows = _read_results(out_dir)
    assert header[-2:] == ["failed_restarts", "error"]
    assert rows["cempca"]["status"] == "ok"
    assert rows["cempca"]["failed_restarts"] == "1"
    assert rows["kmeans"]["failed_restarts"] == "0"
    assert rows["too-wide"]["failed_restarts"] == ""


def _write_unlabeled(path, n=40):
    path.write_text("x0,x1\n" + "".join(f"{(i * 7) % 11 + 0.1 * i},{i % 3}\n"
                                        for i in range(n)))


def test_benchmark_unlabeled_csv_runs_with_g(tmp_path):
    data = tmp_path / "plain.csv"
    _write_unlabeled(data)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "seed": 1,
        "datasets": [{"name": "plain", "path": str(data), "g": 2}],
        "methods": [{"name": "kmeans", "method": "kmeans", "params": {"restarts": 2}}],
    }))
    out_dir = tmp_path / "results"
    assert run(["benchmark", suite, out_dir]) == 0
    _, rows = _read_results(out_dir)
    assert rows["kmeans"]["status"] == "ok"
    assert rows["kmeans"]["nmi"] == ""


def test_benchmark_unlabeled_csv_without_g_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "plain.csv"
    _write_unlabeled(data)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "datasets": [{"name": "plain", "path": str(data)}],
        "methods": [{"name": "kmeans", "method": "kmeans", "params": {"restarts": 2}}],
    }))
    out_dir = tmp_path / "results"
    assert run(["benchmark", suite, out_dir]) == 3
    err = capsys.readouterr().err
    assert "'plain'" in err and '"g"' in err
    assert not out_dir.exists()


def test_run_method_rejects_settings_the_method_does_not_read(tmp_path):
    from cempca.cli import run_method
    from cempca.data import gen_fcps
    from cempca.errors import InvalidInputError

    ds = gen_fcps("tetra", 60, seed=2)
    for method, key in (("cempca", "smoothing"), ("cempca", "model"),
                        ("kmeans", "cov"), ("kmeans", "p"), ("cem", "max_iters"),
                        ("em-gmm", "seed")):
        with pytest.raises(InvalidInputError, match=repr(key)):
            run_method(method, ds, {"g": 4, key: 0}, 1)

    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "seed": 1,
        "datasets": [{"name": "tetra", "shape": "tetra", "n": 60, "seed": 2}],
        "methods": [{"name": "typo", "method": "cem",
                     "params": {"restarts": 2, "max_iters": 5}},
                    {"name": "kmeans", "method": "kmeans", "params": {"restarts": 2}}],
    }))
    out_dir = tmp_path / "results"
    assert run(["benchmark", suite, out_dir]) == 0
    _, rows = _read_results(out_dir)
    assert rows["typo"]["status"] == "failed"
    assert "'max_iters'" in rows["typo"]["error"]
    assert rows["kmeans"]["status"] == "ok"


def test_fit_defaults_match_table_and_library(tmp_path):
    import dataclasses
    import inspect

    from cempca.baselines import kmeans_pca, reduced_kmeans
    from cempca.cempca import CempcaConfig
    from cempca.cli import SETTINGS
    from cempca.mixture import cem, em_gmm, kmeans

    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 40, "--seed", 2, "--out", data])
    for method, defaults in SETTINGS.items():
        out = tmp_path / f"{method}.json"
        assert run(["fit", method, data, "--g", 4, "--out", out]) == 0
        config = json.loads(out.read_text())["config"]
        assert config == {**defaults, "g": 4, "seed": 0}, method

    library = {f.name: f.default for f in dataclasses.fields(CempcaConfig) if f.name != "g"}
    spelled = {"smooth": "smoothing", "cov": "model"}
    assert {spelled.get(k, k): v for k, v in SETTINGS["cempca"].items()} == library
    functions = {"kmeans": kmeans, "em-gmm": em_gmm, "cem": cem,
                 "kmeans-pca": kmeans_pca, "reduced-kmeans": reduced_kmeans}
    assert set(functions) | {"cempca"} == set(SETTINGS)
    for method, fn in functions.items():
        params = inspect.signature(fn).parameters
        for key in ("max_iter", "tol", "restarts"):
            assert SETTINGS[method][key] == params[key].default, (method, key)
        assert SETTINGS[method].get("p", "no p") == (
            params["p"].default if "p" in params else "no p"), method
        if "cov" in SETTINGS[method]:
            assert SETTINGS[method]["cov"] == params["model"].default, method


def test_fit_rejects_a_flag_the_method_does_not_read(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 40, "--seed", 1, "--out", data])
    capsys.readouterr()
    out = tmp_path / "fit.json"
    code = run(["fit", "kmeans", data, "--g", 4, "--delta", 5, "--out", out])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and not out.exists()
    assert captured.err == "data error: method 'kmeans' does not read 'delta'\n"


def _evaluate(argv, capsys):
    code = run(["evaluate", *argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_evaluate_headerless_single_column_of_floats(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("2.0\n2.0\n0.5\n0.5\n1.0\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("label\n0\n0\n1\n1\n2\n")
    code, out, _ = _evaluate([pred, truth], capsys)
    assert code == 0
    assert json.loads(out) == {"acc": 1.0, "ari": 1.0, "nmi": 1.0}


def test_evaluate_single_column_header_not_named_label(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("cluster\n1\n1\n0\n0\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("label\n0\n1\n0\n1\n")
    code, out, _ = _evaluate([pred, truth], capsys)
    assert code == 0
    assert json.loads(out)["acc"] == 0.5


def test_evaluate_two_columns_without_label_is_a_data_error(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("a,b\n0,1\n1,0\n")
    code, out, err = _evaluate([pred, pred], capsys)
    assert code == 3 and out == ""
    assert err == (f"data error: {pred} has 2 columns; expected a single label "
                   "column or a 'label' header\n")


def test_evaluate_single_column_encoded_like_a_label_column(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("0\n0\n1\n1\n")
    bare = tmp_path / "bare.csv"
    bare.write_text("1\n1.0\n2\n2\n")
    headed = tmp_path / "headed.csv"
    headed.write_text("label\n1\n1.0\n2\n2\n")
    scores = []
    for pred in (bare, headed):
        code, out, _ = _evaluate([pred, truth], capsys)
        assert code == 0
        scores.append(json.loads(out))
    assert scores[0] == scores[1]


def test_evaluate_text_labels_under_a_header_score_like_integers(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("0\n0\n1\n1\n2\n")
    text = tmp_path / "text.csv"
    text.write_text("cluster\nb\nb\na\nc\nc\n")
    ints = tmp_path / "ints.csv"
    ints.write_text("cluster\n0\n0\n1\n2\n2\n")
    scores = []
    for pred in (text, ints):
        code, out, _ = _evaluate([pred, truth], capsys)
        assert code == 0
        scores.append(json.loads(out))
    assert scores[0] == scores[1] and scores[0]["acc"] == 0.8


def test_evaluate_fit_json_that_is_not_a_fit_is_a_data_error(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("label\n0\n1\n")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = _evaluate([bad, truth], capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"data error: {bad} is not valid JSON: ")
    scalar = tmp_path / "scalar.json"
    scalar.write_text("3")
    code, out, err = _evaluate([scalar, truth], capsys)
    assert code == 3 and out == ""
    assert err == f"data error: {scalar} has no 'assignments' field\n"


def test_benchmark_entry_without_a_required_key_is_a_data_error(tmp_path, capsys):
    tetra = {"name": "t", "shape": "tetra", "n": 60}
    kmeans = {"name": "k", "method": "kmeans", "params": {"restarts": 2}}
    cases = [
        ([tetra], [{"name": "k"}],
         """method entry {'name': 'k'} gives no "method\""""),
        ([{"name": "t", "n": 60}], [kmeans],
         """dataset entry {'name': 't', 'n': 60} gives neither "path" nor "shape\""""),
    ]
    for datasets, methods, message in cases:
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"datasets": datasets, "methods": methods}))
        out_dir = tmp_path / "results"
        code = run(["benchmark", suite, out_dir])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"data error: {message}\n"
        assert not out_dir.exists()


@pytest.mark.parametrize("suite, message", [
    ([1, 2], "must be dict, got [1, 2]"),
    ({"datasets": [{"shape": "tetra", "n": 60}],
      "methods": [{"method": "kmeans", "params": [1]}]},
     '"params" in method entry'),
    ({"datasets": ["path"], "methods": []}, "a suite entry must be dict, got 'path'"),
    ({"seed": "abc", "datasets": [], "methods": []}, "\"seed\" in the suite must be int"),
    ({"seed": "5", "datasets": [], "methods": []}, "\"seed\" in the suite must be int"),
    ({"seed": 1.7, "datasets": [], "methods": []}, "\"seed\" in the suite must be int"),
    ({"datasets": [{"shape": "tetra", "n": "x"}], "methods": []},
     "\"n\" in dataset entry {'shape': 'tetra', 'n': 'x'} must be int, got 'x'"),
    ({"datasets": [{"path": "d.csv", "label_column": 1.5}], "methods": []},
     '"label_column" in dataset entry {\'path\': \'d.csv\', \'label_column\': 1.5} '
     "must be str or int, got 1.5"),
    ({"datasets": [{"path": "d.csv", "label_column": True}], "methods": []},
     "must be str or int, got True"),
])
def test_benchmark_malformed_suite_is_a_data_error(tmp_path, capsys, suite, message):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    out_dir = tmp_path / "results"
    code = run(["benchmark", path, out_dir])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("data error: ") and message in captured.err
    assert not out_dir.exists()


def test_benchmark_null_entry_value_means_absent(tmp_path):
    data = tmp_path / "tetra.csv"
    run(["generate", "--shape", "tetra", "--n", 60, "--seed", 2, "--out", data])
    datasets = [{"path": str(data)}, {"shape": "hepta"}]
    methods = [{"method": "kmeans", "params": {"restarts": 2}},
               {"name": "k20", "method": "kmeans"}]
    nulls = {"datasets": [{**datasets[0], "label_column": None, "name": None,
                           "g": None},
                          {**datasets[1], "n": None, "seed": None, "g": None}],
             "methods": [{**methods[0], "name": None},
                         {**methods[1], "params": None}],
             "seed": None}
    outputs = []
    for name, suite in [("absent", {"datasets": datasets, "methods": methods}),
                        ("null", nulls)]:
        path, out_dir = tmp_path / f"{name}.json", tmp_path / name
        path.write_text(json.dumps(suite))
        assert run(["benchmark", path, out_dir]) == 0
        csv_text = (out_dir / "results.csv").read_text()
        rows = [line.split(",") for line in csv_text.splitlines()]
        outputs.append(([r[:8] + r[9:] for r in rows],
                        (out_dir / "results.txt").read_text()))
    assert outputs[0] == outputs[1]
    assert all(row[3] == "ok" for row in outputs[0][0][1:])


@pytest.mark.parametrize("params, g, message", [
    ({"restarts": "2"}, None, "restarts must be int, got '2'"),
    ({"restarts": 2.5}, None, "restarts must be int, got 2.5"),
    ({"restarts": True}, None, "restarts must be int, got True"),
    ({"restarts": 2}, "3", "g must be int, got '3'"),
])
def test_benchmark_cell_with_a_wrong_typed_setting_fails_alone(tmp_path, params, g,
                                                               message):
    dataset = {"name": "tetra", "shape": "tetra", "n": 60, "seed": 2}
    bad = {"name": "bad", "method": "kmeans", "params": params}
    methods = [{"name": "kmeans", "method": "kmeans", "params": {"restarts": 2}}]
    if g is not None:
        # a dataset "g" reaches every cell; the good entry overrides it
        dataset["g"], methods[0]["params"]["g"] = g, 4
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"seed": 1, "datasets": [dataset],
                                 "methods": [bad] + methods}))
    out_dir = tmp_path / "results"
    assert run(["benchmark", suite, out_dir]) == 0
    _, rows = _read_results(out_dir)
    assert rows["bad"]["status"] == "failed" and rows["bad"]["error"] == message
    assert rows["kmeans"]["status"] == "ok" and rows["kmeans"]["nmi"] != ""


def test_run_method_checks_setting_types():
    from cempca.cli import run_method
    from cempca.data import gen_fcps
    from cempca.errors import InvalidInputError

    ds = gen_fcps("tetra", 60, seed=2)
    record, _ = run_method("cempca", ds, {"g": 4, "delta": 1, "p": None,
                                          "restarts": 1, "smooth": 0}, 1)
    assert record.config["delta"] == 1 and record.config["p"] is None
    with pytest.raises(InvalidInputError, match="standardize must be bool, got 1"):
        run_method("kmeans", ds, {"g": 4, "standardize": 1}, 1)


def test_benchmark_table_marks_unscored_cells(tmp_path):
    data = tmp_path / "plain.csv"
    _write_unlabeled(data)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "seed": 1,
        "datasets": [{"name": "plain", "path": str(data), "g": 2}],
        "methods": [{"name": "kmeans", "method": "kmeans", "params": {"restarts": 2}},
                    {"name": "too-wide", "method": "kmeans-pca",
                     "params": {"restarts": 2, "p": 50}}],
    }))
    out_dir = tmp_path / "results"
    assert run(["benchmark", suite, out_dir]) == 0
    row = (out_dir / "results.txt").read_text().splitlines()[1]
    assert row.split() == ["plain", "unscored", "failed"]


@pytest.mark.parametrize("assignments", [["x", "y"], [1.0, 0.5], [True, False],
                                         [-1, 0], {"0": 1}])
def test_evaluate_fit_json_needs_integer_assignments(tmp_path, capsys, assignments):
    truth = tmp_path / "truth.csv"
    truth.write_text("label\n0\n1\n")
    pred = tmp_path / "fit.json"
    pred.write_text(json.dumps({"assignments": assignments}))
    code, out, err = _evaluate([pred, truth], capsys)
    assert code == 3 and out == "" and err.startswith("data error: ")


@pytest.mark.parametrize("name, content", [("labels.csv", b"label\n\xff\xfe\n"),
                                           ("fit.json", b"\xff{")])
def test_evaluate_non_utf8_file_is_a_data_error(tmp_path, capsys, name, content):
    bad = tmp_path / name
    bad.write_bytes(content)
    truth = tmp_path / "truth.csv"
    truth.write_text("label\n0\n")
    code, out, err = _evaluate([bad, truth], capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"data error: cannot read {bad}: ")


def test_fit_cempca_non_finite_cell_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 60, "--seed", 2, "--out", data])
    lines = data.read_text().split("\n")
    lines[4] = "nan," + lines[4].split(",", 1)[1]
    data.write_text("\n".join(lines))
    capsys.readouterr()
    code = run(["fit", "cempca", data, "--g", 2])  # default smoothing builds the graph
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("data error: ") and "non-finite" in captured.err
    assert "Traceback" not in captured.err


def _tetra_csv(tmp_path):
    data = tmp_path / "t.csv"
    run(["generate", "--shape", "tetra", "--n", 60, "--seed", 2, "--out", data])
    return data


def _suite_path(tmp_path, suite):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    return path


@pytest.mark.parametrize("argv", [
    lambda tmp: ["generate", "--shape", "tetra", "--n", 60, "--seed", -1,
                 "--out", tmp / "out.csv"],
    lambda tmp: ["fit", "kmeans", _tetra_csv(tmp), "--g", 4, "--seed", -1],
    lambda tmp: ["benchmark", _suite_path(tmp, {
        "seed": -1, "datasets": [{"shape": "tetra", "n": 60}],
        "methods": [{"method": "kmeans"}]}), tmp / "results"],
    lambda tmp: ["benchmark", _suite_path(tmp, {
        "datasets": [{"shape": "tetra", "n": 60, "seed": -2}],
        "methods": [{"method": "kmeans"}]}), tmp / "results"],
], ids=["generate", "fit", "suite-seed", "dataset-seed"])
def test_negative_seed_is_a_data_error(tmp_path, capsys, argv):
    argv = argv(tmp_path)
    capsys.readouterr()
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("data error: ") and ">= 0" in captured.err
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "results").exists()


def test_every_setting_has_a_fit_flag_that_defaults_to_none():
    from cempca.cli import SETTINGS, build_parser

    parser = build_parser()
    base = ["fit", "kmeans", "d.csv", "--g", "2"]
    args = parser.parse_args(base)
    defaults = {key: value for settings in SETTINGS.values()
                for key, value in settings.items()}
    for key, default in defaults.items():
        # None means "not given": run_method fills in the method's default
        assert getattr(args, key) is None, key
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            given, expected = [flag], True
        else:
            expected = 3 if default is None else default
            given = [flag, str(expected)]
        assert getattr(parser.parse_args(base + given), key) == expected, key


def test_fit_cov_diag_and_diagonal_give_the_same_fit(tmp_path):
    from cempca.mixture import COV_MODELS

    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 60, "--seed", 2, "--out", data])
    for method in ("cempca", "em-gmm", "cem"):
        payloads = []
        for cov in ("diag", "diagonal"):
            out = tmp_path / f"{method}-{cov}.json"
            assert run(["fit", method, data, "--g", 4, "--restarts", 2,
                        "--cov", cov, "--out", out]) == 0
            payload = json.loads(out.read_text())
            del payload["wall_time"]
            payloads.append(payload)
        assert payloads[0] == payloads[1], method
        assert payloads[0]["config"]["cov"] == "diag"
    for cov in COV_MODELS:
        assert run(["fit", "cem", data, "--g", 4, "--restarts", 1, "--cov", cov,
                    "--out", tmp_path / "any.json"]) == 0


@pytest.mark.parametrize("method", ["kmeans", "em-gmm", "cem", "kmeans-pca",
                                    "reduced-kmeans"])
@pytest.mark.parametrize("max_iter", [0, -1])
def test_fit_max_iter_below_one_is_a_data_error(tmp_path, capsys, method, max_iter):
    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 40, "--seed", 1, "--out", data])
    capsys.readouterr()
    out = tmp_path / "fit.json"
    code = run(["fit", method, data, "--g", 4, "--max-iter", max_iter, "--out", out])
    captured = capsys.readouterr()
    assert code == 3 and not out.exists()
    assert captured.err == "data error: max_iter must be >= 1\n"


@pytest.mark.parametrize("flag, message", [("--smooth", "smooth must be >= 0"),
                                           ("--max-iter", "max_iter must be >= 0")])
def test_fit_cempca_negative_smooth_or_max_iter_is_a_data_error(tmp_path, capsys,
                                                                flag, message):
    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 40, "--seed", 1, "--out", data])
    capsys.readouterr()
    out = tmp_path / "fit.json"
    code = run(["fit", "cempca", data, "--g", 4, flag, -1, "--out", out])
    captured = capsys.readouterr()
    assert code == 3 and not out.exists()
    assert captured.err == f"data error: {message}\n"


def test_benchmark_cell_with_an_out_of_range_setting_fails_alone(tmp_path):
    bad = {"kmeans-0": ("kmeans", {"max_iter": 0}),
           "rkm-neg": ("reduced-kmeans", {"max_iter": -1}),
           "cempca-neg": ("cempca", {"max_iter": -1}),
           "cempca-smooth": ("cempca", {"smooth": -1})}
    methods = [{"name": name, "method": method, "params": {**params, "restarts": 2}}
               for name, (method, params) in bad.items()]
    methods += [{"name": "kmeans", "method": "kmeans", "params": {"restarts": 2}},
                {"name": "cempca-0", "method": "cempca",  # zero outer sweeps
                 "params": {"max_iter": 0, "restarts": 2}}]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "seed": 1,
        "datasets": [{"name": "tetra", "shape": "tetra", "n": 60, "seed": 2}],
        "methods": methods}))
    out_dir = tmp_path / "results"
    assert run(["benchmark", suite, out_dir]) == 0
    _, rows = _read_results(out_dir)
    assert {name: (rows[name]["status"], rows[name]["error"]) for name in bad} == {
        "kmeans-0": ("failed", "max_iter must be >= 1"),
        "rkm-neg": ("failed", "max_iter must be >= 1"),
        "cempca-neg": ("failed", "max_iter must be >= 0"),
        "cempca-smooth": ("failed", "smooth must be >= 0")}
    assert rows["kmeans"]["status"] == "ok" and rows["kmeans"]["nmi"] != ""
    assert rows["cempca-0"]["status"] == "ok" and rows["cempca-0"]["iterations"] == "0"


@pytest.mark.parametrize("method", ["cempca", "em-gmm", "cem", "kmeans", "kmeans-pca",
                                    "reduced-kmeans"])
@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_fit_negative_or_nan_tol_is_a_data_error(tmp_path, capsys, method, tol):
    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 40, "--seed", 1, "--out", data])
    capsys.readouterr()
    out = tmp_path / "fit.json"
    code = run(["fit", method, data, "--g", 4, "--tol", tol, "--out", out])
    captured = capsys.readouterr()
    assert code == 3 and not out.exists()
    assert captured.err == (f"data error: tol must be finite and >= 0, "
                            f"got {float(tol)}\n")


@pytest.mark.parametrize("flags, message", [
    (["--neighbors", 0], "neighbors must be in [1, 39], got 0"),
    (["--neighbors", 40], "neighbors must be in [1, 39], got 40"),
    (["--delta", "nan"], "delta must be finite and >= 0, got nan"),
    (["--delta", "inf"], "delta must be finite and >= 0, got inf"),
    (["--smooth", -2, "--neighbors", 0], "smooth must be >= 0"),
])
def test_fit_cempca_names_the_flag_at_fault(tmp_path, capsys, flags, message):
    # not the library internal that would have tripped over it (knn_graph's
    # k, spd_solve's matrix) or the library's own parameter name
    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 40, "--seed", 1, "--out", data])
    capsys.readouterr()
    out = tmp_path / "fit.json"
    code = run(["fit", "cempca", data, "--g", 4, *flags, "--out", out])
    captured = capsys.readouterr()
    assert code == 3 and not out.exists()
    assert captured.err == f"data error: {message}\n"
