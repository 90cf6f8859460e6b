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
    for method in ("cempca", "cem"):
        out = tmp_path / f"{method}.json"
        assert run(["fit", method, data, "--g", 4, "--restarts", 1, "--smooth", 0,
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
    assert failed["error"] == "p_used must be in [1, 3], got 50"


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
        for key in ("max_iter", "tol"):
            assert SETTINGS[method][key] == params[key].default, (method, key)
        if "cov" in SETTINGS[method]:
            assert SETTINGS[method]["cov"] == params["model"].default, method


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
