import csv
import json
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cempca import cli
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
    out = tmp_path / "chang.csv"
    run(["generate", "--shape", "chang", "--seed", 1, "--out", out])
    assert len(out.read_text().strip().split("\n")) == 1001


def _assert_cannot_write(capsys, code, path, reason):
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"data error: cannot write {path}: {reason}\n"


def test_generate_to_a_missing_directory_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "missing" / "t.csv"
    code = run(["generate", "--shape", "tetra", "--n", 40, "--out", out])
    _assert_cannot_write(capsys, code, out, "No such file or directory")


@pytest.mark.parametrize("flag", ["--out", "--emit-embedding"])
def test_fit_output_to_a_missing_directory_is_a_data_error(tmp_path, capsys, flag):
    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 40, "--seed", 1, "--out", data])
    capsys.readouterr()
    out = tmp_path / "missing" / "f.out"
    code = run(["fit", "kmeans-pca", data, "--g", 4, "--restarts", 1, flag, out])
    _assert_cannot_write(capsys, code, out, "No such file or directory")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_write_that_fails_after_open_is_a_data_error(tmp_path, capsys):
    # the error comes from the write, not from open, so it names no file
    code = run(["generate", "--shape", "tetra", "--n", 40, "--out", "/dev/full"])
    _assert_cannot_write(capsys, code, "output", "No space left on device")


@pytest.mark.parametrize("below, reason", [(False, "File exists"),
                                           (True, "Not a directory")])
def test_benchmark_to_an_unwritable_out_dir_fails_before_any_cell(
        tmp_path, capsys, monkeypatch, below, reason):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"datasets": [{"shape": "tetra", "n": 40}],
                                 "methods": [{"method": "kmeans"}]}))
    out_dir = tmp_path / "afile"
    out_dir.write_text("")
    out_dir = out_dir / "sub" if below else out_dir

    def no_cell(*args):
        raise AssertionError("a cell ran before OUT_DIR was made")

    monkeypatch.setattr(cli, "_result_row", no_cell)
    code = run(["benchmark", suite, out_dir])
    _assert_cannot_write(capsys, code, out_dir, reason)


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


@pytest.mark.parametrize("max_iter", [40, 0])
def test_fit_emit_embedding_writes_the_fits_bundle(tmp_path, max_iter):
    from cempca.cempca import CempcaConfig, fit_cempca

    data = tmp_path / "atom.csv"
    run(["generate", "--shape", "atom", "--n", 300, "--seed", 5, "--out", data])
    emb = tmp_path / "emb.csv"
    assert run(["fit", "cempca", data, "--g", 2, "--p", 3, "--delta", 1, "--restarts", 4,
                "--max-iter", max_iter, "--seed", 1, "--emit-embedding", emb]) == 0
    cfg = CempcaConfig(g=2, p=3, delta=1.0, restarts=4, max_iter=max_iter)
    bundle = fit_cempca(load_csv(data).X, cfg, seed=1).bundle
    # the writer uses repr, so the values read back exactly
    written = np.loadtxt(emb, delimiter=",", skiprows=1)
    assert written[:, :3].tobytes() == bundle.B.tobytes()
    assert written[:, 3:].tobytes() == bundle.M.tobytes()
    if max_iter == 0:  # no sweep ran: M is still its copy of B
        assert np.array_equal(written[:, 3:], written[:, :3])


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
    _, scores, _ = run_method("kmeans", ds, {"g": 4, "restarts": 3},
                              int(cell["seed"]))
    assert np.isclose(scores["nmi"], float(cell["nmi"]), atol=1e-12)
    assert np.isclose(scores["acc"], float(cell["acc"]), atol=1e-12)

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
    _, scores, _ = run_method("cem", ds, {"g": 4, "restarts": 2, "cov": "diagonal"},
                              int(cell["seed"]))
    assert float(cell["nmi"]) == scores["nmi"]


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


def test_benchmark_names_a_bad_cov_by_its_flag(tmp_path):
    # the model is checked before any work and named as the suite param is
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "datasets": [{"name": "tetra", "shape": "tetra", "n": 100, "seed": 2}],
        "methods": [{"name": "bad", "method": "cem", "params": {"cov": "bogus"}}],
    }))
    out_dir = tmp_path / "results"
    assert run(["benchmark", suite, out_dir]) == 0
    _, rows = _read_results(out_dir)
    assert rows["bad"]["status"] == "failed"
    assert rows["bad"]["error"] == ("cov must be one of ('full', 'diagonal', "
                                    "'spherical', 'spherical-tied'), got 'bogus'")


# What results.csv reports of one seeded fit of each method on tetra n=100,
# seed 1, 2 restarts, besides wall_time and objective_final.
PINNED_ROWS = {
    "cempca": "3023998541,ok,1.0,1.0,1.0,1,0,",
    "em-gmm": "2970908266,ok,1.0,1.0,1.0,3,0,",
    "cem": "2253905059,ok,1.0,1.0,1.0,1,0,",
    "kmeans": "2199221172,ok,1.0,1.0,1.0,2,0,",
    "kmeans-pca": "1192768812,ok,1.0,1.0,1.0,3,0,",
    "reduced-kmeans": "1676973821,ok,1.0,1.0,1.0,1,0,",
}


def test_fit_json_and_results_row_report_the_same_fit(tmp_path):
    from cempca.cli import RESULT_COLUMNS, SETTINGS

    data = tmp_path / "t.csv"
    run(["generate", "--shape", "tetra", "--n", 100, "--seed", 1, "--out", data])
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "seed": 1, "datasets": [{"name": "tetra", "path": str(data)}],
        "methods": [{"name": m, "method": m, "params": {"restarts": 2}}
                    for m in PINNED_ROWS]}))
    out_dir = tmp_path / "results"
    assert run(["benchmark", suite, out_dir]) == 0
    header, rows = _read_results(out_dir)
    assert tuple(header) == RESULT_COLUMNS
    for method, pinned in PINNED_ROWS.items():
        row = rows[method]
        kept = ("seed", "status", "nmi", "ari", "acc", "iterations",
                "failed_restarts", "error")
        assert ",".join(row[key] for key in kept) == pinned
        out = tmp_path / f"{method}.json"
        assert run(["fit", method, data, "--g", 4, "--restarts", 2,
                    "--seed", row["seed"], "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"assignments", "config", "dataset",
                                "failed_restarts", "iterations", "method", "metrics",
                                "objective_final", "seed", "wall_time"}
        assert set(payload["config"]) == {"g", "seed", *SETTINGS[method]}
        assert (payload["method"], payload["seed"]) == (method, int(row["seed"]))
        assert repr(payload["objective_final"]) == row["objective_final"]
        assert str(payload["iterations"]) == row["iterations"]
        assert {key: repr(value) for key, value in payload["metrics"].items()} == {
            key: row[key] for key in ("nmi", "ari", "acc")}


@pytest.mark.parametrize("error", ["SingularMatrixError", "EmptyClusterError",
                                   "DegenerateUpdateError", "NumericalError"])
def test_every_numerical_failure_exits_4(tmp_path, monkeypatch, capsys, error):
    from cempca import cli, errors

    exc = getattr(errors, error)(1)
    assert isinstance(exc, errors.NumericalError)

    def fail(*args, **kwargs):
        raise exc

    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 40, "--seed", 2, "--out", data])
    monkeypatch.setattr(cli, "kmeans", fail)
    assert run(["fit", "kmeans", data, "--g", 4]) == 4
    assert capsys.readouterr().err == f"numerical failure: {exc}\n"


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


def test_run_method_rejects_an_unknown_method():
    from cempca.cli import run_method
    from cempca.data import gen_fcps
    from cempca.errors import InvalidInputError

    with pytest.raises(InvalidInputError, match="^unknown method 'nope'$"):
        run_method("nope", gen_fcps("tetra", 60, seed=2), {"g": 4}, 1)


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


def test_evaluate_rows_that_differ_in_number_is_a_data_error(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("label\n0\n1\n1\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("label\n0\n1\n")
    code, out, err = _evaluate([pred, truth], capsys)
    assert code == 3 and out == ""
    assert err == "data error: prediction has 3 rows but truth has 2\n"


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
    ({"datasets": [{"shape": "tetra", "g": "4"}], "methods": [{"method": "kmeans"}]},
     "\"g\" in dataset entry {'shape': 'tetra', 'g': '4'} must be int, got '4'"),
    ({"datasets": [{"shape": "tetra", "g": True}], "methods": [{"method": "kmeans"}]},
     "\"g\" in dataset entry {'shape': 'tetra', 'g': True} must be int, got True"),
    ({"datasets": [{"shape": "tetra", "g": 1.7}], "methods": [{"method": "kmeans"}]},
     "\"g\" in dataset entry {'shape': 'tetra', 'g': 1.7} must be int, got 1.7"),
    ({"datasets": [{"path": "d.csv", "label_column": 1.5}], "methods": []},
     '"label_column" in dataset entry {\'path\': \'d.csv\', \'label_column\': 1.5} '
     "must be str or int, got 1.5"),
    ({"datasets": [{"path": "d.csv", "label_column": True}], "methods": []},
     "must be str or int, got True"),
    # a g outside [1, n] would fail every cell
    *[({"datasets": [{"name": "t", "shape": "tetra", "n": 60, "g": g}],
        "methods": [{"method": "kmeans"}]},
       f"dataset 't' has g = {g}, outside [1, n = 60]") for g in (0, -2, 61, 100)],
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


@pytest.mark.parametrize("params, message", [
    # the library checks each setting and names it; the CLI checks no type
    ({"restarts": "2"}, "restarts must be an integer, got '2'"),
    ({"restarts": 2.5}, "restarts must be an integer, got 2.5"),
    ({"restarts": True}, "restarts must be an integer, got True"),
    # a method's "g" overrides the dataset's in its own cells
    ({"restarts": 2, "g": "3"}, "g must be an integer, got '3'"),
    ({"restarts": 2, "tol": "x"}, "tol must be finite and >= 0, got 'x'"),
])
def test_benchmark_cell_with_a_wrong_typed_setting_fails_alone(tmp_path, params, message):
    dataset = {"name": "tetra", "shape": "tetra", "n": 60, "seed": 2, "g": 4}
    bad = {"name": "bad", "method": "kmeans", "params": params}
    methods = [{"name": "kmeans", "method": "kmeans", "params": {"restarts": 2}}]
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
    from cempca.errors import SettingError

    ds = gen_fcps("tetra", 60, seed=2)
    settings, _, _ = run_method("cempca", ds, {"g": 4, "delta": 1, "p": None,
                                               "restarts": 1, "smooth": 0}, 1)
    assert settings["delta"] == 1 and settings["p"] is None
    # one rule for all six methods: numpy's bools pass, an int is refused
    for method in cli.SETTINGS:
        config = {"g": 4, "restarts": 1, **({"smooth": 0} if method == "cempca" else {})}
        for flag in (np.True_, np.False_):
            settings, _, _ = run_method(method, ds, {**config, "standardize": flag}, 1)
            assert settings["standardize"] is flag
        with pytest.raises(SettingError, match="^standardize must be bool, got 1$"):
            run_method(method, ds, {**config, "standardize": 1}, 1)


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


def test_evaluate_zero_rows_is_a_data_error_without_a_warning(tmp_path, capsys):
    empty = tmp_path / "e.json"
    empty.write_text(json.dumps({"assignments": []}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _evaluate([empty, empty], capsys)
    assert code == 3 and out == ""
    assert err == "data error: accuracy needs at least 1 row\n"


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


@pytest.mark.parametrize("method, cell", [
    (method, cell) for method in ("cempca", "em-gmm", "cem", "kmeans", "kmeans-pca",
                                  "reduced-kmeans") for cell in ("nan", "inf")])
def test_fit_non_finite_cell_is_a_data_error(tmp_path, capsys, method, cell):
    # standardizing would spread the cell over its column, and the fits
    # would fail as a numerical error or return meaningless assignments
    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 60, "--seed", 2, "--out", data])
    lines = data.read_text().split("\n")
    lines[4] = f"{cell}," + lines[4].split(",", 1)[1]
    data.write_text("\n".join(lines))
    capsys.readouterr()
    code = run(["fit", method, data, "--g", 2])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("data error: ") and "non-finite" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("method", list(cli.SETTINGS))
@pytest.mark.parametrize("flag", ["--standardize", "--no-standardize"])
def test_fit_data_too_large_to_square_is_a_data_error(tmp_path, capsys, method, flag):
    # two blobs 8 apart, times 1e200: standardizing divided by an infinite
    # deviation and fitted a coin-flip partition on all-zero features, and
    # the raw fits raised from k-means++ or the neighbor graph
    rng = np.random.default_rng(0)
    X = 1e200 * np.vstack([rng.standard_normal((25, 3)), rng.standard_normal((25, 3)) + 8.0])
    data = tmp_path / "huge.csv"
    data.write_text("x0,x1,x2,label\n" + "".join(
        ",".join(map(repr, row)) + f",{i // 25}\n" for i, row in enumerate(X.tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["fit", method, data, "--g", 2, "--restarts", 2, flag])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("data error: X has an entry of magnitude ")
    assert "would overflow float64" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("method", list(cli.SETTINGS))
def test_fit_label_only_csv_is_a_data_error(tmp_path, capsys, method):
    # with the label column taken out no feature is left to cluster on
    data = tmp_path / "labels.csv"
    data.write_text("label\n" + "".join(f"{i % 2}\n" for i in range(40)))
    code = run(["fit", method, data, "--g", 2, "--restarts", 2])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("data error: X must be 2-D with at least one column, "
                            "got shape (40, 0)\n")


def test_fit_reads_a_leading_label_column_after_a_byte_order_mark(tmp_path, capsys):
    # a spreadsheet export: the label column first, and a UTF-8 BOM
    plain = tmp_path / "t.csv"
    run(["generate", "--shape", "tetra", "--n", 60, "--seed", 2, "--out", plain])
    rows = [line.split(",") for line in plain.read_text().splitlines()]
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf"
                    + "".join(",".join(r[-1:] + r[:-1]) + "\n" for r in rows).encode())
    fits = []
    for path in (plain, bom):
        capsys.readouterr()
        assert run(["fit", "kmeans", path, "--g", 4, "--restarts", 2]) == 0
        fits.append(json.loads(capsys.readouterr().out))
    assert fits[1]["assignments"] == fits[0]["assignments"]
    assert fits[1]["metrics"] == fits[0]["metrics"] and fits[0]["metrics"]


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


@pytest.mark.parametrize("datasets, methods, message", [
    ([{"shape": "hepta", "n": 70}],
     [{"name": "x", "method": "kmeans", "params": {"restarts": 2}},
      {"name": "x", "method": "reduced-kmeans", "params": {"p": 1, "restarts": 2}}],
     "two method entries are named 'x'"),
    ([{"shape": "hepta", "n": 70}],
     [{"method": "kmeans"}, {"name": "kmeans", "method": "cem"}],
     "two method entries are named 'kmeans'"),
    ([{"shape": "hepta", "n": 70}, {"name": "hepta", "shape": "tetra", "n": 60}],
     [{"method": "kmeans"}],
     "two dataset entries are named 'hepta'"),
], ids=["methods", "methods-by-default", "datasets"])
def test_benchmark_repeated_name_is_a_data_error(tmp_path, capsys, monkeypatch, datasets,
                                                 methods, message):
    # results.txt keys its cells by (dataset, method) name, so one cell would
    # hide the other; the suite is rejected before any cell runs
    monkeypatch.setattr("cempca.cli.run_method", lambda *a: pytest.fail("a cell ran"))
    out_dir = tmp_path / "results"
    code = run(["benchmark", _suite_path(tmp_path, {"datasets": datasets,
                                                    "methods": methods}), out_dir])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"data error: {message}\n"
    assert not out_dir.exists()


# A suite of 2 datasets x 4 methods, the last a cell that fails on its cov.
POOL_SUITE = {
    "seed": 3,
    "datasets": [{"name": "tetra", "shape": "tetra", "n": 60, "seed": 1},
                 {"name": "hepta", "shape": "hepta", "n": 70, "seed": 2}],
    "methods": [{"name": "kmeans", "method": "kmeans", "params": {"restarts": 2}},
                {"name": "cem", "method": "cem", "params": {"restarts": 2}},
                {"name": "cempca", "method": "cempca",
                 "params": {"restarts": 2, "neighbors": 5}},
                {"name": "bad", "method": "cem", "params": {"cov": "bogus"}}],
}
POOL_CELLS = [(d["name"], m["name"]) for d in POOL_SUITE["datasets"]
              for m in POOL_SUITE["methods"]]


def _set_cpus(monkeypatch, cpus):
    """Make cmd_benchmark see `cpus` CPUs, on any platform."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def _mark_pids(monkeypatch, tmp_path):
    """Patch _result_row to leave a file named for the pid that ran each cell;
    returns a function that reads and clears those pids."""
    pids = tmp_path / "pids"
    pids.mkdir()
    real = cli._result_row

    def marked(*cell):
        (pids / f"{os.getpid()}-{cell[2]}-{cell[0].name}").touch()
        return real(*cell)

    monkeypatch.setattr(cli, "_result_row", marked)

    def ran_in():
        names = [path.name for path in pids.iterdir()]
        for path in pids.iterdir():
            path.unlink()
        assert len(names) == len(POOL_CELLS)
        return {int(name.split("-")[0]) for name in names}

    return ran_in


def _results_without_wall_time(out_dir):
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, column in enumerate(rows[0]) if column != "wall_time"]
    return [[row[i] for i in keep] for row in rows], (out_dir / "results.txt").read_bytes()


def test_benchmark_pool_writes_what_one_cpu_writes(tmp_path, monkeypatch):
    suite = _suite_path(tmp_path, POOL_SUITE)
    ran_in = _mark_pids(monkeypatch, tmp_path)
    written = {}
    for cpus in (2, 1):
        _set_cpus(monkeypatch, cpus)
        assert run(["benchmark", suite, tmp_path / str(cpus)]) == 0
        written[cpus] = _results_without_wall_time(tmp_path / str(cpus))
        # every cell in this process, or every cell in a worker
        pids = ran_in()
        assert (pids == {os.getpid()}) if cpus == 1 else (os.getpid() not in pids)
        assert multiprocessing.active_children() == []
    assert written[2] == written[1]
    rows = written[1][0]
    assert [tuple(row[:2]) for row in rows[1:]] == POOL_CELLS
    assert [row[3] for row in rows[1:]] == ["ok", "ok", "ok", "failed"] * 2


def test_benchmark_without_fork_runs_its_cells_in_this_process(tmp_path, monkeypatch):
    ran_in = _mark_pids(monkeypatch, tmp_path)
    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert run(["benchmark", _suite_path(tmp_path, POOL_SUITE), tmp_path / "results"]) == 0
    assert ran_in() == {os.getpid()}


def test_benchmark_rows_keep_suite_order_when_the_first_cell_ends_last(tmp_path,
                                                                       monkeypatch):
    # the first cell waits until every other cell has ended, in the other worker
    done = tmp_path / "done"
    done.mkdir()
    real = cli._result_row
    first = POOL_CELLS[0]

    def slow_first(*cell):
        if (cell[0].name, cell[2]) == first:
            deadline = time.monotonic() + 30
            while len(list(done.iterdir())) < len(POOL_CELLS) - 1:
                assert time.monotonic() < deadline, "the other cells did not end"
                time.sleep(0.01)
            (done / "first").touch()
        row = real(*cell)
        (done / f"{cell[0].name}-{cell[2]}").touch()
        return row

    monkeypatch.setattr(cli, "_result_row", slow_first)
    _set_cpus(monkeypatch, 2)
    out_dir = tmp_path / "results"
    assert run(["benchmark", _suite_path(tmp_path, POOL_SUITE), out_dir]) == 0
    assert (done / "first").exists()
    rows, _ = _results_without_wall_time(out_dir)
    assert [tuple(row[:2]) for row in rows[1:]] == POOL_CELLS


@pytest.mark.parametrize("cpus", [2, 1])
def test_benchmark_cell_that_raises_leaves_no_worker(tmp_path, monkeypatch, cpus):
    # an error that is no CempcaError is not a failed cell: it stops the suite
    real = cli._result_row

    def broken_second(*cell):
        if (cell[0].name, cell[2]) == POOL_CELLS[1]:
            raise RuntimeError("cell broke")
        return real(*cell)

    monkeypatch.setattr(cli, "_result_row", broken_second)
    _set_cpus(monkeypatch, cpus)
    with pytest.raises(RuntimeError, match="cell broke"):
        run(["benchmark", _suite_path(tmp_path, POOL_SUITE), tmp_path / "results"])
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "results" / "results.csv").exists()


def test_import_and_fit_load_no_process_pool(tmp_path):
    # only `cempca benchmark` runs cells in worker processes; the fit's
    # accuracy imports scipy.optimize, which loads concurrent.futures' base
    # module (through numpy.testing), but not its process pool
    data = tmp_path / "d.csv"
    run(["generate", "--shape", "tetra", "--n", 40, "--seed", 2, "--out", data])
    fit = ("from cempca.cli import main; "
           f"main(['fit', 'kmeans', {str(data)!r}, '--g', '4', '--out', "
           f"{str(tmp_path / 'fit.json')!r}])")
    loaded = {}
    for name, action in (("import", "import cempca"), ("fit", fit)):
        code = (f"import sys; sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r}); "
                f"{action}; print(' '.join(sorted(sys.modules)))")
        loaded[name] = set(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                          text=True, check=True).stdout.split())
    assert not {m for m in loaded["import"]
                if m.split(".")[0] in ("concurrent", "multiprocessing")}
    assert not {m for m in loaded["fit"]
                if m.split(".")[0] == "multiprocessing" or m == "concurrent.futures.process"}
    assert "scipy.optimize" in loaded["fit"]
