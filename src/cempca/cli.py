"""Command-line surface: dataset generation, fitting, evaluation, benchmarks.

SETTINGS holds each method's settings and defaults, read off its library entry
point and renamed to the `cempca fit` flag and suite param names; run_method
resolves every fit against it and rejects keys it does not list. The FitResult
is the one record of a fit: `cempca fit`'s JSON and a suite's results.csv row
read its iterations, wall time, final objective and failure count off it.
data.load_csv is the one CSV reader and _read_json the one JSON reader.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
A benchmark checks its whole suite, names included (no two method or dataset
entries may share one), then runs its cells, in one forked worker per
available CPU, and keeps their rows in suite order; each cell is one row keyed
by RESULT_COLUMNS, and results.csv and results.txt are both written from
those rows.
"""

import argparse
import csv
import inspect
import json
import os
import sys

import numpy as np

from .baselines import kmeans_pca, reduced_kmeans
from .cempca import CempcaConfig, fit_cempca
from .data import (FCPS_SHAPES, gen_chang, gen_fcps, load_csv, save_csv,
                   standardize)
from .errors import (CempcaError, DataError, InvalidInputError, NumericalError,
                     SettingError)
from .metrics import accuracy, ari, nmi
from .mixture import COV_MODELS, _check_bool, cem, child_seed, em_gmm, kmeans

# Method -> the library entry point whose keyword defaults are its settings.
_ENTRY_POINTS = {"cempca": CempcaConfig, "em-gmm": em_gmm, "cem": cem,
                 "kmeans": kmeans, "kmeans-pca": kmeans_pca,
                 "reduced-kmeans": reduced_kmeans}
# Library parameter -> setting name, where the two differ.
_SPELLING = {"model": "cov", "smoothing": "smooth"}
_LIBRARY_NAMES = {setting: name for name, setting in _SPELLING.items()}


def _settings(entry):
    """{setting: default} for entry's keyword defaults but seed; standardize
    is True where the library leaves standardizing to the CLI."""
    params = inspect.signature(entry).parameters.values()
    return {"standardize": True,
            **{_SPELLING.get(p.name, p.name): p.default for p in params
               if p.default is not p.empty and p.name != "seed"}}


# Method -> {setting: default}. p=None means the smaller of 10 and d.
SETTINGS = {method: _settings(entry) for method, entry in _ENTRY_POINTS.items()}
GENERATOR_SHAPES = ("chang",) + FCPS_SHAPES
RESULT_COLUMNS = ("dataset", "method", "seed", "status", "nmi", "ari", "acc",
                  "iterations", "wall_time", "objective_final", "failed_restarts",
                  "error")

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _generate_dataset(shape, n, seed):
    if shape == "chang":
        return gen_chang(n=n, seed=seed)
    return gen_fcps(shape, n=n, seed=seed)


def run_method(method, dataset, config, seed):
    """Fit one method on one dataset; returns (settings, scores, FitResult).

    config holds "g" and any of the method's SETTINGS; the rest take their
    defaults. A key the method does not read raises InvalidInputError; the
    library checks each setting's type and range (standardize here, with
    the library's rule) and raises SettingError, renamed to the SETTINGS name.
    settings holds every setting the fit ran with, plus "g" and "seed", so
    it replays the fit; scores holds acc, nmi and ari when the dataset has
    labels.
    """
    if method not in SETTINGS:
        raise InvalidInputError(f"unknown method {method!r}")
    given = dict(config)
    g = given.pop("g")
    unknown = sorted(set(given) - set(SETTINGS[method]))
    if unknown:
        raise InvalidInputError(f"method {method!r} does not read "
                                + ", ".join(map(repr, unknown)))
    s = {**SETTINGS[method], **given}
    kwargs = {_LIBRARY_NAMES.get(key, key): value for key, value in s.items()}
    if s.get("cov") in ("diag", "diagonal"):  # one model, spelled diag in config
        s["cov"], kwargs["model"] = "diag", "diagonal"

    try:
        if method == "cempca":
            result = fit_cempca(dataset.X, CempcaConfig(g=g, **kwargs), seed=seed)
        else:
            X = np.asarray(dataset.X, dtype=float)
            _check_bool(standardize=kwargs["standardize"])
            X = standardize(X) if kwargs.pop("standardize") else X
            # by name, so a wrapper set over this module's names (bench/spans.py) runs
            fit = globals()[_ENTRY_POINTS[method].__name__]
            result = fit(X, g, seed=seed, **kwargs)
    except SettingError as exc:  # named as the flag and the suite param are
        raise SettingError(_SPELLING.get(exc.setting, exc.setting), exc.rule) from None

    scores = {}
    if dataset.labels is not None:
        pred = result.partition.assignments
        scores = {"acc": accuracy(dataset.labels, pred),
                  "nmi": nmi(dataset.labels, pred),
                  "ari": ari(dataset.labels, pred)}
    return {"g": g, "seed": seed, **s}, scores, result


def _write_embedding(path, bundle):
    p = bundle.B.shape[1]
    header = [f"b{j}" for j in range(p)] + [f"m{j}" for j in range(p)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(bundle.B.shape[0]):
            writer.writerow([repr(float(v)) for v in bundle.B[i]]
                            + [repr(float(v)) for v in bundle.M[i]])


def cmd_generate(args):
    dataset = _generate_dataset(args.shape, args.n, args.seed)
    save_csv(dataset, args.out)
    print(f"wrote {dataset.n}x{dataset.d} dataset "
          f"({dataset.n_classes} classes) to {args.out}")
    return 0


def cmd_fit(args):
    dataset = load_csv(args.data, args.label_column, not args.no_header)
    # every setting flag given goes on, so run_method rejects one the
    # method does not read
    flags = {key for settings in SETTINGS.values() for key in settings}
    config = {key: getattr(args, key) for key in flags
              if getattr(args, key) is not None}
    settings, scores, result = run_method(args.method, dataset,
                                          {"g": args.g, **config}, args.seed)
    if args.emit_embedding:
        if result.bundle is None:
            print(f"method {args.method} produces no embedding", file=sys.stderr)
            return EXIT_USAGE
        _write_embedding(args.emit_embedding, result.bundle)
    payload = {"method": args.method, "dataset": dataset.name, "config": settings,
               "seed": args.seed, "metrics": scores, "iterations": result.iterations,
               "wall_time": result.wall_time,
               "objective_final": float(result.objective_trace[-1]),
               "failed_restarts": len(result.failed_restarts),
               "assignments": [int(a) for a in result.partition.assignments]}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None


def _read_labels(path):
    if str(path).endswith(".json"):
        payload = _read_json(path)
        if not isinstance(payload, dict) or "assignments" not in payload:
            raise DataError(f"{path} has no 'assignments' field")
        labels = payload["assignments"]
        if not isinstance(labels, list) or any(type(a) is not int for a in labels):
            raise DataError(f"{path}: 'assignments' must be a list of integers")
        return np.asarray(labels, dtype=int)
    # the label column is picked before any cell is parsed as a number: the
    # `label` column, or else the only column
    try:
        return load_csv(path, label_column="label", has_header=None).labels
    except InvalidInputError:
        pass  # no `label` header
    ds = load_csv(path, label_column=0, has_header=None)
    if ds.d != 0:
        raise DataError(f"{path} has {ds.d + 1} columns; expected a single label "
                        "column or a 'label' header")
    return ds.labels


def cmd_evaluate(args):
    pred = _read_labels(args.pred)
    truth = _read_labels(args.truth)
    if len(pred) != len(truth):
        raise InvalidInputError(
            f"prediction has {len(pred)} rows but truth has {len(truth)}")
    scores = {"acc": accuracy(truth, pred), "nmi": nmi(truth, pred),
              "ari": ari(truth, pred)}
    print(json.dumps(scores, sort_keys=True))
    return 0


def _checked(name, value, kind):
    """Return value if of a `kind` type; a bool never is one."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise InvalidInputError(f"{name} must be {names}, got {value!r}")
    return value


def _field(entry, key, kind, where, default=None):
    """entry[key], checked to be a `kind`, or default when key is absent or null."""
    value = entry.get(key)
    return default if value is None else _checked(f'"{key}" in {where}', value, kind)


def _check_unique(kind, names):
    """Reject a repeated name: results.txt keys its cells by (dataset, method) name."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise InvalidInputError(f"two {kind} entries are named {name!r}")


def _result_row(dataset, g, name, entry, seed):
    """Run one suite cell; returns its results.csv row, keyed by RESULT_COLUMNS."""
    row = {"dataset": dataset.name, "method": name, "seed": seed}
    try:
        _, scores, result = run_method(entry["method"], dataset,
                                       {"g": g, **(entry.get("params") or {})}, seed)
    except CempcaError as exc:
        return {**row, "status": "failed", "error": str(exc)}
    scores = {key: repr(float(value)) for key, value in scores.items()}
    return {**row, **scores, "status": "ok", "iterations": result.iterations,
            "wall_time": f"{result.wall_time:.6f}",
            "objective_final": repr(float(result.objective_trace[-1])),
            "failed_restarts": len(result.failed_restarts)}


def _cell_row(cell):
    """_result_row(*cell). The pool sends this function by name, and it looks
    _result_row up when it runs, so a worker runs the one the parent's module
    held at the fork, a wrapped or patched one included."""
    return _result_row(*cell)


def _run_cells(cells):
    """The cells' rows, in suite order: one forked worker per CPU this
    process may run on, or one cell after another in this process on one
    CPU or where the platform has no fork. Each cell depends on its own seed
    alone, so both ways give the same rows but for wall_time. No worker
    outlives the call: an exception cancels the cells not started, waits for
    the running ones and reaches the caller as the cell raised it."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no affinity call
        cpus = os.cpu_count() or 1
    workers = min(len(cells), cpus)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [_result_row(*cell) for cell in cells]
    # fork, not spawn: a worker starts with numpy and this package loaded. The
    # pool forks before it starts its own threads, and OpenBLAS stops its
    # threads across a fork (pthread_atfork).
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(pool.map(_cell_row, cells, chunksize=1))
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_benchmark(args):
    suite = _checked(f"the suite in {args.suite}", _read_json(args.suite), dict)
    base_seed = _field(suite, "seed", int, "the suite", 0)
    if base_seed < 0:
        raise InvalidInputError(f'"seed" in the suite must be >= 0, got {base_seed}')
    methods, dataset_entries = (_field(suite, key, list, "the suite", [])
                                for key in ("methods", "datasets"))
    for entry in methods + dataset_entries:
        _checked("a suite entry", entry, dict)
    names = []
    for entry in methods:
        where = f"method entry {entry}"
        method = _field(entry, "method", str, where)
        if method is None:
            raise InvalidInputError(f'method entry {entry} gives no "method"')
        _field(entry, "params", dict, where)
        names.append(_field(entry, "name", str, where, method))
    _check_unique("method", names)
    datasets = []
    for entry in dataset_entries:
        where = f"dataset entry {entry}"
        path = _field(entry, "path", str, where)
        if path is not None:  # the label column by header name or index
            ds = load_csv(path, _field(entry, "label_column", (str, int), where))
        elif entry.get("shape") is None:
            raise InvalidInputError(
                f'dataset entry {entry} gives neither "path" nor "shape"')
        else:
            ds = _generate_dataset(_field(entry, "shape", str, where),
                                   _field(entry, "n", int, where),
                                   _field(entry, "seed", int, where, 0))
        ds.name = _field(entry, "name", str, where, ds.name)
        g = _field(entry, "g", int, where)
        if ds.labels is None and g is None:
            raise InvalidInputError(f"dataset {ds.name!r} has no labels, "
                                    'so its entry must give "g"')
        g = ds.n_classes if g is None else g
        if not 1 <= g <= ds.n:  # every cell would fail on it
            raise InvalidInputError(f"dataset {ds.name!r} has g = {g}, outside [1, n = {ds.n}]")
        datasets.append((ds, g))
    _check_unique("dataset", [ds.name for ds, _ in datasets])

    # before the first cell, so an OUT_DIR that cannot be written wastes none
    os.makedirs(args.out_dir, exist_ok=True)
    cells = [(ds, g, name, entry, child_seed(base_seed, i, j))
             for i, (ds, g) in enumerate(datasets)
             for j, (name, entry) in enumerate(zip(names, methods))]
    rows = _run_cells(cells)

    csv_path = os.path.join(args.out_dir, "results.csv")
    txt_path = os.path.join(args.out_dir, "results.txt")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, RESULT_COLUMNS, restval="")
        writer.writeheader()
        writer.writerows(rows)
    _write_benchmark_table(txt_path, rows, [d.name for d, _ in datasets], names)
    print(f"wrote {csv_path} and {txt_path}")
    return 0


def _write_benchmark_table(path, rows, dataset_names, method_names):
    by_key = {(row["dataset"], row["method"]): row for row in rows}
    width = max([len(m) for m in method_names] + [14])
    name_width = max([len(d) for d in dataset_names] + [10])
    lines = ["dataset".ljust(name_width)
             + "".join(m.rjust(width + 2) for m in method_names)]
    for ds in dataset_names:
        cells = {m: by_key[ds, m] for m in method_names}
        scored = {m: [float(row[k]) for k in ("nmi", "ari", "acc")]
                  for m, row in cells.items() if "nmi" in row}
        best = max(scored, key=lambda m: scored[m][0], default=None)
        line = ds.ljust(name_width)
        for m in method_names:
            if m not in scored:
                text = "unscored" if cells[m]["status"] == "ok" else "failed"
            else:
                text = "{:.2f}/{:.2f}/{:.2f}".format(*scored[m])
                text += "*" if m == best else ""
            line += text.rjust(width + 2)
        lines.append(line)
    lines.append("")
    lines.append("cells are NMI/ARI/Acc; * marks the best NMI per row")
    parts = []
    for m in method_names:
        iters = [row["iterations"] for row in rows
                 if row["method"] == m and row["status"] == "ok"]
        if iters:
            parts.append(f"{m}: {float(np.median(iters)):g}")
    if parts:
        lines.append("median iterations - " + ", ".join(parts))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cempca",
        description="Joint clustering and embedding, with baselines and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    gen.add_argument("--shape", required=True, choices=GENERATOR_SHAPES)
    gen.add_argument("--n", type=int, default=None,
                     help="row count (defaults to the shape's standard size)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    fit = sub.add_parser("fit", help="fit one method on a CSV dataset")
    fit.add_argument("method", choices=SETTINGS)
    fit.add_argument("data", help="CSV file; a 'label' column is used for metrics")
    fit.add_argument("--g", type=int, required=True)
    # the method settings default to None: run_method fills in SETTINGS
    fit.add_argument("--p", type=int)
    fit.add_argument("--delta", type=float)
    fit.add_argument("--neighbors", type=int)
    fit.add_argument("--smooth", type=int)
    fit.add_argument("--restarts", type=int)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--max-iter", type=int,
                     help=f"iteration cap (default: {SETTINGS['cempca']['max_iter']} "
                          f"for cempca, {SETTINGS['kmeans']['max_iter']} otherwise)")
    fit.add_argument("--tol", type=float)
    fit.add_argument("--cov", choices=(*COV_MODELS, "diag"))
    fit.add_argument("--standardize", action=argparse.BooleanOptionalAction)
    fit.add_argument("--emit-embedding", metavar="PATH", default=None,
                     help="also write B and M coordinates to this CSV")
    fit.add_argument("--label-column", default=None,
                     help="name or zero-based index of the label column")
    fit.add_argument("--no-header", action="store_true")
    fit.add_argument("--out", default=None, help="write JSON here instead of stdout")
    fit.set_defaults(func=cmd_fit)

    ev = sub.add_parser("evaluate", help="score a prediction against ground truth")
    ev.add_argument("pred", help="CSV label file or fit JSON output")
    ev.add_argument("truth", help="CSV label file or fit JSON output")
    ev.set_defaults(func=cmd_evaluate)

    bench = sub.add_parser("benchmark", help="run a datasets x methods suite")
    bench.add_argument("suite", help="JSON suite configuration")
    bench.add_argument("out_dir", help="directory for results.csv and results.txt")
    bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataError, InvalidInputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # the readers raise DataError, so this is a write
        print(f"data error: cannot write {exc.filename or 'output'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
