"""Command-line surface: dataset generation, fitting, evaluation, benchmarks.

SETTINGS is the one statement of which settings each method reads, under the
names `cempca fit` flags and suite params use, and of their defaults;
run_method resolves every fit against it and rejects keys it does not list.
_load_data is the one CSV loader: a column headed `label` holds the labels
unless another column is named.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
A benchmark runs its cells one after another, in suite order.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from .baselines import kmeans_pca, reduced_kmeans
from .cempca import CempcaConfig, fit_cempca
from .data import (FCPS_SHAPES, gen_chang, gen_fcps, load_csv, save_csv,
                   standardize)
from .errors import NUMERICAL_ERRORS, CempcaError, DataError, InvalidInputError
from .metrics import accuracy, ari, nmi
from .mixture import cem, em_gmm, kmeans

# Method -> {setting: default}. p=None means the smaller of 10 and d.
_MIXTURE = {"restarts": 20, "max_iter": 100, "tol": 1e-6, "standardize": True}
SETTINGS = {
    "cempca": {"p": CempcaConfig.p, "delta": CempcaConfig.delta,
               "neighbors": CempcaConfig.neighbors, "smooth": CempcaConfig.smoothing,
               "restarts": CempcaConfig.restarts, "max_iter": CempcaConfig.max_iter,
               "tol": CempcaConfig.tol, "cov": CempcaConfig.model,
               "standardize": CempcaConfig.standardize},
    "em-gmm": {**_MIXTURE, "cov": "full"},
    "cem": {**_MIXTURE, "cov": "full"},
    "kmeans": _MIXTURE,
    "kmeans-pca": {**_MIXTURE, "p": None},
    "reduced-kmeans": {**_MIXTURE, "p": None},
}
GENERATOR_SHAPES = ("chang",) + FCPS_SHAPES

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_DATA_ERRORS = (DataError, InvalidInputError)


@dataclasses.dataclass
class RunRecord:
    """One fitted method on one dataset, with everything needed to replay it."""

    method: str
    dataset: str
    config: dict
    seed: int
    metrics: dict
    iterations: int
    wall_time: float
    objective_final: float
    failed_restarts: int


def _generate_dataset(shape, n, seed):
    if shape == "chang":
        return gen_chang(n=n if n is not None else 1000, seed=seed)
    return gen_fcps(shape, n=n, seed=seed)


def _load_data(path, label_column=None, has_header=True):
    """Load a CSV dataset whose `label` column, if any, holds the labels.

    label_column names another column, by header name or zero-based index
    (an int or a string of digits). has_header=None takes the first row as
    a header when any of its cells is not a number.
    """
    try:
        with open(path, newline="") as fh:
            first = [c.strip() for c in next(csv.reader(fh), [])]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if has_header is None:
        has_header = not all(_is_number(c) for c in first)
    if label_column is None and has_header and "label" in first:
        label_column = "label"
    elif isinstance(label_column, str) and label_column.lstrip("-").isdigit():
        label_column = int(label_column)
    return load_csv(path, label_column=label_column, has_header=has_header)


def _is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def run_method(method, dataset, config, seed):
    """Fit one method on one dataset; returns (RunRecord, FitResult).

    config holds "g" and any of the method's SETTINGS; the rest take their
    defaults, and a key the method does not read raises InvalidInputError.
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
    model = "diagonal" if s.get("cov") == "diag" else s.get("cov")

    if method == "cempca":
        cfg = CempcaConfig(g=g, p=s["p"], delta=s["delta"], neighbors=s["neighbors"],
                           smoothing=s["smooth"], restarts=s["restarts"],
                           max_iter=s["max_iter"], tol=s["tol"], model=model,
                           standardize=s["standardize"])
        result = fit_cempca(dataset.X, cfg, seed=seed)
    else:
        X = dataset.X
        Xf = standardize(X) if s["standardize"] else np.asarray(X, dtype=float)
        common = dict(max_iter=s["max_iter"], tol=s["tol"], restarts=s["restarts"],
                      seed=seed)
        if method == "em-gmm":
            result = em_gmm(Xf, g, model=model, **common)
        elif method == "cem":
            result = cem(Xf, g, model=model, **common)
        elif method == "kmeans":
            result = kmeans(Xf, g, **common)
        else:
            p = s["p"] if s["p"] is not None else min(10, Xf.shape[1])
            fit = kmeans_pca if method == "kmeans-pca" else reduced_kmeans
            result = fit(Xf, g, p, **common)

    scores = {}
    if dataset.labels is not None:
        pred = result.partition.assignments
        scores = {"acc": accuracy(dataset.labels, pred),
                  "nmi": nmi(dataset.labels, pred),
                  "ari": ari(dataset.labels, pred)}
    record = RunRecord(method=method, dataset=dataset.name,
                       config={"g": g, "seed": seed, **s},
                       seed=seed, metrics=scores, iterations=result.iterations,
                       wall_time=result.wall_time,
                       objective_final=float(result.objective_trace[-1]),
                       failed_restarts=len(result.failed_restarts))
    return record, result


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
    dataset = _load_data(args.data, args.label_column, not args.no_header)
    config = {key: getattr(args, key) for key in SETTINGS[args.method]
              if getattr(args, key) is not None}
    record, result = run_method(args.method, dataset, {"g": args.g, **config},
                                args.seed)
    if args.emit_embedding:
        if result.bundle is None:
            print(f"method {args.method} produces no embedding", file=sys.stderr)
            return EXIT_USAGE
        _write_embedding(args.emit_embedding, result.bundle)
    payload = dataclasses.asdict(record)
    payload["assignments"] = [int(a) for a in result.partition.assignments]
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _read_labels(path):
    if str(path).endswith(".json"):
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from None
        if "assignments" not in payload:
            raise DataError(f"{path} has no 'assignments' field")
        return np.asarray(payload["assignments"], dtype=int)
    ds = _load_data(path, has_header=None)
    if ds.labels is not None:
        return ds.labels
    if ds.d != 1:
        raise DataError(f"{path} has {ds.d} columns; expected a single label "
                        "column or a 'label' header")
    seen = {}
    return np.asarray([seen.setdefault(v, len(seen)) for v in ds.X[:, 0]], dtype=int)


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


def _suite_cell_seed(base_seed, i, j):
    return int(np.random.SeedSequence(entropy=int(base_seed),
                                      spawn_key=(int(i), int(j))).generate_state(1)[0])


def _benchmark_cell(cell):
    dataset, method_name, method, params, seed = cell
    try:
        record, _ = run_method(method, dataset, params, seed)
        return {"dataset": dataset.name, "method": method_name, "seed": seed,
                "status": "ok", "record": record}
    except CempcaError as exc:
        return {"dataset": dataset.name, "method": method_name, "seed": seed,
                "status": "failed", "error": str(exc)}


def cmd_benchmark(args):
    try:
        with open(args.suite) as fh:
            suite = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {args.suite}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{args.suite} is not valid JSON: {exc}") from None

    base_seed = int(suite.get("seed", 0))
    datasets = []
    for entry in suite.get("datasets", []):
        if "path" in entry:
            ds = _load_data(entry["path"], entry.get("label_column"))
        else:
            ds = _generate_dataset(entry["shape"], entry.get("n"),
                                   entry.get("seed", 0))
        ds.name = entry.get("name", ds.name)
        if ds.labels is None and "g" not in entry:
            raise InvalidInputError(f"dataset {ds.name!r} has no labels, "
                                    'so its entry must give "g"')
        datasets.append((ds, entry.get("g", ds.n_classes)))
    methods = suite.get("methods", [])

    cells = []
    for i, (ds, g) in enumerate(datasets):
        for j, entry in enumerate(methods):
            params = dict(entry.get("params", {}))
            params.setdefault("g", g)
            cells.append((ds, entry.get("name", entry["method"]), entry["method"],
                          params, _suite_cell_seed(base_seed, i, j)))

    outcomes = [_benchmark_cell(cell) for cell in cells]

    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "results.csv")
    txt_path = os.path.join(args.out_dir, "results.txt")
    _write_benchmark_csv(csv_path, outcomes)
    _write_benchmark_table(txt_path, outcomes,
                           [d.name for d, _ in datasets],
                           [m.get("name", m["method"]) for m in methods])
    print(f"wrote {csv_path} and {txt_path}")
    return 0


def _write_benchmark_csv(path, outcomes):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "method", "seed", "status", "nmi", "ari",
                         "acc", "iterations", "wall_time", "objective_final",
                         "failed_restarts", "error"])
        for cell in outcomes:
            if cell["status"] == "ok":
                rec = cell["record"]
                m = rec.metrics
                writer.writerow([cell["dataset"], cell["method"], cell["seed"],
                                 "ok",
                                 _fmt(m.get("nmi")), _fmt(m.get("ari")),
                                 _fmt(m.get("acc")), rec.iterations,
                                 f"{rec.wall_time:.6f}",
                                 repr(rec.objective_final), rec.failed_restarts,
                                 ""])
            else:
                writer.writerow([cell["dataset"], cell["method"], cell["seed"],
                                 "failed", "", "", "", "", "", "", "",
                                 cell["error"]])


def _fmt(value):
    return "" if value is None else repr(float(value))


def _write_benchmark_table(path, outcomes, dataset_names, method_names):
    by_key = {(c["dataset"], c["method"]): c for c in outcomes}
    lines = []
    width = max([len(m) for m in method_names] + [14])
    name_width = max([len(d) for d in dataset_names] + [10])
    header = "dataset".ljust(name_width) + "".join(
        m.rjust(width + 2) for m in method_names)
    lines.append(header)
    for ds in dataset_names:
        cells = []
        best = None
        for m in method_names:
            cell = by_key.get((ds, m))
            if cell is None or cell["status"] != "ok" or not cell["record"].metrics:
                cells.append(None)
                continue
            met = cell["record"].metrics
            cells.append((met["nmi"], met["ari"], met["acc"]))
            if best is None or met["nmi"] > best[0]:
                best = (met["nmi"], m)
        row = ds.ljust(name_width)
        for m, cell in zip(method_names, cells):
            if cell is None:
                row += "failed".rjust(width + 2)
            else:
                text = f"{cell[0]:.2f}/{cell[1]:.2f}/{cell[2]:.2f}"
                if best is not None and m == best[1]:
                    text += "*"
                row += text.rjust(width + 2)
        lines.append(row)
    lines.append("")
    lines.append("cells are NMI/ARI/Acc; * marks the best NMI per row")
    iter_summary = _iteration_summary(outcomes, method_names)
    if iter_summary:
        lines.append(iter_summary)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _iteration_summary(outcomes, method_names):
    parts = []
    for m in method_names:
        iters = [c["record"].iterations for c in outcomes
                 if c["method"] == m and c["status"] == "ok"]
        if iters:
            parts.append(f"{m}: {float(np.median(iters)):g}")
    return "median iterations - " + ", ".join(parts) if parts else ""


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
    fit.add_argument("--cov", choices=("full", "diag", "spherical", "spherical-tied"))
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
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
