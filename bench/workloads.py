"""The benchmark's workloads and the checks run on every pass.

Each workload runs as a closed loop: one caller, and a pass starts only
after the previous one returned. Inputs are generated once, during set-up;
a pass only calls the library and is timed from outside it. Checks run
after the timed call.

The data are the release gate's (``tests/test_acceptance.py``: FCPS shapes
from data seed 11, chang from data seed 5). The workload seed ``s`` draws
the fits: fit seeds ``1 + s`` (``3 + s`` for chang) and suite seed ``1 + s``,
so ``s = 0`` reproduces the gate exactly. Fixing the data keeps the work per
pass steady across seeds: across data seeds, the work of a
``baselines_cli`` pass varies by about a fifth, and chainlink at n=1000
scores NMI from 0.86 to 0.99 (under 0.90 on 4 of 60 data seeds).

At full size every fit is held to the gate's quality floors (FCPS NMI 0.90,
chang accuracy 0.99); at the default seed, also to the assignments (for
suite cells, the scores) pinned in ``reference.json``. ``small=True``
shrinks every workload (fewer rows and restarts) for the warm-up during
set-up and for the self-test, where neither applies.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from cempca import cli
from cempca import cempca as core
from cempca.data import FCPS_CLASS_COUNTS, FCPS_DEFAULT_SIZES, gen_chang, gen_fcps

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
RESTARTS = 20
SMALL_RESTARTS = 2
FCPS_DATA_SEED = 11
CHANG_DATA_SEED = 5
FCPS_NMI_FLOOR = 0.90
CHANG_ACC_FLOOR = 0.99
BASELINE_METHODS = (
    ("kmeans", {}), ("em-gmm", {}), ("cem", {}),
    ("kmeans-pca", {"p": 2}), ("reduced-kmeans", {"p": 2}),
)


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failures: list = field(default_factory=list)
    nmis: list = field(default_factory=list)
    # what the default-seed reference pins: an assignment digest per fit,
    # or the NMI/ARI/accuracy text per suite cell
    fingerprints: dict = field(default_factory=dict)


@dataclass
class FitJob:
    name: str
    X: np.ndarray
    labels: np.ndarray
    cfg: core.CempcaConfig
    seed: int
    floor: tuple = None          # (score name, minimum) checked at full size


def digest(assignments):
    data = np.ascontiguousarray(assignments, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


# The checks score fits with their own NMI and accuracy rather than
# cempca.metrics: a broken library metric must not pass its own check, and
# the harness's scoring must not show up in the metrics.* spans.


def nmi(truth, pred):
    """NMI with geometric normalization and natural logs, as cempca.metrics.nmi."""
    _, t = np.unique(truth, return_inverse=True)
    _, p = np.unique(pred, return_inverse=True)
    counts = np.zeros((t.max() + 1, p.max() + 1))
    np.add.at(counts, (t, p), 1.0)
    joint = counts / len(t)
    pt, pp = counts.sum(axis=1) / len(t), counts.sum(axis=0) / len(t)
    nz = joint > 0
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(pt, pp)[nz])))
    ht = -float(np.sum(pt * np.log(pt)))
    hp = -float(np.sum(pp * np.log(pp)))
    return mi / np.sqrt(ht * hp) if ht > 0 and hp > 0 else 0.0


def accuracy(truth, pred):
    """Fraction of rows agreeing under the best one-to-one label matching."""
    size = max(truth.max(), pred.max()) + 1
    table = np.zeros((size, size))
    np.add.at(table, (truth, pred), 1.0)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum() / len(truth))


def _reference(workload, seed, small):
    """The pinned fingerprints at the default seed and full size, else None."""
    if seed != DEFAULT_SEED or small:
        return None
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(workload, {})


class FitWorkload:
    """A pass is one fit_cempca call per job, in order."""

    def __init__(self, name, jobs, seed, small):
        self.jobs = jobs
        self.small = small
        self.reference = _reference(name, seed, small)

    def run_pass(self):
        outcomes = []
        start = time.perf_counter()
        for job in self.jobs:
            try:
                outcomes.append(core.fit_cempca(job.X, job.cfg, seed=job.seed))
            except Exception as exc:
                outcomes.append(exc)
        result = PassResult(seconds=time.perf_counter() - start,
                            attempted=len(self.jobs))
        for job, out in zip(self.jobs, outcomes):
            problem = self._check(job, out, result)
            if problem:
                result.failures.append(f"{job.name}: {problem}")
        return result

    def _check(self, job, out, result):
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
        pred = np.asarray(out.partition.assignments)
        score = {"nmi": nmi(job.labels, pred), "acc": accuracy(job.labels, pred)}
        result.nmis.append(score["nmi"])
        fingerprint = result.fingerprints[job.name] = digest(pred)
        trace = out.objective_trace
        if any(b > a for a, b in zip(trace, trace[1:])):
            return f"objective trace increases: {trace}"
        if job.floor and not self.small:
            metric, minimum = job.floor
            if score[metric] < minimum:
                return f"{metric} {score[metric]:.4f} below floor {minimum}"
        if self.reference is not None and self.reference.get(job.name) != fingerprint:
            return (f"assignments differ from the reference "
                    f"({fingerprint} != {self.reference.get(job.name)})")
        return None


def acceptance(seed, small, workdir):
    """The six release-gate fits: five FCPS shapes and chang (p=15, no smoothing)."""
    restarts = SMALL_RESTARTS if small else RESTARTS
    jobs = []
    for shape, n in FCPS_DEFAULT_SIZES.items():
        ds = gen_fcps(shape, 100 if small else n, seed=FCPS_DATA_SEED)
        jobs.append(FitJob(shape, ds.X, ds.labels,
                           core.CempcaConfig(g=FCPS_CLASS_COUNTS[shape], restarts=restarts),
                           1 + seed, ("nmi", FCPS_NMI_FLOOR)))
    ds = gen_chang(200 if small else 1000, seed=CHANG_DATA_SEED)
    jobs.append(FitJob("chang", ds.X, ds.labels,
                       core.CempcaConfig(g=2, p=15, smoothing=0, restarts=restarts),
                       3 + seed, ("acc", CHANG_ACC_FLOOR)))
    return FitWorkload("acceptance", jobs, seed, small)


def chainlink_8k(seed, small, workdir):
    """One default fit on chainlink with 8000 rows, where the dense graph dominates."""
    ds = gen_fcps("chainlink", 1000 if small else 8000, seed=FCPS_DATA_SEED)
    cfg = core.CempcaConfig(g=2, restarts=SMALL_RESTARTS if small else RESTARTS)
    return FitWorkload("chainlink_8k", [FitJob("chainlink", ds.X, ds.labels, cfg, 1 + seed)],
                       seed, small)


class SuiteWorkload:
    """A pass is one in-process ``cempca benchmark`` run over a fixed suite."""

    def __init__(self, suite, workdir, seed, small):
        self.suite_path = os.path.join(workdir, "suite.json")
        self.out_dir = os.path.join(workdir, "results")
        with open(self.suite_path, "w") as fh:
            json.dump(suite, fh, indent=2)
        self.cells = [(d["name"], m["name"]) for d in suite["datasets"]
                      for m in suite["methods"]]
        self.reference = _reference("baselines_cli", seed, small)

    def run_pass(self):
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["benchmark", self.suite_path, self.out_dir])
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        result = PassResult(seconds=time.perf_counter() - start,
                            attempted=len(self.cells))
        if code != 0:
            result.failures = [f"cempca benchmark exited with {code}"] * len(self.cells)
            return result
        with open(os.path.join(self.out_dir, "results.csv"), newline="") as fh:
            rows = {(r["dataset"], r["method"]): r for r in csv.DictReader(fh)}
        os.remove(os.path.join(self.out_dir, "results.csv"))
        for cell in self.cells:
            problem = self._check(rows.get(cell), cell, result)
            if problem:
                result.failures.append(f"{'/'.join(cell)}: {problem}")
        return result

    def _check(self, row, cell, result):
        if row is None:
            return "missing from results.csv"
        if row["status"] != "ok":
            return f"status {row['status']}"
        key = "/".join(cell)
        result.nmis.append(float(row["nmi"]))
        fingerprint = result.fingerprints[key] = " ".join(row[k] for k in ("nmi", "ari", "acc"))
        if self.reference is not None and self.reference.get(key) != fingerprint:
            return (f"scores differ from the reference "
                    f"({fingerprint!r} != {self.reference.get(key)!r})")
        return None


def baselines_cli(seed, small, workdir):
    """chang, hepta and tetra crossed with the five non-joint methods via the CLI."""
    restarts = SMALL_RESTARTS if small else RESTARTS
    suite = {
        "seed": 1 + seed,
        "datasets": [
            {"name": "chang", "shape": "chang", "n": 200 if small else 1000,
             "seed": CHANG_DATA_SEED},
            {"name": "hepta", "shape": "hepta", "seed": FCPS_DATA_SEED},
            {"name": "tetra", "shape": "tetra", "n": 100 if small else 400,
             "seed": FCPS_DATA_SEED},
        ],
        "methods": [{"name": name, "method": name, "params": {**params, "restarts": restarts}}
                    for name, params in BASELINE_METHODS],
    }
    return SuiteWorkload(suite, workdir, seed, small)


WORKLOADS = {"acceptance": acceptance, "chainlink_8k": chainlink_8k,
             "baselines_cli": baselines_cli}
