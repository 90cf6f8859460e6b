"""Benchmark for the cempca package.

Usage, from the root of a checkout:

    python3 bench/run.py --workload acceptance --seed 0 --seconds 40 --trace 0

Workloads are defined in ``bench/workloads.py``: ``acceptance``,
``chainlink_8k`` and ``baselines_cli``. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run environment and the
per-pass figures.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(median over several fresh processes of import, data generation and a
reduced-size warm-up pass), ``pass_s`` (median seconds per timed pass),
``peak_rss_mb`` (peak RSS of the process that ran only this workload),
``nmi_mean`` (mean NMI against the generator labels over a pass's fits or
suite cells) and ``ok_ratio`` (operations that passed every check over
operations attempted; an operation is one fit or one suite cell).

With ``--trace 1`` half the time runs untraced and half traced, and the
metrics are the per-layer ones from ``bench/spans.py``, as per-pass means,
plus ``trace.overhead_s``: traced minus untraced median pass seconds.

The library is imported from ``src/`` of the checkout, never from an
installed copy. The harness sets no BLAS thread variables.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("acceptance", "chainlink_8k", "baselines_cli")
SETUP_PROBES = 2        # extra fresh processes that only set up, for the setup_s median
DEADLINE_S = 170.0      # the whole run, probes included, ends before this


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced rows and restarts, for the self-test")
    parser.add_argument("--role", choices=("main", "worker", "setup"), default="main",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cempca" / "__init__.py").is_file():
        print(f"bench: no cempca sources under {SRC}", file=sys.stderr)
        return 2
    if args.role == "main":
        return orchestrate(args)
    os.makedirs(ROOT / ".bench_run", exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_run")
    try:
        return worker(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _child(args, role, deadline):
    """Run this script in a fresh interpreter; returns its last output line as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def orchestrate(args):
    deadline = time.monotonic() + DEADLINE_S
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setup_samples = [_child(args, "setup", deadline)["setup_s"] for _ in range(probes)]
        report = _child(args, "worker", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(report["detail"]["setup_s"])
    report["detail"]["setup_samples_s"] = setup_samples
    if not args.trace:
        report["result"]["metrics"]["setup_s"]["value"] = statistics.median(setup_samples)
    print(json.dumps({"detail": report["detail"]}, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


def _measure(workload, budget):
    """Closed loop: run passes back to back while the next one is expected to
    finish within the budget; always at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + statistics.median(p.seconds for p in passes)) <= budget:
        passes.append(workload.run_pass())
    return passes


def worker(args, workdir):
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads         # imports numpy, scipy and the library
    from spans import OVERHEAD, Tracer, metric_units

    library = Path(sys.modules["cempca"].__file__).resolve().parent
    if library != SRC / "cempca":
        raise RuntimeError(f"cempca imported from {library}, not {SRC}")
    build = workloads.WORKLOADS[args.workload]
    workload = build(args.seed, args.small, workdir)
    warmup_dir = os.path.join(workdir, "warmup")
    os.makedirs(warmup_dir)
    build(args.seed, True, warmup_dir).run_pass()
    setup_s = time.perf_counter() - start
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    detail = {"workload": args.workload, "seed": args.seed, "small": args.small,
              "setup_s": setup_s, "environment": environment()}
    if args.trace:
        untraced = _measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _measure(workload, args.seconds / 2)
        finally:
            tracer.uninstall()
        values = tracer.summary(len(traced))
        values[OVERHEAD[0]] = (statistics.median(p.seconds for p in traced)
                               - statistics.median(p.seconds for p in untraced))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units().items()}
        detail["untraced_pass_s"] = [p.seconds for p in untraced]
        detail["traced_pass_s"] = [p.seconds for p in traced]
        passes = untraced + traced
    else:
        passes = _measure(workload, args.seconds)
        detail["pass_s"] = [p.seconds for p in passes]

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    if not args.trace:
        metrics = end_to_end(passes, setup_s, attempted, len(failures))
    for line in dict.fromkeys(failures):
        print(f"bench: check failed: {line}", file=sys.stderr)
    detail["passes"] = len(passes)
    detail["fingerprints"] = passes[-1].fingerprints
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps({"detail": detail, "result": result}))
    return 0


def end_to_end(passes, setup_s, attempted, failed):
    nmis = [v for p in passes for v in p.nmis]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": statistics.median(p.seconds for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "nmi_mean": {"value": statistics.fmean(nmis) if nmis else 0.0, "unit": "nmi"},
        "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
    }


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "CEMPCA_THREADS") if k in os.environ},
    }


def blas_threads():
    """Thread count in effect for each loaded OpenBLAS, read through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads


if __name__ == "__main__":
    sys.exit(main())
