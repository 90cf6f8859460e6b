"""Self-test of the benchmark: every workload once, at reduced size.

    python3 bench/selftest.py

For each workload, with tracing off and on, runs ``bench/run.py --small``
and checks that the last output line is the result object, that it names
exactly the metrics ``BENCHMARK.json`` lists for that mode, each with its
unit and a finite value, and that no operation failed. It then checks
that the benchmark refuses to run, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and the benchmark itself.
Exits 0 when every check holds.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).with_name("run.py")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(line, expected):
    result = json.loads(line)
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("failed") != 0 or result.get("correct") is not True:
        problems.append(f"failed={result.get('failed')} correct={result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def refuses_without_sources(spec):
    """The benchmark alone, without the library sources, must exit non-zero
    and print no result."""
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_run") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = subprocess.run(spec["command"] + ["--workload", workload, "--seed", "0",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without library sources: exit {proc.returncode}"]
    return []


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--small"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
            else:
                problems = check_result(lines[-1], expected[trace])
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
    problems = refuses_without_sources(spec)
    failures += bool(problems)
    print(f"refuses without sources: {'ok' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
