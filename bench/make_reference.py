"""Rewrite bench/reference.json from one default-seed, full-size pass of
every workload.

    python3 bench/make_reference.py

The reference pins the assignments the gate expects, so rewrite it only in
a change meant to alter results, and say so there. Refuses to write when a
pass fails a check other than the comparison with the old reference.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    reference = {}
    failures = []
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_run") as workdir:
        for name, build in workloads.WORKLOADS.items():
            workload = build(workloads.DEFAULT_SEED, False, workdir)
            workload.reference = None
            result = workload.run_pass()
            failures += [f"{name}: {line}" for line in result.failures]
            reference[name] = result.fingerprints
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
