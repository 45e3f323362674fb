"""Self-test of the benchmark harness at a reduced set count.

Usage (from the repository root):

    python3 benchmarks/selftest.py [--sets N]

For every workload in BENCHMARK.json it checks that an untraced run
emits exactly the end-to-end metrics and a traced run exactly the
per-layer metrics, each with its declared unit, and that two traced runs
give identical exact counts.  It also checks that the benchmark fails,
without printing a result, in a directory holding only BENCHMARK.json
and the benchmark's own files.  Output checks are not asserted: the
physics windows hold only at the workloads' full set counts.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import EXACT_SUFFIXES, ROOT, WORK

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(spec, cwd, workload, trace, sets):
    cmd = [*spec["command"], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--sets", str(sets)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError(f"attempted {result['attempted']!r}")
    return result


def _check_metrics(result, declared) -> None:
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        raise AssertionError(f"missing {sorted(set(want) - set(got))}, "
                             f"unexpected {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(value, (int, float)):
            raise AssertionError(f"{name}: {got[name]} (want unit {unit})")


def selftest(sets: int) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    for wl in spec["workloads"]:
        name = wl["name"]
        try:
            _check_metrics(_result(_run(spec, ROOT, name, 0, sets)), spec["end_to_end"])
            first, second = (_result(_run(spec, ROOT, name, 1, sets)) for _ in range(2))
            for traced in (first, second):
                _check_metrics(traced, spec["per_layer"])
            drift = {k: (v["value"], second["metrics"][k]["value"])
                     for k, v in first["metrics"].items()
                     if k.endswith(EXACT_SUFFIXES) and v["value"] != second["metrics"][k]["value"]}
            if drift:
                raise AssertionError(f"exact counts differ between traced runs: {drift}")
            print(f"PASS {name}")
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            failures.append(name)
            print(f"FAIL {name}: {exc}")

    os.makedirs(WORK, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(spec, bare, spec["workloads"][0]["name"], 0, sets)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("bare-directory")
            print(f"FAIL bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        else:
            print("PASS bare directory fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=10)
    args = ap.parse_args()
    return 1 if selftest(args.sets) else 0


if __name__ == "__main__":
    sys.exit(main())
