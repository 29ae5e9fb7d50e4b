"""Fast self-check of the benchmark, every workload at toy size.

    python3 perfbench/selfcheck.py

For each workload it runs ``run.py`` with ``--trace 0`` and ``--trace 1`` and
asserts that every metric BENCHMARK.json names is printed, as a text line
and in the final JSON, with its unit.  It then hands the program a
deliberately wrong throughput function (``--fault``: high and low class
swapped) and asserts that the run still completes, with a higher fail_frac
than the healthy run.  Toy runs repeat their timed phase exactly once in
each of the run's two measuring processes, so both runs see the same seeds.
Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-bandit", "compact-switch", "reproduce-oracle")


def bench(workload: str, trace: int, fault: bool = False) -> tuple[list[str], dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
        "--seconds", "1", "--trace", str(trace), "--size", "toy",
    ]
    if fault:
        cmd.append("--fault")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def fail_frac(lines: list[str]) -> float:
    for line in lines:
        if line.startswith("fail_frac "):
            return float(line.split()[1])
    raise AssertionError("fail_frac is not printed")


def check_names(lines: list[str], result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            printed[parts[0]] = parts[2]
    names = [m["name"] for m in declared]
    assert sorted(result["metrics"]) == sorted(names), sorted(set(names) ^ set(result["metrics"]))
    for m in declared:
        assert printed.get(m["name"]) == m["unit"], f"{m['name']} not printed with {m['unit']}"
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float)), m["name"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        lines, result = bench(workload, 0)
        check_names(lines, result, spec["end_to_end"])
        assert result["correct"] and result["failed"] == 0, (workload, result)
        healthy = fail_frac(lines)
        lines, result = bench(workload, 1)
        check_names(lines, result, spec["per_layer"])
        lines, result = bench(workload, 0, fault=True)
        faulty = fail_frac(lines)
        assert faulty > healthy, f"{workload}: fail_frac {faulty} with the fault, {healthy} without"
        print(f"{workload}: names and units ok; fail_frac {healthy:.3f} healthy, {faulty:.3f} with the fault")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
