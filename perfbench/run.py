"""rachopt benchmark: one command for every workload.

    python3 perfbench/run.py --workload grid-bandit --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout.  Each workload runs in three fresh
Python processes, one after another, that import rachopt from the
checkout's ``src``, with BLAS and OpenMP pinned to one thread.  Each process
sets up and checks its set-up; the last two then repeat the workload's
timed phase for half of ``--seconds`` each (at least once) and check every
output against an independent oracle.  ``setup_s`` is the median of the
three set-ups and the timings are medians over the repetitions of both
measuring processes.  A fixed calibration loop runs between these steps,
and the timings are scaled by its median time to a reference machine
speed (see ``REF_S`` and NOTES.md).

Every metric is printed as ``name value unit``; the last line of stdout is
the result as one JSON object.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json, ``--trace 1`` its per-layer metrics, the span dump and a
self-time table (the last two under ``perfbench/out/``), all from the last
process.  See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROCESSES = 3  # each sets up; setup_s is the median of the three
MEASURING = 2  # the last two also measure, for half of --seconds each
# Time of worker.calibrate() at the reference speed of the machine.  A
# run's timings are scaled by REF_S / (the median time of the loop in that
# run), so that they read as if the machine had run at that speed.
REF_S = 0.3
DEADLINE_S = 170  # the whole command, all worker processes included
WORKLOADS = ("grid-bandit", "compact-switch", "reproduce-oracle")
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
    env.update({name: "1" for name in PINNED})
    return env


def run_worker(args, proc: int, deadline: float, work: str) -> dict:
    """Process ``proc`` of the run; only the last one is traced."""
    trace = args.trace if proc == PROCESSES - 1 else 0
    seconds = args.seconds / MEASURING if proc >= PROCESSES - MEASURING else 0
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--proc", str(proc),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--size", args.size, "--out", str(OUT), "--work", work,
    ]
    if args.fault:
        cmd.append("--fault")
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"no time left for process {proc}")
    t0 = time.monotonic()
    try:
        done = subprocess.run(
            cmd + ["--t0", repr(t0)], env=worker_env(), cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=left,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"process {proc} exceeded the deadline") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"process {proc} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "commit": git_commit(),
        "threads_pinned": list(PINNED),
    }


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy shrinks every workload for the self-check")
    ap.add_argument("--fault", action="store_true",
                    help="hand the program a deliberately wrong throughput function")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def bench(args) -> dict:
    if not (ROOT / "src" / "rachopt" / "__init__.py").is_file():
        raise BenchError(f"no rachopt sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    # owned here, so that it is removed even when a worker is killed
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        workers = [run_worker(args, proc, deadline, work) for proc in range(PROCESSES)]
    last = workers[-1]
    reps = [r for w in workers for r in w["reps"]]
    setup_times = [w["setup_s"] for w in workers]
    gates = [w["gates"] for w in workers]
    attempted = sum(g["attempted"] for g in gates)
    failed = sum(g["failed"] for g in gates)
    missed = sum(g["missed"] for g in gates)

    refs = [c for w in workers for c in w["calibration_s"]]
    scale = REF_S / statistics.median(refs)
    wall = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "pulls_per_s": statistics.median(r["pulls"] / r["pull_s"] for r in reps),
    }
    values = dict(last.get("layers", {}))
    values.update(
        setup_s=wall["setup_s"] * scale,
        run_s=wall["run_s"] * scale,
        pulls_per_s=wall["pulls_per_s"] / scale,
        peak_rss_mb=max(w["peak_rss_mb"] for w in workers),
        mu_h_best_exact=statistics.fmean(r["mu_h_best_exact"] for r in reps),
        mu_h_tail=statistics.fmean(r["mu_h_tail"] for r in reps),
    )
    values["calibration.ref_s"] = statistics.median(refs)
    values["fail_frac"] = (failed + missed) / attempted
    metrics = {}
    for m in declared_metrics(args.trace):
        if m["name"] not in values:
            raise BenchError(f"workload produced no value for {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {
        "stamp": stamp(args),
        "reps": len(reps),
        "setup_s_each": setup_times,
        "run_s_each": [r["run_s"] for r in reps],
        "calibration_s_each": refs,
        "wall": wall,
        "gates": {
            "attempted": attempted, "failed": failed, "missed": missed,
            "messages": [msg for g in gates for msg in g["messages"]],
        },
        "fail_frac": values["fail_frac"],
        "selftime": last.get("selftime"),
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def report(doc: dict) -> None:
    st, g = doc["stamp"], doc["gates"]
    print(f"# rachopt benchmark: workload={st['workload']} seed={st['seed']} "
          f"seconds={st['seconds']} trace={st['trace']} reps={doc['reps']}")
    print("# " + " ".join(f"{k}={v}" for k, v in st.items() if k not in ("workload", "seed", "seconds", "trace")))
    for name, m in doc["result"]["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print("# unscaled wall-clock medians: " + " ".join(f"{k}={v:.6g}" for k, v in doc["wall"].items())
          + f"; calibration loop median {statistics.median(doc['calibration_s_each']):.4g} s, reference {REF_S} s")
    if "fail_frac" not in doc["result"]["metrics"]:
        print(f"fail_frac {doc['fail_frac']:.6g} ratio")
    print(f"# gates: {g['failed']} hard failures and {g['missed']} statistical misses "
          f"in {g['attempted']} gates")
    for msg in g["messages"]:
        print("# gate: " + msg)
    if doc["selftime"]:
        print("# self time per span (busy and self seconds per repetition / per set-up):")
        for line in doc["selftime"].splitlines():
            print("#   " + line)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        doc = bench(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.size == "toy" else "")
    (OUT / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")
    report(doc)
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
