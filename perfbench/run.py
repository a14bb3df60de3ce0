"""niepkit benchmark: one closed-loop client driving the public API and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root; the library is imported from ``src/`` (the
working tree), never from an installed copy.  Each invocation runs one
workload in a fresh child process (``workload.py``) with BLAS on one thread.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced run.  The line before it is a report with the
environment, the input-property shares, the error rate, the tail
percentile used, the raw wall-clock figures and the calibration kernel's
times, the oracle's false rejections on the untimed defective-eigenvalue
probe and, when traced, the tracer's accounting.  Both are also written to
``perfbench/out/``.

``ops_per_s`` and the latencies are scaled to a reference host speed by a
calibration kernel run between operations (``workload.KERNEL_REF_S``).

``setup_s`` is the median, over the measured child and ``SETUP_PROBES``
extra children that stop before their first timed operation, of the time
from process start to the first timed operation.

Workloads, the metric list and what each layer metric should move are in
``BENCHMARK.json`` and ``metrics.py``; pool references are recorded by
``record.py``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, LAYER_MOVES, PER_LAYER  # noqa: E402

WORKLOADS = ("search", "verify_dense")
SETUP_PROBES = 4
#: Whole-invocation budget; every child is killed and reaped before it.
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("NIEPKIT_LOG", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload, seed, seconds, extra, deadline):
    spawned = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--spawned", repr(spawned), *extra,
    ]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} child failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """HEAD of the checkout read from ``.git``, or None outside a repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "niepkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "seed": seed,
        "machine": platform.machine(),
    }


def run_workload(workload, seed, seconds, trace, small=False):
    """Return ``(report, final)`` for one invocation."""
    deadline = time.monotonic() + DEADLINE_S
    extra = ["--small"] if small else []
    report = {"workload": workload, "environment": environment(seed), "trace": trace,
              "layer_moves": LAYER_MOVES}
    if trace:
        res = spawn(workload, seed, seconds, extra + ["--trace"], deadline)
        values = res["layers"]
        units = PER_LAYER
        report.update(
            tracing_overhead=values["trace.overhead_ratio"],
            accounting=res["accounting"],
            spans_file=res["spans_file"],
            untraced=res["untraced"],
            traced=res["traced"],
            defective_probe=res["defective_probe"],
        )
    else:
        res = spawn(workload, seed, seconds, extra, deadline)
        setups = [res["setup_s"]]
        for _ in range(SETUP_PROBES):
            setups.append(spawn(workload, seed, seconds, extra + ["--setup-only"], deadline)["setup_s"])
        values = {
            "ops_per_s": res["ops_per_s"],
            "latency_p50_ms": res["latency_p50_ms"],
            "latency_tail_ms": res["latency_tail_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
        report.update({k: v for k, v in res.items() if k not in values and k != "ready"})
        report["setup_samples_s"] = setups
    final = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    return report, final


def _require(ok, what):
    if not ok:
        raise BenchError(f"self-check failed: {what}")


def self_check():
    """Short run of every workload in both modes, checking the contract:
    every named metric with its unit, correct outputs, and the tracer's
    accounting.  Children nest inside their parent and siblings do not
    overlap, so every self time is nonnegative and the self times of all
    layers add up to the root spans, which fit inside the traced wall time
    (the rest is the harness between operations)."""
    import numpy as np

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    _require([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload list")
    _require(want[0] == END_TO_END and want[1] == PER_LAYER, "metric list")
    for workload in WORKLOADS:
        for trace in (0, 1):
            report, final = run_workload(workload, 0, 0.5, trace, small=True)
            where = f"{workload} trace={trace}"
            got = {k: v["unit"] for k, v in final["metrics"].items()}
            _require(got == want[trace], f"{where}: metrics {got}")
            _require(all(math.isfinite(v["value"]) for v in final["metrics"].values()),
                     f"{where}: non-finite metric")
            _require(final["correct"] and final["attempted"] >= 1, f"{where}: {report}")
            if trace:
                acc = report["accounting"]
                with np.load(ROOT / report["spans_file"]) as spans:
                    parent, start, end = spans["parent"], spans["start"], spans["end"]
                child = parent >= 0
                _require(np.all(start[child] >= start[parent[child]])
                         and np.all(end[child] <= end[parent[child]]), f"{where}: nesting")
                order = np.lexsort((np.arange(parent.size), parent))
                same = parent[order][1:] == parent[order][:-1]
                _require(np.all(start[order][1:][same] >= end[order][:-1][same]),
                         f"{where}: overlapping siblings")
                _require(math.isclose(acc["self_sum_s"], acc["root_span_s"],
                                      rel_tol=1e-9, abs_tol=1e-9), f"{where}: self-time sum")
                _require(acc["root_span_s"] <= acc["traced_wall_s"], f"{where}: wall time")
            print(f"self-check {where}: ok", flush=True)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "niepkit" / "__init__.py").is_file():
        print(f"niepkit sources not found under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.self_check:
        ap.error("--workload is required")
    try:
        if args.self_check:
            return self_check()
        report, final = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"report": report, "result": final}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
