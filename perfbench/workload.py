"""One workload in its own process: set up, measure, check every output.

``run.py`` starts this file; it prints one JSON object on its last stdout
line.  Modes:

* ``--setup-only``: import, generate inputs and warm up, then report when
  the first timed operation would have started.
* default: measure untraced for ``--seconds``.
* ``--trace``: measure untraced for half of ``--seconds``, then install the
  tracer and measure the other half; report per-layer metrics.

Operations run in rounds.  A round holds one operation of every input
class, in a fixed order, so every run sees the same mix; measuring stops
at the end of the first round that ends after the time is up and after
enough operations to leave ten samples beyond the workload's tail
percentile.

A workload may also name probe operations: builds with defective
eigenvalues, on which the oracle is known to reject correct matrices.
They are not timed; after measuring, each runs once, and the oracle's
false rejections are reported as measured (``defective_probe``).  The
seed fixes the probe's inputs, so its counts are the same on every run.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT = HERE / "out"

#: Failure class of an oracle rejection of a construction that the
#: independent trace-power check accepts.  In the probe it is the oracle's
#: known weakness on defective eigenvalues and leaves ``correct`` true;
#: in a timed operation it is a failure like any other.
FALSE_REJECT = "oracle_false_reject"


class Op:
    """One operation: ``run`` is timed, ``check`` inspects its result after
    the clock stops and returns ``(failure or None, residual_over_tol)``."""

    __slots__ = ("label", "props", "run", "check")

    def __init__(self, label, props, run, check):
        self.label, self.props, self.run, self.check = label, props, run, check


def _library():
    sys.path.insert(0, str(SRC))
    import niepkit

    return niepkit


def trace_power_mismatch(M, expected, powers=3, rtol=1e-8):
    """Independent spectrum check: ``tr(M^k) == sum(lam^k)`` for small k.

    Power sums are stable on defective matrices, unlike computed
    eigenvalues, so this separates an oracle false reject from a wrong build.
    """
    P = np.eye(M.shape[0])
    for k in range(1, powers + 1):
        P = P @ M
        want = np.sum(expected**k)
        scale = np.sum(np.abs(expected) ** k) + 1.0
        if abs(np.trace(P) - want) > rtol * scale:
            return True
    return False


def oracle_verdict(match, M, expected, tol):
    """Failure class and residual ratio for an oracle check of a build."""
    residual = match.max_pair_distance / tol
    if match.matched:
        return None, residual
    if np.min(M) < 0 or trace_power_mismatch(M, expected):
        return "wrong_construction", residual
    return FALSE_REJECT, residual


def permutative(M, tol=1e-9):
    base = np.sort(M[0])
    return bool(np.all(np.abs(np.sort(M, axis=1) - base) <= tol * max(1.0, np.max(np.abs(M)))))


def load_references():
    with open(HERE / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


def class_key(n, bordered):
    return f"{n}{'b' if bordered else 'e'}"


# ---------------------------------------------------------------- search


#: n = 5..8, even and bordered, except bordered n = 8: a bordered hit takes
#: ~2.3 s and a bordered miss ~9 s, so a round holding one would last so
#: long that a run averages too few rounds over the host's speed swings.
SEARCH_CLASSES = [(5, False), (5, True), (6, False), (6, True), (7, False), (7, True), (8, False)]
#: (n, zero tail) of the Brauer operations in each round.
BRAUER_CLASSES = [(5, False), (6, True), (7, False)]
POOL_VARIANTS = 32


def search_workload(rng, small, workdir):
    """Per round: a satisfiable and an unsatisfiable pair of every class,
    then the Brauer builds.  Hits stop at their first witness; misses scan
    every reordering pair.  Returns ``(pools, probe)``; there is no probe."""
    nk = _library()
    refs = load_references()
    classes = [c for c in SEARCH_CLASSES if not small or c[0] <= 6]
    pools = []
    for pool_name in ("search_hit", "search_miss"):
        hit = pool_name == "search_hit"
        for n, bordered in classes:
            entries = refs[pool_name][class_key(n, bordered)]
            pool = []
            for idx in rng.permutation(len(entries)):
                entry = entries[idx]
                lam, ups = inputs.search_pair(pool_name, n, bordered, entry["index"])
                pair = nk.SpectrumPair(tuple(lam), tuple(ups), gamma=1.0)
                props = {"n": n, "bordered": bordered, "satisfiable": hit, "spectrum": "distinct"}
                pool.append(_hit_op(nk, pair, lam, ups, entry, props) if hit
                            else _miss_op(nk, pair, props))
            pools.append(pool)
    for n, zero_tail in BRAUER_CLASSES:
        if not small or n <= 6:
            pools.append([_brauer_op(nk, rng, n, zero_tail) for _ in range(POOL_VARIANTS)])
    return pools, []


def _hit_op(nk, pair, lam, ups, ref, props):
    expected = np.concatenate([lam, pair.gamma * ups])
    tol = inputs.tolerance(expected)

    def run():
        report = nk.check_conditions(pair)
        if not report.satisfied:
            return report, None, None
        M = nk.build_from_witness(pair, report.witness)
        return report, M, nk.match_spectra(nk.spectrum(M), expected, tol)

    def check(result):
        report, M, match = result
        if not report.satisfied:
            return "wrong_verdict", None
        w = report.witness
        if list(w.alpha.mapping) != ref["alpha"] or list(w.beta.mapping) != ref["beta"]:
            return "witness_differs", None
        return oracle_verdict(match, M, expected, tol)

    return Op(f"hit_{class_key(props['n'], props['bordered'])}", props, run, check)


def _miss_op(nk, pair, props):
    def run():
        return nk.check_conditions(pair)

    def check(report):
        return ("wrong_verdict" if report.satisfied or report.witness is not None else None), None

    return Op(f"miss_{class_key(props['n'], props['bordered'])}", props, run, check)


def _brauer_op(nk, rng, n, zero_tail):
    ups, tail, rho, gamma, sign = inputs.brauer_input(rng, n, zero_tail)
    expected = np.concatenate([[complex(rho)], tail, sign * gamma * ups])
    tol = inputs.tolerance(expected)

    def run():
        M = nk.brauer_augment(ups, tail, rho, gamma=gamma, sign=sign)
        return M, nk.match_spectra(nk.spectrum(M), expected, tol)

    def check(result):
        M, match = result
        if zero_tail and not permutative(M):
            return "not_permutative", None
        return oracle_verdict(match, M, expected, tol)

    props = {"n": n, "bordered": True, "satisfiable": True, "spectrum": "distinct"}
    return Op(f"brauer_{n}{'z' if zero_tail else 'r'}", props, run, check)


# ---------------------------------------------------------------- verify_dense


#: (kind, size, Jordan block) per round: even and bordered builds up to
#: matrix order 64, both 4x4 routes and one symmetric build whose
#: eigenvalues repeat.  One CLI call (``_cli_ops``) follows them.
VERIFY_CLASSES = [
    ("circ_skew", 4, 0), ("circ_skew", 8, 0), ("circ_skew", 16, 0), ("circ_skew", 32, 0),
    ("odd", 3, 0), ("odd", 7, 0), ("odd", 15, 0), ("odd", 31, 0),
    ("region", 2, 0), ("four", 2, 0),
    ("repeated", 16, 0),
]
#: Builds with a defective eigenvalue (Jordan block of size 2, 3, 4), run
#: once each after measuring.  The oracle rejects some of these correct
#: builds (on 40 seeds: 0.4% of size 2, 57% of size 3, 85% of size 4), so
#: in the timed rounds they would make operations fail.
DEFECTIVE_CLASSES = [("defective", 4, 2), ("defective", 6, 3), ("defective", 8, 4)]


def verify_workload(rng, small, workdir):
    """Returns ``(pools, probe)``: the timed classes plus the CLI calls, and
    ``POOL_VARIANTS`` defective builds of every Jordan block size."""
    nk = _library()
    classes = [c for c in VERIFY_CLASSES if not small or c[1] <= 8]
    pools = [[_verify_op(nk, rng, *cls) for _ in range(POOL_VARIANTS)] for cls in classes]
    probe = [_verify_op(nk, rng, *cls) for cls in DEFECTIVE_CLASSES for _ in range(POOL_VARIANTS)]
    return pools + _cli_ops(rng, workdir), probe


def _spec(nk, rng):
    return nk.BlockBuildSpec(gamma=float(rng.uniform(0.5, 1.0)), sign=int(rng.choice([1, -1])))


def _verify_op(nk, rng, kind, size, jordan):
    props = {"bordered": kind == "odd", "satisfiable": True, "spectrum": "distinct"}
    want_perm = kind in ("circ_skew", "repeated", "region", "four")
    forward_ref = None
    if kind in ("circ_skew", "odd", "repeated"):
        s, c = inputs.block_rows(rng, size, kind == "odd", symmetric=kind == "repeated")
        spec = _spec(nk, rng)
        g = spec.signed_gamma
        forward_ref = np.concatenate([inputs.circulant_spectrum(s), g * inputs.skew_spectrum(c)])
        props["order"] = 2 * size + (kind == "odd")
        if kind == "repeated":
            props["spectrum"] = "repeated"

        def build():
            if kind == "odd":
                M = nk.build_odd(nk.circulant(s), c, spec)
            else:
                M = nk.build_circ_skew(s, c, spec)
            return M, np.concatenate([nk.circulant_eigenvalues(s), g * nk.skew_eigenvalues(c)])
    elif kind == "defective":
        S, C = inputs.defective_pair(rng, size, jordan)
        spec = _spec(nk, rng)
        known = np.concatenate([np.diag(S), spec.signed_gamma * np.diag(C)]).astype(complex)
        props["order"] = 2 * size
        props["spectrum"] = "defective"

        def build():
            return nk.build_even(S, C, spec), known
    elif kind == "region":
        r, a, b = inputs.region_point(rng)
        known = np.array([1.0, r, complex(a, b), complex(a, -b)])
        props["order"] = 4

        def build():
            return nk.realize_region(nk.RegionPoint(r=r, a=a, b=b)), known
    else:
        values = inputs.four_values(rng)
        props["order"] = 4

        def build():
            return nk.realize_four(values), values

    def run():
        M, expected = build()
        tol = inputs.tolerance(expected)
        match = nk.match_spectra(nk.spectrum(M), expected, tol)
        perm = nk.is_permutative(M) if want_perm else None
        return M, expected, tol, match, perm

    def check(result):
        M, expected, tol, match, perm = result
        if forward_ref is not None and np.max(np.abs(expected - forward_ref)) > 1e-9 * max(
            1.0, np.max(np.abs(forward_ref))
        ):
            return "wrong_forward_map", None
        if want_perm and not (perm.permutative and permutative(M)):
            return "not_permutative", None
        return oracle_verdict(match, M, expected, tol)

    label = f"{kind}_{props['order']}" + (f"_j{jordan}" if jordan else "")
    return Op(label, props, run, check)


# ---------------------------------------------------------------- CLI front end


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def _cli_ops(rng, workdir):
    """In-process ``niepkit.cli.main`` calls, taking turns one per round: a
    ``verify`` of a 16x16 circulant claim, a ``build`` from rows and a
    planted exit-2 negative (``realize4`` on an unrealizable 4-list).  Each
    writes JSON to a file and parses it back, so the CLI's own parse and
    write are measured.  One call per round keeps the CLI, whose argument
    parser alone costs about a millisecond, from dominating the round."""
    import niepkit.cli

    ops = []
    for v in range(POOL_VARIANTS):
        def write(stem, payload):
            path = workdir / f"{stem}-{v}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            return str(path)

        row = rng.uniform(0.0, 1.0, size=16)
        claim = write("claim", {"matrix": inputs.dense_circulant(row).tolist(),
                                "spectrum": _pairs(inputs.circulant_spectrum(row))})
        ops.append((["verify", claim], 0, "matched", {"order": 16}))
        s, c = inputs.block_rows(rng, 8, False)
        rows = write("rows", {"circulant_row": s.tolist(), "skew_row": c.tolist()})
        gamma = float(rng.uniform(0.5, 1.0))
        ops.append((["build", rows, f"--gamma={gamma!r}", "--sign=minus"], 0, "verified",
                    {"order": 16}))
        bad = write("bad", _pairs(inputs.unrealizable_four(rng)))
        ops.append((["realize4", bad], 2, None, {"order": 4}))
    return [[_cli_op(niepkit.cli, workdir, *spec) for spec in ops]]


def _cli_op(cli, workdir, args, code, key, props):
    out = workdir / f"out-{args[0]}.json"
    argv = [*args, f"--out={out}"]
    props = {"bordered": False, "satisfiable": code == 0, "spectrum": "distinct", **props}

    def run():
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def check(exit_code):
        if exit_code != code:
            return "unexpected_exit_code", None
        if key is not None and json.loads(out.read_text(encoding="utf-8"))[key] is not True:
            return "wrong_output", None
        return None, None

    return Op(f"cli_{args[0]}" + ("_negative" if code else ""), props, run, check)


# ---------------------------------------------------------------- measurement


WORKLOADS = {
    "search": search_workload,
    "verify_dense": verify_workload,
}


#: Host-speed calibration.  On a shared host the same code runs up to 1.7x
#: slower for tens of seconds at a time, with no steal time, so CPU time
#: drifts as much as wall time, and run-to-run spreads of raw times reached
#: 0.3 of their median.  ``measure`` therefore runs ``Calibration``, fixed
#: numpy work that calls no niepkit code, between operations at least every
#: ``CALIBRATION_INTERVAL_S``, and scales each operation's latency by
#: ``KERNEL_REF_S`` over the median kernel time of the ``CALIBRATION_WINDOW``
#: samples around it.  Reported latencies are thus those of a host on which
#: the kernel takes ``KERNEL_REF_S`` (about its median on the 2-vCPU Xeon at
#: 2.0 GHz where the benchmark was defined).  In 10-12 s segments of both
#: workloads, this cut the IQR spread of throughput from about 0.3 to 0.06.
CALIBRATION_INTERVAL_S = 0.1
CALIBRATION_WINDOW = 25
KERNEL_REF_S = 9.0e-4


class Calibration:
    """Small eigenvalue problems and FFTs, like the library's own numpy
    work; they track the host's speed on both workloads."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = [rng.uniform(-1.0, 1.0, size=(m, m)) for m in (8, 16, 32)]
        self.rows = rng.uniform(-1.0, 1.0, size=(16, 16))
        self.twist = np.exp(1j * np.pi * np.arange(16) / 16)
        self.starts, self.durations = [], []

    def sample(self):
        t0 = time.perf_counter()
        for a in self.mats:
            np.linalg.eigvals(a)
        for row in self.rows:
            np.fft.ifft(row * self.twist)
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def scale(self, op_starts):
        """``KERNEL_REF_S`` over the local median kernel time, per operation."""
        d = np.asarray(self.durations)
        w = min(CALIBRATION_WINDOW, d.size)
        rolling = np.array([np.median(d[i:i + w]) for i in range(d.size - w + 1)])
        first = np.searchsorted(self.starts, op_starts) - w // 2
        return KERNEL_REF_S / rolling[np.clip(first, 0, rolling.size - 1)]


def measure(pools, seconds, min_ops, tracer=None):
    """Run whole rounds until ``seconds`` have passed and ``min_ops`` ran.

    Per operation only its index in ``ops``, start and latency are kept, in
    flat arrays, so that the harness's memory, which ``peak_rss_mb`` counts,
    barely grows with the number of operations a faster program completes.
    """
    ops = [op for pool in pools for op in pool]
    first = [0]
    for pool in pools[:-1]:
        first.append(first[-1] + len(pool))
    latencies, starts, op_ids = array("d"), array("d"), array("i")
    failures = []  # (index in ops, failure class)
    residual_max = 0.0
    calibration = Calibration()
    root = tracer.root if tracer is not None else contextlib.nullcontext
    gc.collect()
    start = time.perf_counter()
    rnd = 0
    while True:
        for k, pool in enumerate(pools):
            idx = rnd % len(pool)
            op = pool[idx]
            with root():
                t0 = time.perf_counter()
                try:
                    result, error = op.run(), None
                except Exception as exc:  # counted as a failed operation
                    result, error = None, f"exception: {type(exc).__name__}: {exc}"
                latencies.append(time.perf_counter() - t0)
            starts.append(t0)
            op_ids.append(first[k] + idx)
            if error is None:
                error, residual = op.check(result)
                if residual is not None:
                    residual_max = max(residual_max, residual)
            if error:
                failures.append((op_ids[-1], error))
            if not calibration.starts or t0 - calibration.starts[-1] >= CALIBRATION_INTERVAL_S:
                calibration.sample()
        rnd += 1
        if time.perf_counter() - start >= seconds and len(latencies) >= min_ops:
            break
    return {
        "ops": ops,
        "op_ids": np.asarray(op_ids),
        "latencies": np.asarray(latencies),
        "scale": calibration.scale(starts),
        "failures": failures,
        "residual_max": residual_max,
        "elapsed": time.perf_counter() - start,
        "kernel_s": calibration.durations,
    }


def run_probe(probe):
    """Run every probe operation once, untimed.  Oracle false rejections
    are measured, not failures; any other failure makes the run incorrect."""
    records = []
    for op in probe:
        try:
            error, residual = op.check(op.run())
        except Exception as exc:
            error, residual = f"exception: {type(exc).__name__}: {exc}", None
        records.append((op, error, residual))
    failures = Counter(err for _, err, _ in records if err)
    rejects = failures.get(FALSE_REJECT, 0)
    residuals = [r for _, _, r in records if r is not None]
    by_label = Counter(op.label for op, _, _ in records)
    rejected = Counter(op.label for op, err, _ in records if err == FALSE_REJECT)
    return {
        "inputs": len(records),
        "correct": set(failures) <= {FALSE_REJECT},
        "failures": dict(failures),
        "false_rejects": rejects,
        "false_reject_share": rejects / len(records) if records else 0.0,
        "false_reject_share_by_operation": {k: rejected[k] / v for k, v in by_label.items()},
        "residual_over_tol_max": max(residuals) if residuals else 0.0,
    }


def summarize(run, tail_pct):
    """Statistics of one ``measure`` run.  ``ops_per_s`` and the latencies
    are calibrated (see ``KERNEL_REF_S``); ``ops_per_s`` counts operation
    time only, not the checks or the kernel.  Raw wall-clock figures are
    under ``wall``."""
    ops, ids, latencies = run["ops"], run["op_ids"], run["latencies"]
    scale, elapsed, kernel_s = run["scale"], run["elapsed"], run["kernel_s"]
    calibrated = latencies * scale
    failures = Counter(err for _, err in run["failures"])
    n = ids.size
    shares, sizes, operations = Counter(), Counter(), Counter()
    for op, count in zip(ops, np.bincount(ids, minlength=len(ops)).tolist()):
        if not count:
            continue
        p = op.props
        sizes[str(p.get("n", p.get("order")))] += count
        shares["bordered"] += count * p["bordered"]
        shares["satisfiable"] += count * p["satisfiable"]
        shares["repeated_or_defective"] += count * (p["spectrum"] != "distinct")
        shares["defective"] += count * (p["spectrum"] == "defective")
        operations[op.label] += count
    out = {
        "attempted": n,
        "failed": sum(failures.values()),
        "correct": not failures,
        "ops_per_s": n / float(np.sum(calibrated)),
        "wall": {
            "ops_per_s": n / elapsed,
            "elapsed_s": elapsed,
            **{k: v for k, v in metrics.latency_summary(latencies, tail_pct).items()
               if k.startswith("latency")},
        },
        "calibration": {
            "samples": len(kernel_s),
            "reference_s": KERNEL_REF_S,
            "kernel_median_s": float(np.median(kernel_s)),
            "kernel_min_s": float(np.min(kernel_s)),
            "kernel_max_s": float(np.max(kernel_s)),
            "scale_min": float(np.min(scale)),
            "scale_max": float(np.max(scale)),
        },
        "failures": dict(failures),
        "failed_operations": dict(Counter(ops[i].label for i, _ in run["failures"])),
        "error_rate": sum(failures.values()) / n,
        "residual_over_tol_max": run["residual_max"],
        "input_shares": {
            "size": {k: v / n for k, v in sorted(sizes.items(), key=lambda kv: int(kv[0]))},
            "size_key": "n (skew order) for search workloads, matrix order otherwise",
            **{k: shares[k] / n for k in ("bordered", "satisfiable", "repeated_or_defective", "defective")},
        },
        "operations": dict(operations),
    }
    out.update(metrics.latency_summary(calibrated, tail_pct))
    labels = np.array([op.label for op in ops])[ids]
    out["median_ms_by_operation"] = {
        k: float(np.median(calibrated[labels == k])) * 1e3 for k in out["operations"]
    }
    return out


def cold_probe_times(repeats=3):
    """Median cold ``python -c pass`` wall time and in-process import time of
    ``niepkit.cli``, each over ``repeats`` fresh interpreters."""
    interp, imports = [], []
    code = ("import time; t = time.perf_counter(); import niepkit.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        interp.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=60)
        imports.append(float(out.stdout.strip()))
    return float(np.median(interp)), float(np.median(imports))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true",
                    help="smallest input classes and one round (self-check only)")
    args = ap.parse_args(argv)

    rng = np.random.default_rng([args.seed, sorted(WORKLOADS).index(args.workload)])
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, rng, workdir)
    finally:
        for p in workdir.iterdir():
            p.unlink()
        workdir.rmdir()


def _run(args, rng, workdir):
    pools, probe = WORKLOADS[args.workload](rng, args.small, workdir)
    # Warm-up: one untimed operation of the first class.
    pools[0][0].run()
    ready = time.monotonic()
    result = {"ready": ready, "setup_s": ready - args.spawned}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    # The traced run splits its time between an untraced and a traced
    # phase; neither reports a tail, so neither needs the tail's samples.
    tail_pct = metrics.TAIL_PERCENTILE[args.workload]
    min_ops = 1 if args.small or args.trace else metrics.samples_for_tail(tail_pct)
    seconds = args.seconds / 2 if args.trace else args.seconds
    measured = measure(pools, seconds, min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = summarize(measured, tail_pct)
    if not args.trace:
        result.update(untraced)
        result["peak_rss_mb"] = peak_rss_mb
        result["defective_probe"] = defective = run_probe(probe)
        result["correct"] = untraced["correct"] and defective["correct"]
        print(json.dumps(result))
        return 0

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    measured = measure(pools, seconds, min_ops, tracer=tracer)
    traced_wall = time.perf_counter() - t0
    tracer.uninstall()
    defective = run_probe(probe)
    traced = summarize(measured, tail_pct)
    layers, accounting = metrics.layer_metrics(tracer, traced["attempted"])
    layers["cli.interpreter_s"], layers["cli.import_s"] = cold_probe_times()
    layers["oracle.false_rejects"] = defective["false_rejects"]
    layers["oracle.residual_over_tol_max"] = max(traced["residual_over_tol_max"],
                                                 defective["residual_over_tol_max"])
    layers["trace.overhead_ratio"] = untraced["ops_per_s"] / traced["ops_per_s"]
    accounting["traced_wall_s"] = traced_wall
    accounting["accounted_share"] = accounting["root_span_s"] / traced_wall
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.dump(spans_path)
    result.update(
        attempted=traced["attempted"] + untraced["attempted"],
        failed=traced["failed"] + untraced["failed"],
        correct=traced["correct"] and untraced["correct"] and defective["correct"],
        layers=layers,
        accounting=accounting,
        spans_file=str(spans_path.relative_to(ROOT)),
        untraced=untraced,
        traced=traced,
        defective_probe=defective,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
