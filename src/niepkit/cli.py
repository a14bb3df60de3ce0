"""Batch command-line front end.

Input files are JSON; complex numbers are written as ``[re, im]`` pairs and
matrices as row-major arrays of arrays.  Exit codes:

* 0 - success (constructions are re-verified against the eigenvalue oracle
  before this is returned)
* 2 - a sufficient condition is not met (clean negative)
* 3 - input error
* 4 - internal verification failure (oracle mismatch, always a bug signal)
"""

import argparse
import functools
import itertools
import json
import logging
import math
import os
import sys

import numpy as np

from ._util import SWEEP_RTOL, VERIFY_RTOL, slack
from .blocks import BlockBuildSpec, build_circ_skew, build_even, build_odd
from .dft import circulant_eigenvalues, skew_eigenvalues
from .errors import (
    EigensolveError,
    EnumerationCapError,
    RealizabilityError,
    StructureError,
    VerificationError,
)
from .realize import (
    RegionPoint,
    SpectrumPair,
    _augment_from_plan,
    brauer_plan,
    build_from_witness,
    check_conditions,
    realize_four,
    realize_region,
    region_check,
)
from .oracle import match_spectra, spectrum

log = logging.getLogger("niepkit")


def _fmt(x):
    return f"{x:.17g}"


def _complex_out(values):
    values = np.asarray(values, complex)
    return np.stack((values.real, values.imag), axis=-1).tolist()


def _is_number(v):
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_complex_list(data, name):
    if not isinstance(data, list) or not data:
        raise ValueError(f"{name} must be a nonempty JSON array of [re, im] pairs")
    out = []
    for item in data:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(_is_number(v) for v in item)
        ):
            raise ValueError(f"{name} entries must be [re, im] number pairs")
        out.append(complex(item[0], item[1]))
    return np.asarray(out, complex)


def _parse_real_vector(data, name):
    if not isinstance(data, list) or not data:
        raise ValueError(f"{name} must be a nonempty JSON array of numbers")
    if not all(_is_number(v) for v in data):
        raise ValueError(f"{name} entries must be numbers")
    return np.asarray(data, float)


def _parse_matrix(data, name):
    if not isinstance(data, list) or not data:
        raise ValueError(f"{name} must be a nonempty row-major JSON array of arrays")
    rows = [row if isinstance(row, list) else [row] for row in data]
    if not all(_is_number(v) for row in rows for v in row):
        raise ValueError(f"{name} entries must be numbers")
    return np.asarray(data, float)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_object(path, command):
    """The JSON object in ``path``; any other JSON value is an input error."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{command} input must be a JSON object")
    return data


def _required(data, key, command):
    """``data[key]``; a missing key is an input error naming the command."""
    if key not in data:
        raise ValueError(f"{command}: missing key {key!r}")
    return data[key]


def _write_output(args, payload, matrix=None):
    if getattr(args, "format", "json") == "csv":
        text = "\n".join(",".join(_fmt(v) for v in row) for row in matrix) + "\n"
    else:
        text = json.dumps(payload, indent=2) + "\n"
    _emit(args, text)


def _emit(args, text):
    """Write ``text`` to ``--out`` when given, else to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verify_matrix(matrix, expected):
    """Oracle check every success path must pass before exiting 0.

    Returns the computed spectrum and the match report.
    """
    tol = slack(VERIFY_RTOL, expected, floor=1.0)
    computed = spectrum(matrix)
    report = match_spectra(computed, expected, tol)
    if not report.matched:
        raise VerificationError(
            f"constructed matrix failed spectrum verification "
            f"(max pair distance {report.max_pair_distance:.3e} > {tol:.3e})"
        )
    return computed, report


def _matrix_payload(matrix, expected):
    """The verified JSON payload of a constructed matrix; the oracle runs once."""
    computed, report = _verify_matrix(matrix, expected)
    return {
        "matrix": matrix.tolist(),
        "expected_spectrum": _complex_out(expected),
        "computed_spectrum": _complex_out(computed),
        "max_pair_distance": report.max_pair_distance,
        "verified": True,
    }


def _cmd_realize4(args):
    values = _parse_complex_list(_load_json(args.input), "spectrum")
    M = realize_four(values)
    _write_output(args, _matrix_payload(M, values), matrix=M)
    return 0


def _cmd_realize_region(args):
    point = RegionPoint(r=args.r, a=args.a, b=args.b)
    M = realize_region(point)
    _write_output(args, _matrix_payload(M, point.spectrum), matrix=M)
    return 0


def _parse_grid(text):
    axes = {}
    for part in text.split(","):
        try:
            name, rng = part.split("=")
            lo, hi, steps = rng.split(":")
            axes[name.strip()] = np.linspace(float(lo), float(hi), int(steps))
        except ValueError as exc:
            raise ValueError(f"bad grid axis {part!r}; expected name=lo:hi:steps") from exc
        if int(steps) < 1:
            raise ValueError("grid steps must be >= 1")
    if set(axes) != {"r", "a", "b"}:
        raise ValueError("grid must define exactly the axes r, a and b")
    return axes["r"], axes["a"], axes["b"]


def _cmd_region_sweep(args):
    lines = ["r,a,b,in_region,verified"]
    failures = 0
    for r, a, b in itertools.product(*_parse_grid(args.grid)):
        point = RegionPoint(r=float(r), a=float(a), b=float(b))
        inside = region_check(point)
        verified = 0
        if inside:
            expected = point.spectrum
            tol = slack(SWEEP_RTOL, expected, floor=1.0)
            report = match_spectra(spectrum(realize_region(point)), expected, tol)
            verified = int(report.matched)
            failures += 1 - verified
        row = f"{_fmt(point.r)},{_fmt(point.a)},{_fmt(point.b)}"
        lines.append(f"{row},{int(inside)},{verified}")
    _emit(args, "\n".join(lines) + "\n")
    if failures:
        raise VerificationError(f"{failures} in-region points failed verification")
    return 0


def _build_spec(args):
    split = None
    if args.split is not None:
        data = json.loads(args.split)
        if not isinstance(data, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))
            for pair in data
        ):
            raise ValueError("--split must be a JSON array of [left, right] numbers")
        split = tuple(tuple(float(v) for v in pair) for pair in data)
    return BlockBuildSpec(
        gamma=args.gamma, sign=1 if args.sign == "plus" else -1, last_row_split=split
    )


def _cmd_build(args):
    data = _load_object(args.input, "build")
    spec = _build_spec(args)
    g = spec.signed_gamma
    if "circulant_row" in data and "skew_row" in data:
        s_row = _parse_real_vector(data["circulant_row"], "circulant_row")
        c_row = _parse_real_vector(data["skew_row"], "skew_row")
        M = build_circ_skew(s_row, c_row, spec)
        expected = np.concatenate(
            [circulant_eigenvalues(s_row), g * skew_eigenvalues(c_row)]
        )
    elif "S" in data and "skew_row" in data:
        S = _parse_matrix(data["S"], "S")
        c_row = _parse_real_vector(data["skew_row"], "skew_row")
        M = build_odd(S, c_row, spec)
        expected = np.concatenate([spectrum(S), g * skew_eigenvalues(c_row)])
    elif "S" in data and "C" in data:
        S = _parse_matrix(data["S"], "S")
        C = _parse_matrix(data["C"], "C")
        M = build_even(S, C, spec)
        expected = np.concatenate([spectrum(S), g * spectrum(C)])
    else:
        raise ValueError(
            "build input must provide circulant_row+skew_row, S+skew_row or S+C"
        )
    _write_output(args, _matrix_payload(M, expected), matrix=M)
    return 0


def _cmd_check(args):
    data = _load_object(args.input, "check")
    lam = _parse_complex_list(_required(data, "circulant", "check"), "circulant")
    ups = _parse_complex_list(_required(data, "skew", "check"), "skew")
    pair = SpectrumPair(
        circulant_part=tuple(lam), skew_part=tuple(ups), gamma=args.gamma
    )
    report = check_conditions(pair, mode=args.mode)
    payload = {
        "satisfied": report.satisfied,
        "mode": report.mode,
        "bound_value": report.bound_value,
        "witness": None,
    }
    if report.witness is not None:
        payload["witness"] = {
            "alpha": list(report.witness.alpha.mapping),
            "beta": list(report.witness.beta.mapping),
            "circulant_row": list(report.witness.circulant_row),
            "skew_row": list(report.witness.skew_row),
            "margins": list(report.witness.margins),
        }
        # the success path must hand back a verified construction
        M = build_from_witness(pair, report.witness)
        expected = np.concatenate([lam, pair.gamma * ups])
        _verify_matrix(M, expected)
    _write_output(args, payload)
    return 0 if report.satisfied else 2


def _cmd_augment(args):
    data = _load_object(args.input, "augment")
    ups = _parse_complex_list(_required(data, "skew", "augment"), "skew")
    tail = _parse_complex_list(_required(data, "tail", "augment"), "tail")
    rho = _required(data, "rho", "augment")
    if not _is_number(rho):
        raise ValueError("rho must be a number")
    sign = 1 if args.sign == "plus" else -1
    plan = brauer_plan(ups, tail, float(rho))
    M = _augment_from_plan(plan, args.gamma, sign)
    expected = np.concatenate([[complex(rho)], tail, sign * args.gamma * ups])
    payload = _matrix_payload(M, expected)
    payload["chi"] = plan.chi
    payload["circulant_row"] = list(plan.circulant_row)
    payload["skew_row"] = list(plan.skew_row)
    _write_output(args, payload, matrix=M)
    return 0


def _cmd_verify(args):
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    data = _load_object(args.input, "verify")
    M = _parse_matrix(_required(data, "matrix", "verify"), "matrix")
    expected = _parse_complex_list(_required(data, "spectrum", "verify"), "spectrum")
    tol = args.tol if args.tol is not None else slack(SWEEP_RTOL, expected, floor=1.0)
    report = match_spectra(spectrum(M), expected, tol)
    _write_output(
        args,
        {
            "matched": report.matched,
            "max_pair_distance": report.max_pair_distance,
            "tolerance": tol,
        },
    )
    return 0 if report.matched else 2


def _add_common(p, fmt=True):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if fmt:
        p.add_argument(
            "--format", choices=["json", "csv"], default="json", help="output format"
        )


def build_parser():
    """A new argument parser for the ``niepkit`` command line."""
    parser = argparse.ArgumentParser(
        prog="niepkit",
        description="Construct and verify nonnegative matrices with prescribed spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize4", help="closed-form 4x4 realization")
    p.add_argument("input", help="JSON file: array of four [re, im] pairs")
    _add_common(p)
    p.set_defaults(func=_cmd_realize4)

    p = sub.add_parser("realize-region", help="realize {1, r, a+ib, a-ib}")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_realize_region)

    p = sub.add_parser("region-sweep", help="CSV sweep of the (r, a, b) region")
    p.add_argument(
        "--grid",
        default="r=0:1:21,a=-1:1:21,b=-1:1:21",
        help="axes as r=lo:hi:steps,a=...,b=...",
    )
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_region_sweep)

    p = sub.add_parser("build", help="block builds from rows or matrices")
    p.add_argument("input", help="JSON object with circulant_row/skew_row, S+skew_row or S+C")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--sign", choices=["plus", "minus"], default="plus")
    p.add_argument("--split", default=None, help="JSON array of [left, right] pairs")
    _add_common(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("check", help="sufficient-condition check over reorderings")
    p.add_argument("input", help="JSON object with circulant and skew spectra")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--mode", choices=["constructive", "formula"], default="constructive")
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("augment", help="rank-one Perron shift plus bordered build")
    p.add_argument("input", help="JSON object with skew, tail and rho")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--sign", choices=["plus", "minus"], default="plus")
    _add_common(p)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("verify", help="match a matrix spectrum against a list")
    p.add_argument("input", help="JSON object with matrix and spectrum")
    p.add_argument("--tol", type=float, default=None)
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser():
    # built on the first call and reused: parse_args keeps no state between
    # calls, and building all seven subparsers costs about a millisecond
    return build_parser()


def _log_level():
    """The level named by NIEPKIT_LOG; an unknown name warns and gives WARNING."""
    name = os.environ.get("NIEPKIT_LOG") or "WARNING"
    if isinstance(logging.getLevelName(name), int):
        return name
    print(
        f"warning: NIEPKIT_LOG={name!r} is not a logging level; using WARNING",
        file=sys.stderr,
    )
    return "WARNING"


def main(argv=None):
    logging.basicConfig(level=_log_level())
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except RealizabilityError as exc:
        log.info("condition not met", exc_info=True)
        print(f"condition not met: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, EigensolveError) as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 4
    except (
        ValueError,
        KeyError,
        StructureError,
        EnumerationCapError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
