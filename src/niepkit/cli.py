"""Batch command-line front end.

Input files are JSON; complex numbers are written as ``[re, im]`` pairs and
matrices as row-major arrays of arrays.  Exit codes:

* 0 - success (constructions are re-verified against the eigenvalue oracle
  before this is returned)
* 2 - a sufficient condition is not met (clean negative)
* 3 - input error, a malformed command line included
* 4 - internal verification failure (oracle mismatch, always a bug signal)

A JSON result is the text of ``json.dumps(result, indent=2)`` plus a newline,
with every numpy array in ``result`` read as its ``tolist()``.  It is written
by :func:`_json_text` without ``json``'s pure-Python indenting encoder: a
matrix or ``[re, im]`` spectrum stays an array, and each distinct float in it
is formatted once.
"""

import argparse
import functools
import itertools
import json
import math
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


def _fmt(x):
    return f"{x:.17g}"


def _complex_out(values):
    """The ``(n, 2)`` float array of the ``[re, im]`` pairs of ``values``."""
    values = np.asarray(values, complex)
    return np.stack((values.real, values.imag), axis=-1)


def _numbers(values):
    """Whether every value is a JSON number, judged by exact type at C level:
    JSON true/false load as bool, a subclass of int, and are refused."""
    return set(map(type, values)) <= {int, float}


def _floats(data, name):
    """``np.asarray(data, float)``; an integer beyond the float range is an input error."""
    try:
        return np.asarray(data, float)
    except OverflowError:
        raise ValueError(f"{name} must be finite") from None


def _parse_complex_list(data, name):
    if not isinstance(data, list) or not data:
        raise ValueError(f"{name} must be a nonempty JSON array of [re, im] pairs")
    if set(map(type, data)) != {list} or set(map(len, data)) != {2} or not _numbers(
        itertools.chain.from_iterable(data)
    ):
        raise ValueError(f"{name} entries must be [re, im] number pairs")
    # the two float64s of each pair are the parts of one complex128
    return _floats(data, name).view(complex)[:, 0]


def _parse_real_vector(data, name):
    if not isinstance(data, list) or not data:
        raise ValueError(f"{name} must be a nonempty JSON array of numbers")
    if not _numbers(data):
        raise ValueError(f"{name} entries must be numbers")
    return _floats(data, name)


def _parse_matrix(data, name):
    if not isinstance(data, list) or not data:
        raise ValueError(f"{name} must be a nonempty row-major JSON array of arrays")
    rows = [row if isinstance(row, list) else [row] for row in data]
    if not _numbers(itertools.chain.from_iterable(rows)):
        raise ValueError(f"{name} entries must be numbers")
    return _floats(data, name)


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


def _block(items, pad, ends="[]"):
    """A JSON array (or object) of already formatted ``items``, nested at ``pad``."""
    inner = pad + "  "
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def _json_text(value, pad=""):
    """``json.dumps(value, indent=2)``, every ndarray read as its ``tolist()``,
    nested at ``pad``: a dict item by item; a nonempty 1-D or 2-D float64
    array of finite entries with each distinct entry (by bit pattern)
    formatted once, any other array as its ``tolist()``; a list of numbers
    and a scalar by the C encoder; the rest by ``json.dumps`` (JSON strings
    hold no raw newline)."""
    inner = pad + "  "
    if type(value) is dict and value and all(type(key) is str for key in value):
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return _block(items, pad, "{}")
    if type(value) is np.ndarray:
        if (value.dtype == np.float64 and value.ndim in (1, 2) and value.size
                and np.isfinite(value).all()):
            bits, where = np.unique(value.view(np.uint64), return_inverse=True)
            texts = np.array(list(map(float.__repr__, bits.view(float).tolist())), object)
            rows = texts[where.reshape(value.shape)].tolist()
            if value.ndim == 2:
                rows = [_block(row, inner) for row in rows]
            return _block(rows, pad)
        value = value.tolist()
    if type(value) is list and value and _numbers(value):
        # one C-encoder call; a number's text holds no ", "
        return _block(json.dumps(value)[1:-1].split(", "), pad)
    if type(value) in (str, int, float, bool, type(None)):
        return json.dumps(value)  # the C encoder; indenting changes no scalar
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _write_output(args, payload):
    if getattr(args, "format", "json") == "csv":
        rows = payload["matrix"]
        text = "\n".join(",".join(_fmt(v) for v in row) for row in rows) + "\n"
    else:
        text = _json_text(payload) + "\n"
    _emit(args, text)


def _emit(args, text):
    """Write ``text`` to ``--out`` when given, else to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _judge(matrix, expected, rtol, tol=None):
    """The oracle's judgement of ``matrix`` against ``expected``: the computed
    spectrum, the match report and the tolerance, which is ``tol`` when given
    and ``slack(rtol, expected, floor=1.0)`` otherwise."""
    if tol is None:
        tol = slack(rtol, expected, floor=1.0)
    computed = spectrum(matrix)
    return computed, match_spectra(computed, expected, tol), tol


def _verify_matrix(matrix, expected):
    """Oracle check every success path must pass before exiting 0.

    Returns the computed spectrum and the match report.
    """
    computed, report, tol = _judge(matrix, expected, VERIFY_RTOL)
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
        "matrix": matrix,
        "expected_spectrum": _complex_out(expected),
        "computed_spectrum": _complex_out(computed),
        "max_pair_distance": report.max_pair_distance,
        "verified": True,
    }


def _cmd_realize4(args):
    values = _parse_complex_list(_load_json(args.input), "spectrum")
    M = realize_four(values)
    _write_output(args, _matrix_payload(M, values))
    return 0


def _cmd_realize_region(args):
    point = RegionPoint(r=args.r, a=args.a, b=args.b)
    M = realize_region(point)
    _write_output(args, _matrix_payload(M, point.spectrum))
    return 0


def _parse_grid(text):
    axes = {}
    for part in text.split(","):
        try:
            name, rng = part.split("=")
            lo, hi, steps = rng.split(":")
            values = np.linspace(float(lo), float(hi), int(steps))
        except ValueError as exc:
            raise ValueError(f"bad grid axis {part!r}; expected name=lo:hi:steps") from exc
        if int(steps) < 1:
            raise ValueError("grid steps must be >= 1")
        name = name.strip()
        if name in axes:
            raise ValueError(f"grid axis {name!r} is given twice")
        axes[name] = values
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
            _, report, _ = _judge(realize_region(point), point.spectrum, SWEEP_RTOL)
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
            isinstance(pair, list) and len(pair) == 2 and _numbers(pair)
            for pair in data
        ):
            raise ValueError("--split must be a JSON array of [left, right] numbers")
        split = tuple(map(tuple, _floats(data, "--split").tolist()))
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
    _write_output(args, _matrix_payload(M, expected))
    return 0


def _cmd_check(args):
    data = _load_object(args.input, "check")
    lam = _parse_complex_list(_required(data, "circulant", "check"), "circulant")
    ups = _parse_complex_list(_required(data, "skew", "check"), "skew")
    pair = SpectrumPair(
        circulant_part=tuple(lam), skew_part=tuple(ups), gamma=args.gamma
    )
    report = check_conditions(pair)
    payload = {"satisfied": report.satisfied, "witness": None}
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
    if not _numbers([rho]):
        raise ValueError("rho must be a number")
    sign = 1 if args.sign == "plus" else -1
    plan = brauer_plan(ups, tail, _floats(rho, "rho"))
    M = _augment_from_plan(plan, args.gamma, sign)
    expected = np.concatenate([[complex(rho)], tail, sign * args.gamma * ups])
    payload = _matrix_payload(M, expected)
    payload["chi"] = plan.chi
    payload["circulant_row"] = list(plan.circulant_row)
    payload["skew_row"] = list(plan.skew_row)
    _write_output(args, payload)
    return 0


def _cmd_verify(args):
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    data = _load_object(args.input, "verify")
    M = _parse_matrix(_required(data, "matrix", "verify"), "matrix")
    expected = _parse_complex_list(_required(data, "spectrum", "verify"), "spectrum")
    _, report, tol = _judge(M, expected, SWEEP_RTOL, args.tol)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subparsers too, whose usage errors exit 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser():
    """A new argument parser for the ``niepkit`` command line."""
    parser = _Parser(
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


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except RealizabilityError as exc:
        print(f"condition not met: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, EigensolveError) as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, StructureError, EnumerationCapError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
