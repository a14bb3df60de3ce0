import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fixtures as fx
from niepkit import cli, realize
from niepkit._util import VERIFY_RTOL, max_abs
from niepkit.blocks import BlockBuildSpec, build_circ_skew
from niepkit.cli import main
from niepkit.dft import circulant_eigenvalues, skew_eigenvalues
from niepkit.oracle import match_spectra, spectrum
from niepkit.realize import brauer_augment, brauer_plan, realize_four

DATA = Path(__file__).resolve().parent / "data"


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def pairs(values):
    return [[float(np.real(z)), float(np.imag(z))] for z in values]


class TestRealize4:
    def test_fixture_roundtrip(self, tmp_path):
        inp = write_json(tmp_path / "in.json", [[8, 0], [-6, 0], [-1, 5], [-1, -5]])
        out = tmp_path / "out.json"
        assert main(["realize4", inp, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["matrix"] == fx.FOUR_A_MATRIX.tolist()
        assert payload["verified"] is True

    def test_checked_in_input(self, tmp_path):
        # the packaging smoke test in CI runs the installed script on this file
        inp = Path(__file__).resolve().parent / "data" / "four.json"
        out = tmp_path / "out.json"
        assert main(["realize4", str(inp), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["matrix"] == fx.FOUR_A_MATRIX.tolist()

    def test_csv_output(self, tmp_path):
        inp = write_json(tmp_path / "in.json", [[8, 0], [-6, 0], [-1, 5], [-1, -5]])
        out = tmp_path / "out.csv"
        assert main(["realize4", inp, "--out", str(out), "--format", "csv"]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert np.array_equal(np.asarray(rows, float), fx.FOUR_A_MATRIX)

    def test_condition_not_met_exits_2(self, tmp_path, capsys):
        inp = write_json(tmp_path / "in.json", [[1, 0], [2, 0], [0, 1], [0, -1]])
        assert main(["realize4", inp]) == 2
        assert "condition not met" in capsys.readouterr().err

    def test_malformed_json_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["realize4", str(bad)]) == 3

    def test_wrong_shape_exits_3(self, tmp_path):
        inp = write_json(tmp_path / "in.json", [[8, 0], [6, 0]])
        assert main(["realize4", inp]) == 3


class TestRealizeRegion:
    def test_inside_point(self, tmp_path):
        out = tmp_path / "out.json"
        code = main(
            ["realize-region", "--r", "0.5", "--a", "-0.7", "--b", "0.2", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verified"] is True

    def test_outside_point_exits_2(self):
        assert main(["realize-region", "--r", "0", "--a", "0.9", "--b", "0"]) == 2

    def test_bad_r_exits_3(self):
        assert main(["realize-region", "--r", "2", "--a", "0", "--b", "0"]) == 3

    @pytest.mark.parametrize("a, b", [("nan", "0"), ("0", "nan"), ("-inf", "0")])
    def test_non_finite_exits_3(self, a, b, capsys):
        assert main(["realize-region", "--r=0.5", f"--a={a}", f"--b={b}"]) == 3
        assert "finite" in capsys.readouterr().err


class TestRegionSweep:
    def test_small_grid_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["region-sweep", "--grid", "r=0:1:2,a=0:0:2,b=0:0:2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,a,b,in_region,verified"
        assert len(lines) == 9  # 2x2x2 grid points
        for line in lines[1:]:
            assert line.endswith(",1,1")

    def test_all_outside_band(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["region-sweep", "--grid", "r=0:0:1,a=0.9:0.9:1,b=-1:1:3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()[1:]
        assert all(line.endswith(",0,0") for line in lines)

    def test_byte_stable(self, tmp_path):
        grid = "r=0:1:4,a=-1:1:4,b=-1:1:4"
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["region-sweep", "--grid", grid, "--out", str(out1)]) == 0
        assert main(["region-sweep", "--grid", grid, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_grid_exits_3(self):
        assert main(["region-sweep", "--grid", "r=0:1:5,a=0:1:5"]) == 3

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("r=0:1,a=0:1:2,b=0:1:2", "bad grid axis 'r=0:1'; expected name=lo:hi:steps"),
            ("r=0:1:2,a=0:1:0,b=0:1:2", "grid steps must be >= 1"),
        ],
        ids=["malformed_axis", "zero_steps"],
    )
    def test_bad_axis_exits_3(self, capsys, grid, message):
        assert main(["region-sweep", "--grid", grid]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    def test_nan_axis_exits_3(self, capsys):
        assert main(["region-sweep", "--grid", "r=0:1:3,a=nan:0:3,b=0:0:1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err


class TestBuild:
    def test_checked_in_rows(self, tmp_path):
        # the packaging smoke test in CI runs the installed script on this file
        out = tmp_path / "out.json"
        assert main(["build", str(DATA / "rows.json"), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["verified"] is True
        assert payload["matrix"] == fx.EIGHT_MATRIX.tolist()

    def test_checked_in_order_64_rows(self, tmp_path):
        # the packaging smoke test in CI runs the installed script on this
        # file too: an order-64 build, which the oracle solves as two halves
        out = tmp_path / "out.json"
        assert main(["build", str(DATA / "rows_32.json"), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["verified"] is True
        M = np.asarray(payload["matrix"])
        assert M.shape == (64, 64)
        assert payload["computed_spectrum"] == cli._complex_out(spectrum(M))

    def test_rows_build_matches_fixture(self, tmp_path):
        inp = write_json(
            tmp_path / "in.json",
            {
                "circulant_row": fx.EIGHT_S_ROW.tolist(),
                "skew_row": fx.EIGHT_C_ROW.tolist(),
            },
        )
        out = tmp_path / "out.json"
        assert main(["build", inp, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["matrix"] == fx.EIGHT_MATRIX.tolist()

    def test_bordered_build_with_split(self, tmp_path):
        inp = write_json(
            tmp_path / "in.json",
            {
                "S": np.asarray(
                    [[5, 6, 3, 1], [1, 5, 6, 3], [3, 1, 5, 6], [6, 3, 1, 5]], float
                ).tolist(),
                "skew_row": fx.SEVEN_C_ROW.tolist(),
            },
        )
        out = tmp_path / "out.json"
        code = main(
            ["build", inp, "--split", "[[3,3],[3,0],[1,0]]", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["matrix"] == fx.SEVEN_MATRIX.tolist()

    @pytest.mark.parametrize("part", ["NaN", "Infinity"])
    def test_bordered_build_rejects_a_nonfinite_split(self, tmp_path, capsys, part):
        inp = write_json(
            tmp_path / "in.json",
            {
                "S": [[5, 6, 3, 1], [1, 5, 6, 3], [3, 1, 5, 6], [6, 3, 1, 5]],
                "skew_row": fx.SEVEN_C_ROW.tolist(),
            },
        )
        split = f"[[{part},6],[3,0],[1,0]]"
        assert main(["build", inp, "--split", split]) == 3
        assert "last_row_split parts must be finite" in capsys.readouterr().err

    def test_general_pair_with_sign(self, tmp_path):
        inp = write_json(
            tmp_path / "in.json",
            {"S": [[2.0, 1.0], [1.0, 2.0]], "C": [[1.0, -1.0], [0.5, 1.0]]},
        )
        assert main(["build", inp, "--gamma", "0.5", "--sign", "minus"]) == 0

    def test_majorization_failure_exits_2(self, tmp_path):
        inp = write_json(
            tmp_path / "in.json",
            {"circulant_row": [1.0, 1.0], "skew_row": [2.0, 0.0]},
        )
        assert main(["build", inp]) == 2

    def test_missing_keys_exits_3(self, tmp_path):
        inp = write_json(tmp_path / "in.json", {"rows": [1, 2]})
        assert main(["build", inp]) == 3


class TestCheck:
    def test_seven_pair_witness_in_report(self, tmp_path):
        ups = skew_eigenvalues(fx.SEVEN_C_ROW)
        inp = write_json(
            tmp_path / "in.json",
            {"circulant": pairs([15, 2 + 5j, 1, 2 - 5j]), "skew": pairs(ups)},
        )
        out = tmp_path / "report.json"
        assert main(["check", inp, "--gamma", "1.0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["satisfied"] is True
        np.testing.assert_allclose(report["witness"]["circulant_row"], fx.SEVEN_S_ROW, atol=1e-10)
        np.testing.assert_allclose(report["witness"]["skew_row"], fx.SEVEN_C_ROW, atol=1e-10)

    def test_unsatisfied_exits_2(self, tmp_path):
        inp = write_json(
            tmp_path / "in.json",
            {"circulant": pairs([1.0, 5.0]), "skew": pairs([0.0, 0.0])},
        )
        assert main(["check", inp]) == 2

    def test_edge_pair_witness_builds(self, tmp_path):
        # a witness within a spectrum-scale slack but not the builders' one
        # was once reported satisfied and then failed to build (exit 2)
        out = tmp_path / "report.json"
        assert main(["check", str(DATA / "edge_pair.json"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["satisfied"] is True
        assert min(report["witness"]["margins"]) >= 0.0

    def test_even_pair_stdout_bytes(self, capsys):
        # skew order 6: the search reads one skew ordering per shift class
        assert main(["check", str(DATA / "even_pair.json")]) == 0
        witness = {
            "alpha": [0, 2, 1, 3, 5, 4],
            "beta": [0, 1, 3, 2, 4, 5],
            "circulant_row": [
                1.4999999999999993, 1.625, 1.6250000000000002, 2.0, 1.8750000000000002,
                1.125,
            ],
            "skew_row": [
                0.49999999999999956, -1.510362971081845, -1.2410254037844386,
                -1.2216878364870318, 1.8660254037844384, -0.12879311067463878,
            ],
            "margins": [
                0.9999999999999998, 0.11463702891815508, 0.3839745962155616,
                0.7783121635129682, 0.008974596215561848, 0.9962068893253613,
            ],
        }
        report = {
            "satisfied": True,
            "mode": "constructive",
            "bound_value": 2.2499999999999982,
            "witness": witness,
        }
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"

    def test_formula_mode(self, tmp_path):
        inp = write_json(
            tmp_path / "in.json",
            {"circulant": pairs([8, 2 + 2j, -4, 2 - 2j]), "skew": pairs([0, 0, 0, 0])},
        )
        out = tmp_path / "report.json"
        assert main(["check", inp, "--mode", "formula", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mode"] == "formula"
        assert report["witness"] is None


class TestAugment:
    def test_flat_case(self, tmp_path):
        ups = skew_eigenvalues(fx.SEVEN_C_ROW)
        inp = write_json(
            tmp_path / "in.json",
            {"skew": pairs(ups), "tail": pairs([0, 0, 0]), "rho": 16.0},
        )
        out = tmp_path / "out.json"
        assert main(["augment", inp, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["chi"] == pytest.approx(4.0)
        assert payload["circulant_row"] == pytest.approx([4.0, 4.0, 4.0, 4.0])

    def test_insufficient_rho_exits_2(self, tmp_path):
        ups = skew_eigenvalues(fx.SEVEN_C_ROW)
        inp = write_json(
            tmp_path / "in.json",
            {"skew": pairs(ups), "tail": pairs([0, 0, 0]), "rho": 7.0},
        )
        assert main(["augment", inp]) == 2

    def test_tail_not_closed_under_conjugation_exits_2(self, tmp_path, capsys):
        ups = skew_eigenvalues([4.0, -2.0, 1.0])
        inp = write_json(
            tmp_path / "in.json",
            {"skew": pairs(ups), "tail": pairs([1j, 0, 0]), "rho": 100.0},
        )
        assert main(["augment", inp]) == 2
        err = capsys.readouterr().err
        assert "list does not admit any circulant-layout ordering" in err
        assert "increase rho" not in err

    def test_boolean_rho_exits_3(self, tmp_path, capsys):
        inp = write_json(
            tmp_path / "in.json",
            {"skew": [[-1, 0]] * 3, "tail": [[0, 0]] * 3, "rho": True},
        )
        assert main(["augment", inp]) == 3
        assert "rho must be a number" in capsys.readouterr().err

    def test_plans_once_with_unchanged_output(self, tmp_path, monkeypatch):
        ups = skew_eigenvalues([0.5, -1.0, 0.25])
        tail = [0.5, 0.1 + 0.2j, 0.1 - 0.2j]
        inp = write_json(
            tmp_path / "in.json", {"skew": pairs(ups), "tail": pairs(tail), "rho": 9.0}
        )
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return brauer_plan(*args, **kwargs)

        # brauer_augment would plan again through the realize module
        monkeypatch.setattr(cli, "brauer_plan", counted)
        monkeypatch.setattr(realize, "brauer_plan", counted)
        out = tmp_path / "out.json"
        assert main(["augment", inp, "--gamma", "0.75", "--sign", "minus", "--out", str(out)]) == 0
        assert len(calls) == 1
        payload = json.loads(out.read_text())
        M = brauer_augment(ups, tail, 9.0, gamma=0.75, sign=-1)
        plan = brauer_plan(ups, tail, 9.0)
        assert payload["matrix"] == M.tolist()
        assert payload["chi"] == plan.chi
        assert payload["circulant_row"] == list(plan.circulant_row)
        assert payload["skew_row"] == list(plan.skew_row)


class TestVerify:
    def test_checked_in_claim(self, capsys):
        # the packaging smoke test in CI runs the installed script on this
        # file: a 16x16 circulant and its spectrum
        assert main(["verify", str(DATA / "claim_16.json")]) == 0
        assert json.loads(capsys.readouterr().out)["matched"] is True

    def test_matched(self, tmp_path):
        inp = write_json(
            tmp_path / "in.json",
            {
                "matrix": fx.SEVEN_MATRIX.tolist(),
                "spectrum": pairs(fx.SEVEN_SPECTRUM),
            },
        )
        assert main(["verify", inp]) == 0

    def test_mismatch_exits_2(self, tmp_path):
        inp = write_json(
            tmp_path / "in.json",
            {"matrix": [[1.0, 0.0], [0.0, 1.0]], "spectrum": pairs([1.0, 2.0])},
        )
        assert main(["verify", inp]) == 2

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tolerance_exits_3(self, tmp_path, tol, capsys):
        inp = write_json(
            tmp_path / "in.json",
            {"matrix": [[1.0, 0.0], [0.0, 1.0]], "spectrum": pairs([1.0, 2.0])},
        )
        out = tmp_path / "out.json"
        assert main(["verify", inp, f"--tol={tol}", "--out", str(out)]) == 3
        assert not out.exists()
        assert "--tol must be finite and >= 0" in capsys.readouterr().err

    def test_overflowing_eigenvalues_exit_3(self, tmp_path, capsys):
        inp = write_json(
            tmp_path / "in.json",
            {"matrix": [[1e308, 1e308], [1e308, 1e308]], "spectrum": pairs([0.0, 0.0])},
        )
        assert main(["verify", inp]) == 3
        assert capsys.readouterr().err == (
            "input error: the eigenvalues of the matrix overflow\n"
        )

    def test_zero_tolerance_accepted(self, tmp_path):
        inp = write_json(
            tmp_path / "in.json",
            {"matrix": [[2.0, 0.0], [0.0, 1.0]], "spectrum": pairs([1.0, 2.0])},
        )
        assert main(["verify", inp, "--tol=0"]) == 0


@pytest.mark.parametrize("command", ["build", "check", "augment", "verify"])
def test_input_that_is_not_an_object_exits_3(tmp_path, capsys, command):
    inp = write_json(tmp_path / "in.json", [[1.0, 0.0], [2.0, 0.0]])
    assert main([command, inp]) == 3
    assert f"{command} input must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("check", {}, "circulant"),
        ("check", {"circulant": [[1.0, 0.0]]}, "skew"),
        ("augment", {"skew": [[1.0, 0.0]], "tail": [[0.0, 0.0]]}, "rho"),
        ("verify", {"matrix": [[1.0]]}, "spectrum"),
    ],
    ids=["check-circulant", "check-skew", "augment-rho", "verify-spectrum"],
)
def test_missing_key_names_command_and_key(tmp_path, capsys, command, payload, key):
    inp = write_json(tmp_path / "in.json", payload)
    assert main([command, inp]) == 3
    assert capsys.readouterr().err == f"input error: {command}: missing key {key!r}\n"


def test_build_without_a_key_set_names_the_sets(tmp_path, capsys):
    # build reads no key unguarded: it names the key sets it accepts
    for payload in ({}, {"circulant_row": [1.0]}):
        inp = write_json(tmp_path / "in.json", payload)
        assert main(["build", inp]) == 3
        assert capsys.readouterr().err == (
            "input error: build input must provide circulant_row+skew_row, "
            "S+skew_row or S+C\n"
        )


class TestBooleanInput:
    """JSON true/false are rejected wherever a number is expected."""

    def test_complex_list(self, tmp_path, capsys):
        inp = write_json(tmp_path / "in.json", [[8, 0], [-6, 0], [True, 5], [-1, -5]])
        assert main(["realize4", inp]) == 3
        assert "input error" in capsys.readouterr().err

    def test_real_vector(self, tmp_path):
        inp = write_json(
            tmp_path / "in.json", {"circulant_row": [1.0, True], "skew_row": [0.5, 0.0]}
        )
        assert main(["build", inp]) == 3

    def test_matrix(self, tmp_path):
        inp = write_json(
            tmp_path / "in.json",
            {"matrix": [[1.0, False], [0.0, 1.0]], "spectrum": pairs([1.0, 1.0])},
        )
        assert main(["verify", inp]) == 3

    def test_numbers_still_accepted(self, tmp_path):
        # the same inputs with 1 and 0 in place of true and false
        inp = write_json(
            tmp_path / "in.json",
            {"matrix": [[1.0, 0], [0.0, 1]], "spectrum": pairs([1.0, 1.0])},
        )
        assert main(["verify", inp]) == 0


class TestNonNumericInput:
    """Strings and malformed pairs are input errors wherever a number is
    expected, matrix entries and ``--split`` pairs included."""

    @pytest.mark.parametrize(
        "payload", [{"S": [["2"]], "C": [[1.0]]}, {"S": [[2.0]], "C": [["1"]]}]
    )
    def test_build_matrix(self, tmp_path, capsys, payload):
        inp = write_json(tmp_path / "in.json", payload)
        assert main(["build", inp]) == 3
        assert "entries must be numbers" in capsys.readouterr().err

    def test_verify_matrix(self, tmp_path, capsys):
        inp = write_json(
            tmp_path / "in.json",
            {"matrix": [["1", 0.0], [0.0, 1.0]], "spectrum": pairs([1.0, 1.0])},
        )
        assert main(["verify", inp]) == 3
        assert "entries must be numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "split", ["[1]", "[[3, 3], [3, 0], 1]", "[[3, 3, 0]]", '[["3", 3]]', "{}"]
    )
    def test_split_pairs(self, tmp_path, capsys, split):
        inp = write_json(tmp_path / "in.json", {"S": [[2.0]], "skew_row": [1.0]})
        assert main(["build", inp, "--split", split]) == 3
        assert "--split must be" in capsys.readouterr().err


def reference_payload_text(matrix, expected):
    """The JSON the matrix commands wrote when ``computed_spectrum`` came
    from a second eigensolve after the oracle check."""
    tol = VERIFY_RTOL * max(1.0, max_abs(expected))
    report = match_spectra(spectrum(matrix), expected, tol)
    assert report.matched
    payload = {
        "matrix": [[float(v) for v in row] for row in matrix],
        "expected_spectrum": cli._complex_out(expected),
        "computed_spectrum": cli._complex_out(spectrum(matrix)),
        "max_pair_distance": report.max_pair_distance,
        "verified": True,
    }
    return json.dumps(payload, indent=2) + "\n"


def test_payload_writers_give_the_bytes_of_per_entry_floats():
    # tolist gives the Python floats that converting entry by entry gave,
    # signed zeros and extreme magnitudes included, so the JSON is unchanged
    values = np.array([1e300, 1.0, 1e-300, -0.0, 0.0])
    M = np.diag(values)
    M[1, 2] = -0.0
    expected = np.array(
        [complex(1e300, -0.0), complex(1.0, 1e-300), complex(1e-300, -1e300),
         complex(-0.0, -0.0), 0j]
    )

    def old_complex_out(z):
        return [[float(v.real), float(v.imag)] for v in np.asarray(z, complex)]

    assert json.dumps(cli._complex_out(expected)) == json.dumps(
        old_complex_out(expected)
    )
    tol = VERIFY_RTOL * max(1.0, max_abs(values))
    report = match_spectra(spectrum(M), values, tol)
    old = {
        "matrix": [[float(v) for v in row] for row in M],
        "expected_spectrum": old_complex_out(values),
        "computed_spectrum": old_complex_out(spectrum(M)),
        "max_pair_distance": report.max_pair_distance,
        "verified": True,
    }
    got = cli._matrix_payload(M, values)
    assert json.dumps(got, indent=2) == json.dumps(old, indent=2)
    assert "-0.0" in json.dumps(got) and "1e-300" in json.dumps(got)


def rows_reference_text(gamma=1.0, sign=1):
    rows = json.loads((DATA / "rows.json").read_text())
    s, c = np.asarray(rows["circulant_row"]), np.asarray(rows["skew_row"])
    spec = BlockBuildSpec(gamma=gamma, sign=sign)
    expected = np.concatenate(
        [circulant_eigenvalues(s), spec.signed_gamma * skew_eigenvalues(c)]
    )
    return reference_payload_text(build_circ_skew(s, c, spec), expected)


class TestReusedParser:
    ROWS = str(DATA / "rows.json")

    def test_parser_is_built_once_and_factory_stays_fresh(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_bad_arguments_then_good_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["build", self.ROWS, "--sign", "sideways"])
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        with pytest.raises(SystemExit):
            main(["build", self.ROWS, "--gamma"])
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert main(["build", self.ROWS, "--out", str(out)]) == 0
        assert out.read_text() == rows_reference_text()

    def test_no_options_leak_between_calls(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        argv = ["build", self.ROWS, "--gamma=0.5", "--sign=minus", f"--out={out}"]
        assert main(argv) == 0
        assert out.read_text() == rows_reference_text(gamma=0.5, sign=-1)
        # neither gamma, sign nor --out carries over to a plain call
        assert main(["build", self.ROWS]) == 0
        assert capsys.readouterr().out == rows_reference_text()
        assert rows_reference_text() != rows_reference_text(gamma=0.5, sign=-1)

    def test_output_bytes_unchanged(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["build", self.ROWS, f"--out={out}"]) == 0
        assert out.read_text() == rows_reference_text()
        four = DATA / "four.json"
        values = np.asarray([complex(*z) for z in json.loads(four.read_text())])
        assert main(["realize4", str(four), f"--out={out}"]) == 0
        assert out.read_text() == reference_payload_text(realize_four(values), values)


def test_unknown_log_level_warns_and_falls_back(tmp_path):
    # a fresh interpreter: in-process, pytest's own log handlers would keep
    # logging.basicConfig from ever reading the level
    inp = write_json(tmp_path / "in.json", [[8, 0], [-6, 0], [-1, 5], [-1, -5]])
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "NIEPKIT_LOG": "bogus", "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "niepkit", "realize4", inp],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "warning: NIEPKIT_LOG='bogus' is not a logging level; using WARNING"
    ]
    assert json.loads(proc.stdout)["verified"] is True
