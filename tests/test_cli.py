import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixtures as fx
from niepkit import cli, realize
from niepkit._util import SWEEP_RTOL, VERIFY_RTOL, max_abs, slack
from niepkit.blocks import BlockBuildSpec, build_circ_skew, build_even
from niepkit.cli import main
from niepkit.dft import circulant_eigenvalues, skew_eigenvalues
from niepkit.oracle import match_spectra, spectrum
from niepkit.realize import brauer_augment, brauer_plan, realize_four, skew_row_bound
from test_realize import _four_lists, _majorization_edges

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
        assert out.read_text() == "0,1,6,1\n1,0,1,6\n1,6,0,1\n6,1,1,0\n"

    def test_condition_not_met_exits_2(self, tmp_path, capsys):
        inp = write_json(tmp_path / "in.json", [[1, 0], [2, 0], [0, 1], [0, -1]])
        assert main(["realize4", inp]) == 2
        assert "condition not met" in capsys.readouterr().err

    def test_small_scale_violation_exits_2(self, tmp_path, capsys):
        # violated by 8e-13 at scale 1e-9: the inequalities carry no floor
        im = 5e-10 + 4e-13
        inp = write_json(tmp_path / "in.json", [[1e-9, 0], [0, 0], [2e-10, im], [2e-10, -im]])
        assert main(["realize4", inp]) == 2
        assert "lam1 - lam2 >= 2*|Im(lam3)|" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pairs",
        [
            [[1e-9, 0], [3e-13, 0], [0, 0], [0, 0]],
            [[1e-9, 0], [0, 0], [2e-10, 5e-13], [2e-10, -5e-13]],
        ],
    )
    def test_small_scale_pairing_matches_the_list(self, tmp_path, pairs):
        # paired at the list's own scale, not within an absolute 1e-12
        out = tmp_path / "out.json"
        assert main(["realize4", write_json(tmp_path / "in.json", pairs), "--out", str(out)]) == 0
        computed = json.loads(out.read_text())["computed_spectrum"]
        expected = np.array(pairs, float).view(complex)[:, 0]
        tol = 1e-7 * max_abs(expected)
        assert match_spectra(np.array(computed).view(complex)[:, 0], expected, tol).matched

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

    def test_csv_output_is_the_17_digit_text_of_the_json_matrix(self, tmp_path):
        argv = ["realize-region", "--r=0.5", "--a=-0.7", "--b=0.2"]
        out_json, out_csv = tmp_path / "out.json", tmp_path / "out.csv"
        assert main([*argv, f"--out={out_json}"]) == 0
        assert main([*argv, f"--out={out_csv}", "--format=csv"]) == 0
        matrix = json.loads(out_json.read_text())["matrix"]
        want = "".join(",".join("%.17g" % v for v in row) + "\n" for row in matrix)
        assert out_csv.read_text() == want
        # entries that need all 17 digits
        assert any(len(v) > 15 for v in want.replace("\n", ",").split(","))

    def test_outside_point_exits_2(self):
        assert main(["realize-region", "--r", "0", "--a", "0.9", "--b", "0"]) == 2

    def test_bad_r_exits_3(self):
        assert main(["realize-region", "--r", "2", "--a", "0", "--b", "0"]) == 3

    def test_r_that_is_not_a_number_exits_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["realize-region", "--r", "x", "--a", "0", "--b", "0"])
        assert exc.value.code == 3
        assert "invalid float value: 'x'" in capsys.readouterr().err

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

    def test_repeated_axis_exits_3(self, capsys):
        # once read as the last r given, so the sweep ran r = 0 only
        assert main(["region-sweep", "--grid", "r=0:1:2,r=0:0:1,a=0:0:1,b=0:0:1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: grid axis 'r' is given twice\n"

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
        assert payload["computed_spectrum"] == pairs(spectrum(M))
        assert out.read_text() == rows_reference_text("rows_32.json")

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

    def test_csv_output(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["build", str(DATA / "rows.json"), f"--out={out}", "--format=csv"]) == 0
        assert out.read_text() == (
            "0.5,1.5,2.5,1.5,0,0,1.5,0.5\n"
            "1.5,0.5,1.5,2.5,0,0,0.5,1.5\n"
            "0.5,1.5,0.5,1.5,2.5,1.5,0,0\n"
            "1.5,0.5,1.5,0.5,1.5,2.5,0,0\n"
            "0,0,0.5,1.5,0.5,1.5,2.5,1.5\n"
            "0,0,1.5,0.5,1.5,0.5,1.5,2.5\n"
            "1.5,2.5,0,0,0.5,1.5,0.5,1.5\n"
            "2.5,1.5,0,0,1.5,0.5,1.5,0.5\n"
        )

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
        assert capsys.readouterr().err == "input error: --split must be finite\n"

    def test_general_pair_with_sign(self, tmp_path):
        inp = write_json(
            tmp_path / "in.json",
            {"S": [[2.0, 1.0], [1.0, 2.0]], "C": [[1.0, -1.0], [0.5, 1.0]]},
        )
        assert main(["build", inp, "--gamma", "0.5", "--sign", "minus"]) == 0

    def test_nilpotent_pair_verifies_at_zero_tolerance(self, tmp_path):
        # every expected eigenvalue is 0, so the oracle's tolerance is 0.0
        inp = write_json(
            tmp_path / "in.json", {"S": [[0.0, 1.0], [0.0, 0.0]], "C": [[0.0, 0.5], [0.0, 0.0]]}
        )
        out = tmp_path / "out.json"
        assert main(["build", inp, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["max_pair_distance"] == 0.0

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
            {"circulant": pairs([5.0, -5.5]), "skew": pairs([0.0, 0.0])},
        )
        assert main(["check", inp]) == 2

    def test_multiset_pair_exits_0(self, tmp_path):
        # the head is third and the skew part out of layout: both are read
        # as multisets, and the witness indexes them as given
        out = tmp_path / "report.json"
        assert main(["check", str(DATA / "multiset_pair.json"), "--out", str(out)]) == 0
        witness = json.loads(out.read_text())["witness"]
        assert witness["alpha"] == [2, 0, 1, 3]
        assert witness["beta"] == [1, 0, 2]

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
        report = {"satisfied": True, "witness": witness}
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"

    def test_list_with_negative_trace_exits_2(self, tmp_path, capsys):
        # the trace of {10, 0, -9, -9} is -8: no nonnegative matrix has it
        inp = write_json(
            tmp_path / "in.json", {"circulant": [[10, 0], [0, 0]], "skew": [[-9, 0], [-9, 0]]}
        )
        assert main(["check", inp]) == 2
        assert capsys.readouterr().out == '{\n  "satisfied": false,\n  "witness": null\n}\n'

    @pytest.mark.parametrize("scale", [1.0, 1e9])
    def test_negative_trace_below_scale_1_exits_2(self, tmp_path, capsys, scale):
        # {1e-9, -1.0008e-9, 0, 0} has trace -8e-13; its circulant row
        # (-4e-13, 1.0004e-9) is negative at every scale, with no floor
        # to hide it below scale 1
        lam = [[1e-9 * scale, 0], [-1.0008e-9 * scale, 0]]
        inp = write_json(tmp_path / "in.json", {"circulant": lam, "skew": [[0, 0], [0, 0]]})
        assert main(["check", inp]) == 2
        assert capsys.readouterr().out == '{\n  "satisfied": false,\n  "witness": null\n}\n'

    def test_even_miss_at_n_10_exits_2(self, capsys):
        # no skew row fits under the envelope of the live alphas after the
        # first, so the search joins no pair past the first alpha
        assert main(["check", str(DATA / "miss_10.json")]) == 2
        assert capsys.readouterr().out == '{\n  "satisfied": false,\n  "witness": null\n}\n'

    def test_mode_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(DATA / "even_pair.json"), "--mode", "formula"])
        assert exc.value.code == 3
        assert "unrecognized arguments: --mode formula" in capsys.readouterr().err


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

    def test_checked_in_plan(self, tmp_path):
        # the README tour's Brauer input: the skew spectrum of (4, -2, 1),
        # a zero tail and rho = 4*chi
        data = json.loads((DATA / "plan.json").read_text())
        ups = np.array([complex(*z) for z in data["skew"]])
        assert np.array_equal(ups, skew_eigenvalues([4.0, -2.0, 1.0]))
        chi = realize.skew_row_bound(ups)
        assert data["tail"] == [[0.0, 0.0]] * 3 and data["rho"] == 4 * chi
        out = tmp_path / "out.json"
        assert main(["augment", str(DATA / "plan.json"), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["verified"] is True and payload["chi"] == chi
        assert payload["matrix"] == brauer_augment(ups, [0, 0, 0], 4 * chi).tolist()

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

    def test_wrong_spectrum_below_scale_1_exits_2(self, tmp_path, capsys):
        # {1e-9, 2e-9} is not {5e-9, -3e-9}: the default tolerance is judged
        # at the claim's own scale, with no floor
        claimed = [[5e-9, 0.0], [-3e-9, 0.0]]
        inp = write_json(
            tmp_path / "in.json", {"matrix": [[1e-9, 0.0], [0.0, 2e-9]], "spectrum": claimed}
        )
        assert main(["verify", inp]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["matched"] is False
        tol = slack(SWEEP_RTOL, np.array(claimed).view(complex)[:, 0])
        assert payload["tolerance"] == tol == SWEEP_RTOL * 5e-9
        assert payload["max_pair_distance"] > tol

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0.0, 0.0], [0.0, 0.0]],
            [[0.0, 1.0], [0.0, 0.0]],
            [[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]],
            [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [5.0, 6.0, 0.0]],
        ],
        ids=["zero", "nilpotent-2", "upper-3", "lower-3"],
    )
    def test_zero_claim_has_zero_tolerance_and_matches(self, tmp_path, capsys, matrix):
        # a strictly triangular matrix has exactly zero eigenvalues
        inp = write_json(
            tmp_path / "in.json", {"matrix": matrix, "spectrum": [[0.0, 0.0]] * len(matrix)}
        )
        assert main(["verify", inp]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"matched": True, "max_pair_distance": 0.0, "tolerance": 0.0}


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


#: An integer JSON number that no float64 holds: 1 and 400 zeros.
_HUGE = "1" + "0" * 400


#: Inputs with one number out of range, each marked "x", and the key named.
_OUT_OF_RANGE = [
    pytest.param(
        ["build"], {"circulant_row": ["x", 0], "skew_row": [0, 0]}, "circulant_row", id="build"
    ),
    pytest.param(
        ["build", "--split", f"[[{_HUGE}, 0]]"], {"S": [[2.0]], "skew_row": [1.0]}, "--split",
        id="build-split",
    ),
    pytest.param(["augment"], {"skew": [[1, 0]], "tail": [[0, 0]], "rho": "x"}, "rho", id="augment"),
    pytest.param(
        ["check"], {"circulant": [["x", 0], [0, 0]], "skew": [[0, 0], [0, 0]]}, "circulant",
        id="check",
    ),
    pytest.param(["verify"], {"matrix": [["x"]], "spectrum": [[1, 0]]}, "matrix", id="verify"),
    pytest.param(["realize4"], [["x", 0], [0, 0], [0, 0], [0, 0]], "spectrum", id="realize4"),
]


@pytest.mark.parametrize("argv, payload, name", _OUT_OF_RANGE)
def test_integer_beyond_the_float_range_exits_3(tmp_path, capsys, argv, payload, name):
    # once an OverflowError traceback and exit 1; "x" marks the huge integer
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload).replace('"x"', _HUGE), encoding="utf-8")
    assert main([argv[0], str(inp), *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {name} must be finite\n"


@pytest.mark.parametrize("number", ["1e999", "-1e999", "NaN", "Infinity"])
@pytest.mark.parametrize("argv, payload, name", _OUT_OF_RANGE)
def test_nonfinite_number_names_its_key(tmp_path, capsys, argv, payload, name, number):
    # once "s_row must have finite entries" or "list must have finite
    # entries", the names of library parameters, and for --split the
    # builder's "last_row_split parts must be finite"
    inp = tmp_path / "in.json"
    argv = [arg.replace(_HUGE, number) for arg in argv]
    inp.write_text(json.dumps(payload).replace('"x"', number), encoding="utf-8")
    assert main([argv[0], str(inp), *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {name} must be finite\n"


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

    @pytest.mark.parametrize("bad", [True, "3", [3.0], None], ids=["bool", "str", "list", "null"])
    @pytest.mark.parametrize(
        "command, payload, name",
        [
            ("build", {"circulant_row": [1.0, "x"], "skew_row": [0.5, 0.0]}, "circulant_row"),
            ("build", {"S": [[2.0, 0], [0, "x"]], "skew_row": [0.5]}, "S"),
            ("verify", {"matrix": [["x", 0.0], [0.0, 1.0]], "spectrum": [[1.0, 0.0]]}, "matrix"),
        ],
        ids=["build-vector", "build-matrix", "verify-matrix"],
    )
    def test_entry_types_refused_with_the_same_message(
        self, tmp_path, capsys, bad, command, payload, name
    ):
        # "x" marks the entry replaced by each bad JSON value in turn
        text = json.dumps(payload).replace('"x"', json.dumps(bad))
        inp = tmp_path / "in.json"
        inp.write_text(text, encoding="utf-8")
        assert main([command, str(inp)]) == 3
        assert capsys.readouterr().err == f"input error: {name} entries must be numbers\n"

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
    tol = slack(VERIFY_RTOL, expected)
    report = match_spectra(spectrum(matrix), expected, tol)
    assert report.matched
    payload = {
        "matrix": [[float(v) for v in row] for row in matrix],
        "expected_spectrum": pairs(expected),
        "computed_spectrum": pairs(spectrum(matrix)),
        "max_pair_distance": report.max_pair_distance,
        "verified": True,
    }
    return json.dumps(payload, indent=2) + "\n"


def test_payload_writers_give_the_bytes_of_per_entry_floats():
    # the payload's arrays are written as the Python floats that converting
    # entry by entry gave, signed zeros and extreme magnitudes included
    values = np.array([1e300, 1.0, 1e-300, -0.0, 0.0])
    M = np.diag(values)
    M[1, 2] = -0.0
    expected = np.array(
        [complex(1e300, -0.0), complex(1.0, 1e-300), complex(1e-300, -1e300),
         complex(-0.0, -0.0), 0j]
    )

    def old_complex_out(z):
        return [[float(v.real), float(v.imag)] for v in np.asarray(z, complex)]

    assert cli._json_text(cli._complex_out(expected)) == json.dumps(
        old_complex_out(expected), indent=2
    )
    tol = slack(VERIFY_RTOL, values)
    report = match_spectra(spectrum(M), values, tol)
    old = {
        "matrix": [[float(v) for v in row] for row in M],
        "expected_spectrum": old_complex_out(values),
        "computed_spectrum": old_complex_out(spectrum(M)),
        "max_pair_distance": report.max_pair_distance,
        "verified": True,
    }
    got = cli._json_text(cli._matrix_payload(M, values))
    assert got == json.dumps(old, indent=2)
    assert "-0.0" in got and "1e-300" in got


_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
    math.inf, -math.inf, math.nan, 0.1, 1.0,
]
_JSON_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | _JSON_FLOATS | st.text()
    | st.sampled_from(['say "hi"', "a\nb", "\\", "é€\U0001f600", "\x00\t"])
)


@st.composite
def _grids(draw):
    """Grids drawn from a pool of at most four floats, so most entries
    repeat and signed zeros meet; a nonfinite pool member is drawn too."""
    pool = draw(st.lists(_JSON_FLOATS, min_size=1, max_size=4))
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 6))
    entry = st.sampled_from(pool)
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


# ragged, empty and mixed int/float lists of lists: not grids
_NEAR_GRIDS = st.lists(
    st.lists(st.integers() | _JSON_FLOATS, max_size=4), min_size=1, max_size=4
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | _grids() | _NEAR_GRIDS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None)
@given(value=_JSON_VALUES)
@example(value={"matrix": [[0.0, -0.0], [-0.0, 0.0]], "witness": {"alpha": [0, 1]}})
@example(value={"a": {1: [[1.0]], "b": {}}, "c": [], "d": [[]]})
@example(value=[[1.0, 2], [3.0, 4.0]])
def test_writer_gives_the_bytes_of_json_dumps(value):
    # json.dumps(value, indent=2) is the writer's test-only reference
    assert cli._json_text(value) == json.dumps(value, indent=2)


_ARRAY_FLOATS = st.sampled_from([x for x in _EDGE_FLOATS if math.isfinite(x)]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def _arrays(draw):
    """1-D and 2-D float arrays of 1 to 64 rows from a pool of at most four
    floats, so entries repeat; some pools hold a nonfinite float."""
    pool = draw(st.lists(_ARRAY_FLOATS, min_size=1, max_size=4))
    if draw(st.booleans()):
        pool.append(draw(st.sampled_from([math.inf, -math.inf, math.nan])))
    shape = (draw(st.integers(1, 64)),) + draw(st.sampled_from([(), (1,), (2,), (5,)]))
    return np.asarray(pool)[draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=math.prod(shape), max_size=math.prod(shape)
    ))].reshape(shape)


_PAYLOADS = st.dictionaries(
    st.text(max_size=8),
    _arrays() | st.lists(_ARRAY_FLOATS | st.integers(), min_size=1, max_size=6)
    | _JSON_SCALARS,
    min_size=1, max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(value=_arrays() | _PAYLOADS)
@example(value=np.array([[0.0, -0.0], [-0.0, 0.0]]))
@example(value=np.array([[math.nan, 1.0]]))
@example(value={"m": np.zeros((3, 0)), "v": np.arange(3), "f": np.array(0.5), "s": "x"})
def test_writer_reads_arrays_as_their_tolist(value):
    # the reference reads each array, which json cannot write, as its tolist()
    want = json.dumps(value, indent=2, default=lambda a: a.tolist())
    assert cli._json_text(value) == want


def rows_reference_text(name="rows.json", gamma=1.0, sign=1):
    rows = json.loads((DATA / name).read_text())
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
        # a malformed command line is an input error: exit 3
        for argv in (
            ["build", self.ROWS, "--sign", "sideways"],
            ["no-such-command"],
            ["build", self.ROWS, "--gamma"],
            ["build"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 3
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert main(["build", self.ROWS, "--out", str(out)]) == 0
        assert out.read_text() == rows_reference_text()

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: niepkit")

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


def test_main_reads_no_environment_and_adds_no_log_handler(tmp_path):
    # a fresh interpreter: in-process, pytest's own log handlers would keep
    # logging.basicConfig from adding one
    inp = write_json(tmp_path / "in.json", [[8, 0], [-6, 0], [-1, 5], [-1, -5]])
    out = tmp_path / "out.json"
    code = (
        "import logging, sys\n"
        "from niepkit.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, len(logging.getLogger().handlers))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "NIEPKIT_LOG": "bogus", "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code, "realize4", inp, f"--out={out}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.stderr == ""
    assert proc.stdout == "0 0\n"
    assert json.loads(out.read_text())["matrix"] == fx.FOUR_A_MATRIX.tolist()


class TestVerificationFailureExits4:
    """The exit-4 paths, reached by an oracle that disagrees with the build
    (a shifted spectrum) or whose eigensolver fails."""

    @pytest.fixture
    def shifted(self, monkeypatch):
        monkeypatch.setattr(cli, "spectrum", lambda M: spectrum(M) + 1.0)

    def test_build(self, shifted, capsys):
        assert main(["build", str(DATA / "rows.json")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "internal verification failure: constructed matrix failed spectrum "
            "verification (max pair distance "
        )

    def test_region_sweep(self, shifted, capsys):
        assert main(["region-sweep", "--grid", "r=0:1:2,a=0:0:2,b=0:0:2"]) == 4
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "r,a,b,in_region,verified"
        assert len(lines) == 9
        assert all(line.endswith(",1,0") for line in lines[1:])
        assert captured.err == (
            "internal verification failure: 8 in-region points failed verification\n"
        )

    def test_verify_when_the_eigensolver_fails(self, monkeypatch, capsys):
        def fail(matrix):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        assert main(["verify", str(DATA / "claim_16.json")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal verification failure: eigenvalue iteration failed: "
            "no convergence\n"
        )


@pytest.mark.parametrize(
    "command, payload, message",
    [
        (
            "check",
            {"circulant": [], "skew": [[1.0, 0.0]]},
            "circulant must be a nonempty JSON array of [re, im] pairs",
        ),
        (
            "build",
            {"circulant_row": [], "skew_row": [1.0]},
            "circulant_row must be a nonempty JSON array of numbers",
        ),
        (
            "verify",
            {"matrix": [], "spectrum": [[1.0, 0.0]]},
            "matrix must be a nonempty row-major JSON array of arrays",
        ),
    ],
    ids=["check-circulant", "build-circulant_row", "verify-matrix"],
)
def test_empty_array_exits_3(tmp_path, capsys, command, payload, message):
    inp = write_json(tmp_path / "in.json", payload)
    assert main([command, inp]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def _scaled(data, t):
    """``data`` with every number in it multiplied by ``t``."""
    if isinstance(data, dict):
        return {key: _scaled(value, t) for key, value in data.items()}
    if isinstance(data, list):
        return [_scaled(value, t) for value in data]
    return data * t


@st.composite
def _build_rows_inputs(draw):
    """Paired rows with ``s = |c| + u``, ``u`` from -0.1 up, so some entry
    may fail ``|c| <= s``, for the even build."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    c = rng.uniform(-1.0, 1.0, size=n)
    s = np.abs(c) + rng.uniform(-0.1, 1.0, size=n)
    return {"circulant_row": s.tolist(), "skew_row": c.tolist()}


@st.composite
def _build_bordered_inputs(draw):
    """``S`` of order n + 1 from ``max|c| + u``, ``u`` from -0.1 up, and a
    skew row ``c``, for the bordered build."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    c = rng.uniform(-1.0, 1.0, size=n)
    S = np.abs(c).max() + rng.uniform(-0.1, 1.0, size=(n + 1, n + 1))
    return {"S": S.tolist(), "skew_row": c.tolist()}


@st.composite
def _augment_inputs(draw):
    """A skew spectrum, the tail of a nonnegative circulant's spectrum and a
    rho within 1 of the least one that the tail's own circulant gives."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    ups = skew_eigenvalues(rng.uniform(-1.0, 1.0, size=n))
    lam = circulant_eigenvalues(rng.uniform(0.0, 1.0, size=n + 1))
    rho = (n + 1) * skew_row_bound(ups) + lam[0].real + rng.uniform(-1.0, 1.0)
    return {"skew": pairs(ups), "tail": pairs(lam[1:]), "rho": rho}


@st.composite
def _verify_inputs(draw):
    """The block build of diagonal S and C with its spectrum, true or with
    one diagonal entry, or a mirrored pair, moved by 6 to 100 tolerances."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    s, c = rng.uniform(1.0, 2.0, size=n), rng.uniform(-1.0, 1.0, size=n)
    M = build_even(np.diag(s), np.diag(c))
    expected = np.concatenate([s, c])
    moved = draw(st.sampled_from(["none", "one", "mirrored"]))
    delta = (moved != "none") * draw(st.floats(6.0, 100.0)) * slack(SWEEP_RTOL, expected)
    M[0, 0] += delta
    if moved == "mirrored":
        M[1, 1] += delta
    return {"matrix": M.tolist(), "spectrum": pairs(expected)}


_FLAGS = st.sampled_from([[], ["--gamma=0.5"], ["--sign=minus"], ["--gamma=0.75", "--sign=minus"]])

#: Inputs of each command that reads only numbers with a scale, drawn at
#: scale 1 with either outcome, exit 0 or 2; the options are ratios.
_SCALABLE_INPUTS = {
    "build-rows": st.tuples(st.just(["build"]), _FLAGS, _build_rows_inputs()),
    "build-bordered": st.tuples(st.just(["build"]), _FLAGS, _build_bordered_inputs()),
    "check": st.tuples(
        st.just(["check"]),
        st.just([]),
        _majorization_edges().map(
            lambda pair: {"circulant": pairs(pair.circulant_part), "skew": pairs(pair.skew_part)}
        ),
    ),
    "augment": st.tuples(st.just(["augment"]), _FLAGS, _augment_inputs()),
    "realize4": st.tuples(
        st.just(["realize4"]),
        st.just([]),
        _four_lists().map(lambda lams: pairs([*lams[:2], lams[2], lams[2].conjugate()])),
    ),
    "verify": st.tuples(st.just(["verify"]), st.just([]), _verify_inputs()),
}


@pytest.mark.parametrize("case", sorted(_SCALABLE_INPUTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(-60, 60))
def test_exit_code_is_unchanged_by_scaling_the_input_by_a_power_of_2(
    tmp_path_factory, case, data, k
):
    # every tolerance scales with its operands, so the verdict of t*input
    # is the verdict of the input; LAPACK is not bit-equivariant under 2^k,
    # so the distances may move in their last bits but not the exit code
    command, flags, payload = data.draw(_SCALABLE_INPUTS[case])
    tmp = tmp_path_factory.mktemp("scaled")
    codes = []
    for name, value in (("in.json", payload), ("scaled.json", _scaled(payload, 2.0**k))):
        inp = write_json(tmp / name, value)
        codes.append(main([*command, inp, *flags, "--out", str(tmp / "out.json")]))
    assert codes[0] in (0, 2)
    assert codes[1] == codes[0]
