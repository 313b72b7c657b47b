import cmath
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest

from slchar.cli import build_parser, main, parse_number
from slchar.words import MAX_WORD_LETTERS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_error_line(code, out, err):
    """Exit 1 with one ``error:`` line and no traceback."""
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestTracePoly:
    def test_commutator(self, capsys):
        code, out, _ = run(capsys, "trace-poly", "X Y x y")
        assert code == 0
        assert out.strip() == "-x*y*z + x^2 + y^2 + z^2 - 2"

    def test_square(self, capsys):
        code, out, _ = run(capsys, "trace-poly", "X X")
        assert code == 0
        assert out.strip() == "x^2 - 2"

    def test_rank3(self, capsys):
        code, out, _ = run(capsys, "trace-poly", "--rank", "3", "X1 X3 X2")
        assert code == 0
        assert out.strip() == "-x1*x2*x3 + x1*x23 + x2*x13 + x3*x12 - x123"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "trace-poly", "--json", "X Y")
        data = json.loads(out)
        assert data["variables"] == ["x", "y", "z"]
        assert data["terms"] == [{"exp": [0, 0, 1], "num": 1, "den": 1}]

    def test_syntax_error_is_usage(self, capsys):
        code, _, err = run(capsys, "trace-poly", "X #")
        assert code == 2
        assert "position" in err

    def test_huge_exponent_is_usage_error(self, capsys):
        code, out, err = run(capsys, "trace-poly", f"X^{MAX_WORD_LETTERS + 1}")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("word", ["X" + "2" * 5000, "X^" + "7" * 5000])
    def test_oversized_number_is_usage_error(self, capsys, word):
        code, out, err = run(capsys, "trace-poly", word)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_long_conjugate_is_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "trace-poly", "X^49000 Y X^-49000")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and err == ""
        assert out == "y\n"

    def test_deep_word_is_error_not_traceback(self, capsys):
        # the iterative engine traces deep words: tr(X^600) = 2 T_600(x/2)
        code, out, err = run(capsys, "trace-poly", "X^600")
        assert code == 0
        assert out.startswith("x^600 - 600*x^598 ")
        assert out.rstrip("\n").endswith(" + 2")
        assert err == ""


class TestEvalWord:
    def test_matrices_inline(self, capsys):
        mats = json.dumps([
            {"re": [[1, 1], [0, 1]], "im": [[0, 0], [0, 0]]},
            {"re": [[1, 0], [1, 1]], "im": [[0, 0], [0, 0]]},
        ])
        code, out, _ = run(
            capsys, "eval-word", "X Y x y", "--matrices", mats, "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["trace"].startswith("3")

    def test_seeded(self, capsys):
        code1, out1, _ = run(capsys, "eval-word", "X Y", "--seed", "5", "--json")
        code2, out2, _ = run(capsys, "eval-word", "X Y", "--seed", "5", "--json")
        assert code1 == code2 == 0
        assert out1 == out2


class TestConstruct:
    def test_pair(self, capsys):
        code, out, _ = run(capsys, "construct", "pair", "1", "2", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["character"]["x"].startswith("1")
        assert data["character"]["z"].startswith("3")

    def test_triple(self, capsys):
        code, out, _ = run(
            capsys, "construct", "triple", "2", "2", "2", "2", "2", "2", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"xi1", "xi2", "xi3", "character"}

    def test_rational_literals(self, capsys):
        code, out, _ = run(capsys, "construct", "pair", "5/2", "2", "2", "--json")
        assert code == 0
        assert json.loads(out)["character"]["x"].startswith("2.5")

    @pytest.mark.parametrize("z", ["-1e6", "-1e12"])
    def test_pair_large_negative_product_trace(self, capsys, z):
        code, out, _ = run(capsys, "construct", "pair", "1", "2", z, "--json")
        assert code == 0
        got = complex(json.loads(out)["character"]["z"].replace("i", "j"))
        assert abs(got - float(z)) <= 1e-12 * (1 + abs(float(z)))


class TestFricke:
    def test_s03_member(self, capsys):
        code, out, _ = run(
            capsys, "fricke", "test", "s03", "--coords=-3,-3,-3"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "member-slice"

    def test_s04_witness(self, capsys):
        code, out, _ = run(
            capsys, "fricke", "test", "s04", "--coords=2,2,2,2,-3,2,7",
            "--report-only",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "nonmember-wrong-component"
        assert data["residual"] == 0

    def test_s04_exact_underflowing_s_plus_minus(self, capsys):
        # S+ = 1e-330 and S- = -1e-330: opposite signs, both below the
        # smallest float
        eps = Fraction(1, 10**330)
        y, z = (-16 - eps - eps / 5) / 2, (-16 - eps + eps / 5) / 2
        code, out, _ = run(capsys, "fricke", "test", "s04", f"--coords=2,2,2,2,-3,{y},{z}",
                           "--mode", "exact")
        assert code == 1
        assert json.loads(out)["verdict"] == "nonmember-off-variety"

    def test_s12_exact_kappa_just_below_minus_two(self, capsys):
        from test_fricke import TestS12Exact

        coords = ",".join(map(str, TestS12Exact.POINT))
        code, out, _ = run(capsys, "fricke", "test", "s12", f"--coords={coords}",
                           "--mode", "exact")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "member" and data["kappas"][0] == -2.0

    @pytest.mark.parametrize("surface, coords", [
        ("s04", "2,2,2,2,-1e200,1e200,1e200"),
        ("s12", ",".join(["1e200"] * 8)),
    ])
    def test_nan_residual_is_off_variety(self, capsys, surface, coords):
        code, out, _ = run(capsys, "fricke", "test", surface, f"--coords={coords}")
        assert code == 1
        assert json.loads(out)["verdict"] == "nonmember-off-variety"
        assert "NaN" in out

    def test_s12_coords_in_documented_order(self, capsys):
        # the c11s12 image of (p, q, r) = (3, 3.5, 2.5), in the order that
        # the --coords help names, not the "source" order of cover map
        with pytest.raises(SystemExit):
            main(["fricke", "test", "--help"])
        order = re.search(r"s12:\s+([a-z,]+);", capsys.readouterr().out).group(1)
        assert order == "a,b,u,x,y,v,w,z"
        code, out, _ = run(capsys, "cover", "map", "c11s12", "--eval", "p=3,q=3.5,r=2.5")
        image = {n: complex(v.replace("i", "j")).real
                 for n, v in json.loads(out)["evaluation"].items()}
        coords = ",".join(str(image[n]) for n in order.split(","))
        code, out, _ = run(capsys, "fricke", "test", "s12", f"--coords={coords}")
        assert code == 0
        assert json.loads(out)["verdict"] == "member"

    def test_nonmember_exit_code(self, capsys):
        code, out, _ = run(capsys, "fricke", "test", "s11", "--coords=3,3,10")
        assert code == 1

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "fricke", "test", "s03", "--coords=1,2")
        assert code == 1

    def test_exact_coords(self, capsys):
        code, out, _ = run(
            capsys, "fricke", "test", "c02", "--coords=2,2,-2"
        )
        assert code == 0
        assert json.loads(out)["member"] is True


class TestNegativePositionals:
    """Numbers that argparse would read as options: the same output as
    after ``--``."""

    @pytest.mark.parametrize("head, numbers, options", [
        (("construct", "triple"), ("-7/2", "1", "1", "1", "1", "1"), ()),
        (("construct", "pair"), ("-1/2", "3", "3"), ()),
        (("construct", "pair"), ("-1e-3", "-3", "-2.5E0"), ("--json",)),
        (("construct", "triple"), ("-.5", "2", "-7/3", "2", "2", "-1_0"), ("--branch", "-")),
        (("fn2trace",), ("1", "-1e-3"), ()),
        (("fn2trace",), ("2", "-1/3", "4e-1"), ("--json",)),
    ])
    def test_same_as_after_double_dash(self, capsys, head, numbers, options):
        plain = run(capsys, *head, *numbers, *options)
        dashed = run(capsys, *head, *options, "--", *numbers)
        assert plain == dashed and plain[0] == 0

    @pytest.mark.parametrize("argv", [("construct", "pair", "--bogus", "3", "3"),
                                      ("fn2trace", "1", "2", "--bogus")])
    def test_unknown_option_still_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "--bogus" in capsys.readouterr().err


class TestFn2Trace:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "fn2trace", "2.0", "0.0", "0.0", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["kappa"] == pytest.approx(-2)

    def test_text(self, capsys):
        code, out, _ = run(capsys, "fn2trace", "1.0", "0.5")
        assert code == 0
        assert out.startswith("x = ")


class TestCover:
    def test_symbolic_check(self, capsys):
        for name in ("c02s04", "c11s12", "embed", "deck"):
            code, out, _ = run(
                capsys, "cover", "map", name, "--symbolic-check"
            )
            assert code == 0
            data = json.loads(out)
            assert all(data["symbolic_check"].values())

    def test_eval(self, capsys):
        code, out, _ = run(
            capsys, "cover", "map", "embed", "--eval", "x1=2,x2=2,x12=2"
        )
        assert code == 0
        data = json.loads(out)
        assert all(v.startswith("2") for v in data["evaluation"].values())


class TestVerify:
    def test_all_suites_pass(self, capsys):
        for suite in ("identities", "oracle", "fricke", "covers", "coxeter"):
            code, out, _ = run(
                capsys, "verify", suite, "--trials", "20", "--seed", "7",
                "--tolerance", "1e-7",
            )
            assert code == 0, (suite, out)
            assert "result=pass" in out

    def test_determinism(self, capsys):
        args = ("verify", "oracle", "--trials", "15", "--seed", "99")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope"])
        assert exc.value.code == 2

    def test_negative_tolerance_is_usage_error(self, capsys):
        # a negative tolerance would fail even the exact rows, whose residual is 0
        with pytest.raises(SystemExit) as exc:
            main(["verify", "identities", "--tolerance", "-1"])
        assert exc.value.code == 2
        assert "--tolerance must be >= 0" in capsys.readouterr().err
        code, out, _ = run(capsys, "verify", "identities", "--mode", "exact", "--trials", "2",
                           "--tolerance", "0")
        assert code == 0 and "result=pass" in out

    def test_exact_mode_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify", "covers", "--trials", "5", "--seed", "1",
            "--mode", "exact",
        )
        assert code == 0

    def test_exact_oracle_residual_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "oracle", "--trials", "20", "--seed", "3",
            "--mode", "exact",
        )
        assert code == 0
        for line in out.splitlines():
            if "max-residual" in line:
                assert "max-residual=0.0" in line

    def test_exact_oracle_residual_is_absolute(self, capsys, monkeypatch):
        # A wrong constant term is an error of exactly 1.  The one rank-2
        # word of seed 4 has an exact trace of about 3.6e9, so a residual
        # scaled by 1 + |t| would hide that error below the tolerance.
        from slchar import tracepoly

        true_f2 = tracepoly.trace_poly_f2
        monkeypatch.setattr(tracepoly, "trace_poly_f2", lambda w: true_f2(w) + 1)
        code, out, _ = run(
            capsys, "verify", "oracle", "--trials", "1", "--seed", "4",
            "--mode", "exact",
        )
        assert code == 1
        assert "oracle/rank2-words: max-residual=1.00000000000000000e+00 FAIL" in out

    def test_exact_identities_residual_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "identities", "--trials", "20", "--seed", "3",
            "--mode", "exact",
        )
        assert code == 0
        assert out.count("max-residual=0.0") == 4

    def test_exact_identities_catch_a_wrong_adjugate_sign(self, capsys, monkeypatch):
        # the exact suite runs on integer numerators through mat2.adjoint;
        # an adjugate that keeps the sign of its upper right entry must FAIL
        from slchar import mat2

        true_adjoint = mat2.adjoint
        monkeypatch.setattr(mat2, "adjoint", lambda m: true_adjoint(m) * [[1, -1], [1, 1]])
        code, out, _ = run(capsys, "verify", "identities", "--trials", "5", "--mode", "exact")
        assert code == 1
        assert "identities/basic-identity: max-residual=" in out
        assert "identities/basic-identity: max-residual=0.0" not in out
        assert out.count(" FAIL") == 2 and out.endswith("result=FAIL\n")

    @pytest.mark.parametrize("helper, wrong", [
        ("_adjugate", lambda n: (n[3], n[1], -n[2], n[0])),
        ("_mul", lambda n, k: (n[0] * k[0] + n[1] * k[2], n[0] * k[1] - n[1] * k[3],
                               n[2] * k[0] + n[3] * k[2], n[2] * k[1] + n[3] * k[3])),
    ])
    def test_exact_oracle_catches_a_wrong_int_tuple_helper(self, capsys, monkeypatch,
                                                            helper, wrong):
        from slchar import mat2

        monkeypatch.setattr(mat2, helper, wrong)
        code, out, _ = run(capsys, "verify", "oracle", "--trials", "5", "--mode", "exact")
        assert code == 1
        assert "oracle/rank2-words:" in out and " FAIL" in out

    def test_rows_report_their_maximum_in_first_yield_order(self, capsys, monkeypatch):
        from slchar import cli

        def planted(cfg):
            yield from [("b", 0.5), ("a", 0.25), ("b", 2.0), ("a", 0.75),
                        ("c", 0.0), ("b", 1.0), ("a", 0.5)]

        monkeypatch.setitem(cli._SUITES, "oracle", planted)
        code, out, _ = run(capsys, "verify", "oracle", "--trials", "3", "--seed", "5",
                           "--tolerance", "1")
        assert code == 1
        assert out.splitlines() == [
            "oracle/b: max-residual=2.00000000000000000e+00 FAIL",
            "oracle/a: max-residual=7.50000000000000000e-01 pass",
            "oracle/c: max-residual=0.00000000000000000e+00 pass",
            "suite=oracle trials=3 seed=5 tolerance=1 mode=float result=FAIL",
        ]
        code, out, _ = run(capsys, "verify", "oracle", "--trials", "3", "--seed", "5",
                           "--tolerance", "2")
        assert code == 0
        assert out.splitlines()[0] == "oracle/b: max-residual=2.00000000000000000e+00 pass"
        assert out.splitlines()[-1].endswith("result=pass")


def test_python_dash_m_runs_the_cli():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "slchar", "trace-poly", "X Y x y"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "-x*y*z + x^2 + y^2 + z^2 - 2"


class TestNumberParsing:
    def test_rational(self):
        assert parse_number("3/2") == 1.5
        assert parse_number("-7/4") == -1.75

    def test_decimal(self):
        assert parse_number("2.5") == 2.5

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_refused(self, text):
        with pytest.raises(ValueError, match="not a finite number"):
            parse_number(text)


class TestRepeatedCalls:
    """``main`` builds its parser once, and no call leaks options into the next."""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_verify_options_do_not_leak(self, capsys):
        code, out, _ = run(capsys, "verify", "identities", "--mode", "exact", "--trials", "2")
        assert code == 0 and out.splitlines()[-1].endswith("mode=exact result=pass")
        code, out, _ = run(capsys, "verify", "identities", "--seed", "5", "--trials", "2")
        assert code == 0 and " seed=5 " in out and "mode=float" in out
        code, out, _ = run(capsys, "verify", "identities", "--trials", "2")
        assert code == 0
        assert out.splitlines()[-1] == (
            "suite=identities trials=2 seed=0 tolerance=1e-08 mode=float result=pass")

    def test_options_do_not_leak_across_subcommands(self, capsys):
        code, out, _ = run(capsys, "trace-poly", "--rank", "3", "--json", "X1 X2")
        assert code == 0 and json.loads(out)["variables"][0] == "x1"
        code, out, _ = run(capsys, "verify", "identities", "--mode", "exact", "--trials", "2")
        assert code == 0 and out.splitlines()[-1].endswith("mode=exact result=pass")
        code, out, _ = run(capsys, "trace-poly", "X Y")
        assert (code, out) == (0, "z\n")
        code, out, _ = run(capsys, "eval-word", "X", "--seed", "3")
        assert code == 0
        code, out, _ = run(capsys, "verify", "identities", "--trials", "2")
        assert code == 0
        assert out.splitlines()[-1] == (
            "suite=identities trials=2 seed=0 tolerance=1e-08 mode=float result=pass")
        code, out, _ = run(capsys, "fricke", "test", "s11", "--coords=1,1,1", "--report-only")
        assert code == 0 and json.loads(out)["verdict"] == "nonmember"
        code, out, _ = run(capsys, "fricke", "test", "s11", "--coords=1,1,1")
        assert code == 1


class TestNoTraceback:
    """Bad input ends in one ``error:`` line and exit 1."""

    @pytest.mark.parametrize("matrices", [
        "@/nonexistent/dir/matrices.json",
        "[{}]",
        "5",
        "[5]",
        '[{"re": 5}]',
        '[{"re": [[1, {}], [0, 1]]}]',
    ])
    def test_eval_word_bad_matrices(self, capsys, matrices):
        assert_error_line(*run(capsys, "eval-word", "XY", "--matrices", matrices))

    @pytest.mark.parametrize("matrices", [
        '{"re": [[1, 0], [0, 1]]}',
        '["{\\"re\\": [[1, 0], [0, 1]]}", "{\\"re\\": [[1, 0], [0, 1]]}"]',
        # each part must be 2x2: no broadcast scalar, no ragged rows
        '[{"re": [[1, 0], [0, 1]], "im": 5}, {"re": [[1, 0], [0, 1]]}]',
        '[{"re": [[1, 0], [0]]}, {"re": [[1, 0], [0, 1]]}]',
        '[{"re": [[1, 0], [0, 1]], "im": [[0, 0]]}, {"re": [[1, 0], [0, 1]]}]',
        '[{"re": [[1, 0, 0], [0, 1, 0]]}, {"re": [[1, 0], [0, 1]]}]',
    ])
    def test_eval_word_matrices_not_a_list_of_objects(self, capsys, matrices):
        code, out, err = run(capsys, "eval-word", "XY", "--matrices", matrices)
        assert_error_line(code, out, err)
        assert err.startswith("error: --matrices takes a JSON list of")

    @pytest.mark.parametrize("argv", [
        ("construct", "pair", "1", "2", "nan", "--json"),
        ("construct", "triple", "2", "2", "2", "2", "2", "inf"),
        ("fricke", "test", "s04", "--coords=1e400,2,2,2,-3,2,7"),
        ("fricke", "test", "s04", "--coords=1e400,2,2,2,-3,2,7", "--mode", "exact"),
        ("cover", "map", "embed", "--eval", "x1=nan,x2=2,x12=2"),
        ("construct", "pair", "-inf", "2", "3"),
    ])
    def test_non_finite_numbers(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert_error_line(code, out, err)
        assert err.startswith("error: not a finite number: ")

    @pytest.mark.parametrize("numbers", [
        ("1e300", "2", "2", "2", "2", "2"),
        ("--", "3", "0", "0", "1e-300", "-1e154", "0"),
        ("--", "1e154", "1e154", "1e154", "1e154", "1e154", "1e154"),
        ("2", "2", "0", "2", "1e308", "1e308"),  # finite triple, t123 overflows
    ])
    def test_construct_triple_that_overflows(self, capsys, numbers):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            code, out, err = run(capsys, "construct", "triple", *numbers)
        assert_error_line(code, out, err)
        assert err == "error: degenerate branch value\n"

    @pytest.mark.parametrize("numbers", [
        ("--", "2", "0", "-1e154", "0", "1e-300", "1e300"),
        ("--", "2", "3", "1e154", "3", "1e150", "1e154"),
    ])
    def test_construct_triple_character_without_warnings(self, capsys, numbers):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow inside the character's products
            code, out, err = run(capsys, "construct", "triple", "--json", *numbers)
        assert (code, err) == (0, "")
        character = json.loads(out)["character"]
        assert all(cmath.isfinite(complex(v[:-1] + "j")) for v in character.values())

    def test_non_finite_option_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fn2trace", "nan", "1"])
        assert exc.value.code == 2
        assert "invalid parse_number value: 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["-inf", "-NaN"])
    def test_negative_non_finite_is_refused_as_a_number(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["fn2trace", "1", text])
        assert exc.value.code == 2
        assert f"invalid parse_number value: '{text}'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, values, need", [
        ("pair", ("1", "2"), 3), ("pair", ("1", "2", "3", "4"), 3),
        ("triple", ("2",) * 5, 6), ("triple", ("2",) * 7, 6),
    ])
    def test_construct_coordinate_count(self, capsys, kind, values, need):
        code, out, err = run(capsys, "construct", kind, *values)
        assert_error_line(code, out, err)
        assert err == f"error: construct {kind} takes {need} coordinates, got {len(values)}\n"

    def test_eval_word_matrices_from_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('[{"re": [[1, 1], [0, 1]]}, {"re": [[2, 1], [1, 1]]}]')
        code, out, _ = run(capsys, "eval-word", "XY", "--matrices", f"@{path}")
        assert code == 0
        assert out.splitlines()[-1] == "trace: 4+0i"

    @pytest.mark.parametrize("assignment", ["x1=2", "x1=2,x2=2,x12=2,q=1", "q=1",
                                            "x1=1,x1=2,x2=2,x12=2"])
    def test_cover_eval_names_checked(self, capsys, assignment):
        assert_error_line(*run(capsys, "cover", "map", "embed", "--eval", assignment))

    def test_cover_eval_repeated_name(self, capsys):
        code, out, err = run(capsys, "cover", "map", "embed", "--eval", "x1=1,x1=2,x2=3,x12=4")
        assert_error_line(code, out, err)
        assert err == "error: --eval assigns x1 more than once\n"

    def test_cover_eval_overflow(self, capsys):
        code, out, err = run(capsys, "cover", "map", "embed",
                             "--eval", "x1=1e200,x2=1e200,x12=1e200")
        assert_error_line(code, out, err)
        assert err == "error: complex exponentiation\n"
