import cmath
import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
        # a negative leading value needs no "=": the same bytes without it
        assert run(capsys, "fricke", "test", "s03", "--coords", "-3,-3,-3") == (code, out, "")

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

    @pytest.mark.parametrize("surface, coords, mode, code, verdict", [
        # kappa = 2e400 - 1.5e400 - 2 > -2, though inf - inf is NaN in floats
        ("s11", "1e200,1e200,1.5", "float", 1, {"verdict": "nonmember", "cusp": False}),
        ("s11", "1e200,1e200,1.5", "exact", 1, {"verdict": "nonmember", "cusp": False}),
        ("s11", "1e300,1e300,1e300", "float", 0, {"verdict": "member-slice", "cusp": False}),
        # p^2 + q^2 - pqr = 0.5e400 >= 0
        ("c11", "1e200,1e200,1.5", "float", 0, {"member": True}),
        ("c11", "1e200,1e200,1.5", "exact", 0, {"member": True}),
    ])
    def test_overflowed_sign_decided_exactly(self, capsys, surface, coords, mode, code, verdict):
        got, out, _ = run(capsys, "fricke", "test", surface, f"--coords={coords}", "--mode", mode)
        data = json.loads(out)
        assert got == code
        assert {k: data[k] for k in verdict} == verdict
        if surface == "s11":
            assert math.isnan(data["kappa"])  # the reported kappa is still the float one

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

    @pytest.mark.parametrize("surface, mode, error", [
        ("s03", "exact", "member_s03 needs finite traces, got x past the float range"),
        ("s11", "exact", "member_s11 needs finite traces, got x past the float range"),
        ("s03", "float", "surface s03 needs finite traces, got x past the float range"),
        ("c11", "float", "surface c11 needs finite traces, got p past the float range"),
    ])
    def test_coordinate_past_the_float_range(self, capsys, surface, mode, error):
        code, out, err = run(capsys, "fricke", "test", surface, f"--coords=1{'0' * 400},3,3",
                             "--mode", mode)
        assert (code, out, err) == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize("surface, coords, field", [
        ("s04", "2,2,2,-3,3,3", "residual"),
        ("s12", "2,2,2,-3,3,3,3", "residuals[0]"),
    ])
    def test_report_past_the_float_range(self, capsys, surface, coords, field):
        # decided exactly, but the float report cannot hold the field
        code, out, err = run(capsys, "fricke", "test", surface,
                             f"--coords=1{'0' * 400},{coords}", "--mode", "exact")
        assert (code, out) == (1, "")
        assert err == (f"error: member_{surface} reports floats, but {field} lies past the "
                       "float range\n")

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

    def test_symbolic_check_failure_exits_1(self, capsys, monkeypatch):
        from slchar import covers

        monkeypatch.setattr(covers, "symbolic_check", lambda name: {"sum": True, "product": False})
        code, out, err = run(capsys, "cover", "map", "c11s12", "--symbolic-check")
        assert (code, err) == (1, "")
        assert json.loads(out)["symbolic_check"] == {"sum": True, "product": False}

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

    @pytest.mark.parametrize("suite", ["fricke", "covers", "coxeter"])
    def test_exact_mode_refused_where_square_roots_are_taken(self, capsys, suite):
        code, out, err = run(capsys, "verify", suite, "--trials", "2", "--mode", "exact")
        assert (code, out) == (2, "")
        assert err == f"usage error: verify {suite} takes square roots and has no --mode exact\n"

    def test_exact_mode_flag(self, capsys):
        for suite in ("identities", "oracle"):
            code, out, _ = run(
                capsys, "verify", suite, "--trials", "5", "--seed", "1",
                "--mode", "exact",
            )
            assert code == 0 and out.endswith(" mode=exact result=pass\n")

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

        true_poly = tracepoly.trace_poly
        monkeypatch.setattr(tracepoly, "trace_poly", lambda w: true_poly(w) + 1)
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
        # the exact suite runs on integer numerators through mat2._adjugate;
        # an adjugate that keeps the sign of its upper right entry must FAIL
        from slchar import mat2

        monkeypatch.setattr(mat2, "_adjugate", lambda n: (n[3], n[1], -n[2], n[0]))
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

    def test_hexagon_row_fails_when_not_a_right_hexagon(self, capsys, monkeypatch):
        from slchar import hypgeom

        true_certificate = hypgeom.hexagon_certificate
        monkeypatch.setattr(hypgeom, "hexagon_certificate", lambda x, y, z: dataclasses.replace(
            true_certificate(x, y, z), verdict="not-a-hexagon"))
        code, out, _ = run(capsys, "verify", "fricke", "--trials", "2", "--seed", "7")
        assert code == 1
        assert "fricke/hexagon-inner-products: max-residual=1.00000000000000000e+00 FAIL" in out
        assert out.count(" FAIL") == 1

    def test_coxeter_rejected_draw_uses_up_its_stream_index(self, capsys, monkeypatch):
        from slchar import chars, hypgeom, sampling

        streams, extensions = [], []
        true_rng, true_pair, true_extension = (
            sampling.rng_for, chars.character_of_pair, hypgeom.coxeter_extension)

        def rng_for(seed, trial=0):
            streams.append(trial)
            return true_rng(seed, trial)

        def character_of_pair(xi, eta):  # the draw of stream 1 is taken as reducible
            return chars.CharacterF2(2, 2, 2) if streams[-1] == 1 else true_pair(xi, eta)

        def coxeter_extension(xi, eta):
            extensions.append(streams[-1])
            return true_extension(xi, eta)

        monkeypatch.setattr(sampling, "rng_for", rng_for)
        monkeypatch.setattr(chars, "character_of_pair", character_of_pair)
        monkeypatch.setattr(hypgeom, "coxeter_extension", coxeter_extension)
        code, out, _ = run(capsys, "verify", "coxeter", "--trials", "3", "--seed", "5")
        assert code == 0 and out.endswith("suite=coxeter trials=3 seed=5 tolerance=1e-08 "
                                          "mode=float result=pass\n")
        assert streams == [0, 1, 2, 3]
        assert extensions == [0, 2, 3]

    def test_rows_report_their_maximum_in_first_yield_order(self, capsys, monkeypatch):
        # the rows computed once and every trial's rows fold into one maximum
        from slchar import cli

        def trial(rnd, mode):
            yield from [("a", 0.75), ("c", 0.0), ("b", 1.0), ("a", 0.5)]

        monkeypatch.setitem(cli._SUITES, "oracle",
                            (trial, lambda: [("b", 0.5), ("a", 0.25), ("b", 2.0)]))
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


    @pytest.mark.parametrize("residuals", [(math.nan, 0.5), (0.5, math.nan), (0.0, math.nan, 2.0)],
                             ids=["nan-first", "nan-last", "nan-between"])
    def test_nan_residual_fails_its_row(self, capsys, monkeypatch, residuals):
        # no later trial's residual displaces the NaN of the rows computed once
        from slchar import cli

        def once():
            for r in residuals:
                yield "a", r
                yield "b", 0.25

        def trial(rnd, mode):
            yield from [("a", 0.5), ("b", 0.25)]

        monkeypatch.setitem(cli._SUITES, "oracle", (trial, once))
        code, out, _ = run(capsys, "verify", "oracle", "--trials", "3", "--seed", "5",
                           "--tolerance", "1")
        assert code == 1
        assert out.splitlines() == [
            "oracle/a: max-residual=nan FAIL",
            "oracle/b: max-residual=2.50000000000000000e-01 pass",
            "suite=oracle trials=3 seed=5 tolerance=1 mode=float result=FAIL",
        ]

    @staticmethod
    def plant(monkeypatch, trial):
        """``trial`` as the oracle suite, given its stream index as its stream."""
        from slchar import cli, sampling

        streams = []
        monkeypatch.setattr(sampling, "rng_for",
                            lambda seed, index=0: streams.append(index) or index)
        monkeypatch.setitem(cli._SUITES, "oracle", (trial, None))
        return streams

    def test_a_trial_that_yields_nothing_uses_up_its_index(self, capsys, monkeypatch):
        def trial(index, mode):
            if index != 1:
                yield "a", index

        streams = self.plant(monkeypatch, trial)
        code, out, _ = run(capsys, "verify", "oracle", "--trials", "3", "--seed", "5",
                           "--tolerance", "2.5")
        assert code == 1 and streams == [0, 1, 2, 3]
        assert out.splitlines() == [
            "oracle/a: max-residual=3.00000000000000000e+00 FAIL trial=3",
            "suite=oracle trials=3 seed=5 tolerance=2.5 mode=float result=FAIL",
        ]

    def test_nan_row_names_the_trial_of_its_first_nan(self, capsys, monkeypatch):
        def trial(index, mode):
            yield "a", math.nan if index in (2, 4) else 0.5
            yield "b", 0.25 * index

        self.plant(monkeypatch, trial)
        code, out, _ = run(capsys, "verify", "oracle", "--trials", "6", "--tolerance", "1")
        assert code == 1
        assert out.splitlines()[:2] == [
            "oracle/a: max-residual=nan FAIL trial=2",
            "oracle/b: max-residual=1.25000000000000000e+00 FAIL trial=5",
        ]

    @pytest.mark.parametrize("suite, seed, tolerance", [("covers", "7", "1e-8"),
                                                         ("coxeter", "0", "0")])
    def test_fail_row_names_the_trial_that_reruns_it(self, capsys, suite, seed, tolerance):
        code, out, _ = run(capsys, "verify", suite, "--seed", seed, "--tolerance", tolerance)
        assert code == 1
        (row,) = [line for line in out.splitlines() if " FAIL trial=" in line]
        if suite == "covers":
            assert row == ("covers/deck-character-validity: "
                           "max-residual=1.22878123093177694e-07 FAIL trial=52")
        trials = int(row.rpartition("=")[2]) + 1
        code, out, _ = run(capsys, "verify", suite, "--seed", seed, "--tolerance", tolerance,
                           "--trials", str(trials))
        assert code == 1 and row in out.splitlines()

    def test_rows_computed_once_name_no_trial(self, capsys, monkeypatch):
        from slchar import covers

        monkeypatch.setattr(covers, "symbolic_check", lambda name: {"relation": False})
        code, out, _ = run(capsys, "verify", "covers", "--trials", "2")
        assert code == 1
        assert out.splitlines()[0] == (
            "covers/symbolic-c02s04: max-residual=1.00000000000000000e+00 FAIL")


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

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e400", "1/0",
                                      "1" + "0" * 400 + "/3"])
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
        ("fricke", "test", "s03", "--coords=nan,2,2"),
        ("fricke", "test", "s03", "--coords=inf,2,2"),
        ("fricke", "test", "s03", "--coords", "-inf,2,2"),
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

    @pytest.mark.parametrize("argv", [
        ("construct", "pair", "1/0", "2", "3"),
        ("fricke", "test", "s03", "--coords=1/0,2,2"),
    ])
    def test_zero_denominator(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert_error_line(code, out, err)
        assert err == "error: not a finite number: '1/0'\n"

    @pytest.mark.parametrize("argv, text", [
        (("fn2trace", "1/0", "1"), "1/0"),
        (("verify", "identities", "--tolerance", "1/0"), "1/0"),
        (("fn2trace", "1" + "0" * 400 + "/3", "1"), "1" + "0" * 400 + "/3"),  # beyond floats
    ])
    def test_zero_denominator_option_is_usage_error(self, capsys, argv, text):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"invalid parse_number value: {text!r}")

    @pytest.mark.parametrize("numbers", [("15.5", "2", "1"), ("16", "0")])
    def test_fn2trace_float_cancellation(self, capsys, numbers):
        code, out, err = run(capsys, "fn2trace", *numbers)
        assert_error_line(code, out, err)
        assert err.startswith("error: boundary-trace constraint violated: kappa = ")
        l, tau, b = (*map(float, numbers), 0.0)[:3]
        assert err.endswith(f" at (l, tau, b) = ({l}, {tau}, {b})\n")

    @pytest.mark.parametrize("numbers, named", [
        (("1e3", "1", "1"), "l = 1000.0"),
        (("1e300", "1"), "l = 1e+300"),
        (("1", "1e300"), "tau = 1e+300"),
        (("1", "0", "1e300"), "b = 1e+300"),
    ])
    def test_fn2trace_overflow_names_the_argument(self, capsys, numbers, named):
        code, out, err = run(capsys, "fn2trace", *numbers)
        assert_error_line(code, out, err)
        assert err == f"error: Fenchel-Nielsen coordinates out of float range at {named}\n"

    @pytest.mark.parametrize("argv", [
        ("fricke", "test", "c11", "--coords=--"),
        ("fn2trace", "--", "1", "--"),
        ("verify", "oracle", "--tolerance=--"),
        ("eval-word", "X", "--seed=--"),
    ])
    def test_dash_dash_as_a_value(self, capsys, argv):
        # argparse before Python 3.12 stores [] for such a value, which main
        # refuses as a usage error; later versions may pass "--" on as text
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        last = capsys.readouterr().err.splitlines()[-1]
        assert (code == 2 and re.match(r"slchar[\w -]*: error: ", last)) or (
            code == 1 and last.startswith("error: "))

    def test_construct_triple_that_misses_its_traces(self, capsys):
        # xi3 has entries near 1e43 (t13), which its trace must cancel to t3
        code, out, err = run(capsys, "construct", "triple", "--", "-1.727585853128668",
                             "0.44225414182184153", "-0.9822634553665281", "1.353820935630572",
                             "18.540068704306236", "1e43")
        assert_error_line(code, out, err)
        assert err == "error: the constructed triple misses the prescribed t3\n"
        # 1e80 beside O(1) traces: the branch root t123 overflows first
        code, out, err = run(capsys, "construct", "triple", "--", "1e80", "3", "1e80", "2",
                             "1e80", "5")
        assert_error_line(code, out, err)
        assert err == "error: degenerate branch value\n"

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

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_eval_word_trace_not_finite(self, capsys, flags):
        # the matrix is finite, its trace 2e308 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            code, out, err = run(capsys, "eval-word", "X", "--rank", "1", *flags,
                                 "--matrices", '[{"re": [[1e308, 0], [0, 1e308]]}]')
        assert_error_line(code, out, err)
        assert err == "error: the word's trace is not finite\n"

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

    def test_cover_eval_not_finite(self, capsys):
        # the images overflow to inf without an exception
        code, out, err = run(capsys, "cover", "map", "c11s12",
                             "--eval", "p=1e154,q=1e154,r=1e154")
        assert_error_line(code, out, err)
        assert err == "error: the image w of the --eval point is not finite\n"


#: Numbers at the edges of the floats and of the parsers, then malformed ones.
EXTREMES = ["0", "2", "-2", "2.0000000001", "1.9999999999", "-2.0000000001", "1e-300",
            "1e154", "-1e154", "1e300", "-1e300", "7/3", "-7/2",
            "123456789012345678901234567890/7", "-" + "9" * 40 + "/11", "1" + "0" * 400 + "/3"]
MALFORMED = ["1/0", "-5/0", "nan", "-inf", "1e999", "abc", "", "1/2/3", "0x10", "--"]
NUMBERS = st.sampled_from(EXTREMES + MALFORMED)

#: Words that are short, that exceed ``MAX_WORD_LETTERS`` or that do not parse.
SHORT_WORDS = ["X Y x y", "X1 X3 X2", "XY", "X^-3 Y", "X4", "xxxxx", "",
               f"X^{MAX_WORD_LETTERS + 1}", "X Q", "X #", "X^"]
#: Trace-poly also takes a long word whose cyclic core is one letter.
TRACE_WORDS = SHORT_WORDS + ["X^49000 Y X^-49000"]

MATRIX_ENTRIES = st.sampled_from([0.0, 2.0, -2.0, 1e-300, 1e154, -1e154, 1e300, 1e308,
                                  float("nan")])
BAD_JSON = ["[", "{}", "[{}]", "5", '[{"re": 5}]', '{"re": [[1, 0], [0, 1]]}',
            "@/nonexistent/matrices.json"]


def _numbers(draw, need):
    """Mostly ``need`` numbers, sometimes one too few or one too many."""
    count = draw(st.sampled_from([need, need, need, need - 1, need + 1]))
    return draw(st.lists(NUMBERS, min_size=count, max_size=count))


def _flags(draw, *flags):
    return draw(st.lists(st.sampled_from(flags), max_size=2, unique=True))


def _matrices(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(BAD_JSON))
    entries = st.lists(MATRIX_ENTRIES, min_size=4, max_size=4)
    mats = draw(st.lists(entries, min_size=1, max_size=3))
    return json.dumps([{"re": [e[:2], e[2:]]} for e in mats])


def _optional(draw, *args):
    return list(args) if draw(st.booleans()) else []


#: The ``--coords`` count per ``fricke test`` surface, and ``--eval`` names per map.
FRICKE_ARITY = {"s03": 3, "s11": 3, "s04": 7, "s12": 8, "c02": 3, "c11": 3, "s9": 3}
COVER_NAMES = {
    "embed": ["x1", "x2", "x12"], "deck": ["x1", "x2", "x3", "x12", "x13", "x23", "x123"],
    "c02s04": ["u", "v", "w"], "c11s12": ["p", "q", "r"], "s9": ["y"],
}


def _eval(draw, name):
    """``--eval`` text: the map's names, one dropped or repeated or foreign at times."""
    names = list(COVER_NAMES[name])
    edit = draw(st.sampled_from(["none", "none", "drop", "repeat", "foreign"]))
    if edit == "drop":
        names.pop()
    elif edit != "none":
        names.append(names[0] if edit == "repeat" else "y")
    return ",".join(f"{n}={draw(NUMBERS)}" for n in names)


def _construct(draw):
    kind, need = draw(st.sampled_from([("pair", 3), ("triple", 6), ("quad", 4)]))
    return ["construct", kind, *_flags(draw, "--json", "--branch=-"),
            *_optional(draw, "--"), *_numbers(draw, need)]


def _fricke(draw):
    surface = draw(st.sampled_from(sorted(FRICKE_ARITY)))
    coords = ",".join(_numbers(draw, FRICKE_ARITY[surface]))
    return ["fricke", "test", surface, f"--coords={coords}",
            *_flags(draw, "--mode=exact", "--report-only")]


def _cover(draw):
    name = draw(st.sampled_from(sorted(COVER_NAMES)))
    return ["cover", "map", name, *_flags(draw, "--symbolic-check"),
            *_optional(draw, "--eval", _eval(draw, name))]


#: How to draw the argv of each subcommand, wrong arities and bad tokens too.
_ARGV = {
    "trace-poly": lambda draw: [
        "trace-poly", draw(st.sampled_from(TRACE_WORDS)),
        *_flags(draw, "--json", "--rank=1", "--rank=3", "--rank=4")],
    "eval-word": lambda draw: [
        "eval-word", draw(st.sampled_from(SHORT_WORDS)),
        *_flags(draw, "--json", "--rank=1", "--rank=3", "--seed=7", "--seed=x"),
        *_optional(draw, "--matrices", _matrices(draw))],
    "construct": _construct,
    "fricke": _fricke,
    "fn2trace": lambda draw: ["fn2trace", *_flags(draw, "--json"), *_numbers(draw, 3)],
    "cover": _cover,
    "verify": lambda draw: [
        "verify", draw(st.sampled_from(["identities", "oracle", "fricke", "covers", "coxeter",
                                        "x"])),
        "--trials", draw(st.sampled_from(["1", "2", "0", "-1", "x"])),
        "--seed", draw(st.sampled_from(["0", "7", "-3", "1.5"])),
        *_flags(draw, "--mode=exact"), *_optional(draw, "--tolerance", draw(NUMBERS))],
}


@st.composite
def argvs(draw):
    return _ARGV[draw(st.sampled_from(sorted(_ARGV)))](draw)


class TestContract:
    """Every subcommand keeps the exit-code contract on extreme and
    malformed input: no exception escapes ``main``, the exit code is 0, 1
    or 2, a failure on exit 1 is either a verdict on stdout (nothing on
    stderr) or one ``error:`` line, and exit 2 ends stderr with a usage
    error line (``slchar``'s own or argparse's).

    Trace-poly words either exceed ``MAX_WORD_LETTERS`` or cancel to a
    short cyclic core: the engine has no length budget yet, and an
    accepted long power such as ``X^100000`` would run for hours.  Exit 0
    with NaN or infinity in the output is checked only for ``fn2trace
    --json``; other float fields that overflow are still printed as they
    come."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(argvs())
    def test_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), argv
        if code == 2:
            last = err.splitlines()[-1] if err else ""
            assert re.match(r"usage error: |slchar( [\w-]+)*: error: ", last), (argv, err)

    def test_fn2trace_json_has_no_nan_or_infinity(self):
        # every argv of three EXTREMES; `2 0 7/3` once printed a NaN field
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        printed = []
        for numbers in itertools.product(EXTREMES, repeat=3):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(["fn2trace", "--json", *numbers])
                except SystemExit as exc:
                    code = exc.code
            if code == 0:
                json.loads(out.getvalue(), parse_constant=refuse)
                printed.append(numbers)
        assert ("2", "0", "7/3") in printed
