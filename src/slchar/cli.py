"""Command-line front end and seeded verification harness.

Commands: trace-poly, eval-word, construct, fricke, fn2trace, cover,
verify.  Exit codes: 0 ok, 1 math error, 2 usage error.  Numeric
arguments accept finite decimals or rational literals ``p/q``.  Given the
same seed and configuration, output is byte-identical.

Each ``verify`` suite yields ``(row, residual)`` pairs over its seeded
trials; a row reports the largest residual its suite yields for it, and
rows print in the order each was first yielded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import chars, covers, fricke, hypgeom, mat2, sampling, tracepoly
from .fricke import CharacterS04, CharacterS12, FNCoords
from .mat2 import GeometryError
from .words import Word, WordSyntaxError, parse_word


def parse_number(text: str) -> float:
    """Finite decimal or rational 'p/q' literal."""
    text = text.strip()
    v = float(Fraction(text)) if "/" in text else float(text)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {text!r}")
    return v


def parse_number_exact(text: str):
    text = text.strip()
    if "/" in text or "." not in text and "e" not in text.lower():
        return Fraction(text)
    return parse_number(text)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _print_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


# -- commands -------------------------------------------------------------------


def cmd_trace_poly(args) -> int:
    w = parse_word(args.word, args.rank)
    p = tracepoly.trace_poly(w)
    if args.json:
        _print_json(p.to_json())
    else:
        print(p.to_text())
    return 0


def cmd_eval_word(args) -> int:
    w = parse_word(args.word, args.rank)
    if args.matrices:
        raw = args.matrices
        if raw.startswith("@"):
            try:
                with open(raw[1:]) as fh:
                    raw = fh.read()
            except OSError as exc:
                raise ValueError(f"cannot read {raw[1:]}: {exc.strerror}") from None
        data = json.loads(raw)
        try:  # a non-object entry raises TypeError on ["re"], a bad shape ValueError
            mats = [mat2.matrix_from_json(m) for m in data] if isinstance(data, list) else None
        except (KeyError, TypeError, ValueError):
            mats = None
        if mats is None:
            raise ValueError('--matrices takes a JSON list of {"re": 2x2, "im": 2x2} objects')
    else:
        rnd = sampling.rng_for(args.seed)
        mats = [sampling.random_unimodular(rnd) for _ in range(args.rank)]
    if len(mats) != args.rank:
        raise GeometryError(
            f"need {args.rank} matrices, got {len(mats)}"
        )
    result = mat2.evaluate_word(w, mats)
    tr = mat2.trace(result)
    if args.json:
        _print_json({
            "matrix": mat2.matrix_to_json(result),
            "trace": mat2.format_complex(tr),
        })
    else:
        print("matrix:", np.array2string(result, precision=12))
        print("trace:", mat2.format_complex(tr))
    return 0


def cmd_construct(args) -> int:
    need = 3 if args.kind == "pair" else 6
    if len(args.coords) != need:
        raise ValueError(f"construct {args.kind} takes {need} coordinates, got {len(args.coords)}")
    coords = [complex(parse_number(v)) for v in args.coords]
    if args.kind == "pair":
        xi, eta = mat2.normal_form_pair(*coords)
        payload = {
            "xi": mat2.matrix_to_json(xi),
            "eta": mat2.matrix_to_json(eta),
            "character": chars.character_of_pair(xi, eta).to_json(),
        }
    else:
        tri = chars.construct_triple(*coords, args.branch)
        with np.errstate(all="ignore"):  # a trace that overflows is refused below
            character = chars.character_of_triple(*tri)
        if not np.isfinite(character.as_tuple()).all():
            raise GeometryError("degenerate branch value")
        payload = {
            "xi1": mat2.matrix_to_json(tri[0]),
            "xi2": mat2.matrix_to_json(tri[1]),
            "xi3": mat2.matrix_to_json(tri[2]),
            "character": character.to_json(),
        }
    if args.json:
        _print_json(payload)
    else:
        for k, v in payload.items():
            print(f"{k}: {json.dumps(v)}")
    return 0


#: Per surface: the ``--coords`` names in order, and the verdict as JSON.
_FRICKE = {
    "s03": ("x,y,z", lambda coords: fricke.member_s03(*coords).to_json()),
    "s11": ("x,y,z", lambda coords: fricke.member_s11(*coords).to_json()),
    "s04": ("a,b,c,d,x,y,z", lambda coords: fricke.member_s04(CharacterS04(*coords)).to_json()),
    "s12": ("a,b,u,x,y,v,w,z", lambda coords: fricke.member_s12(CharacterS12(*coords)).to_json()),
    "c02": ("p,q,r", lambda coords: {"member": fricke.member_c02(*coords)}),
    "c11": ("p,q,r", lambda coords: {"member": fricke.member_c11(*coords)}),
}


def cmd_fricke(args) -> int:
    coords = [parse_number_exact(v) for v in args.coords.split(",")]
    names, verdict_of = _FRICKE[args.surface]
    need = names.count(",") + 1
    if len(coords) != need:
        raise GeometryError(
            f"surface {args.surface} takes {need} coordinates, got {len(coords)}"
        )
    if args.mode == "float":
        coords = [float(v) for v in coords]
    verdict = verdict_of(coords)
    _print_json(verdict)
    member = verdict.get("verdict", "").startswith("member") or verdict.get("member") is True
    return 0 if member or args.report_only else 1


def cmd_fn2trace(args) -> int:
    result = fricke.fn_to_traces(FNCoords(l=args.l, tau=args.tau, b=args.b))
    if args.json:
        _print_json(result.to_json())
    else:
        print(f"x = {_fmt(result.x)}")
        print(f"y = {_fmt(result.y)}")
        print(f"z = {_fmt(result.z)}")
        print(f"kappa = {_fmt(result.kappa)} (boundary trace {_fmt(result.boundary_trace)})")
    return 0


def cmd_cover(args) -> int:
    rm = covers.ring_map(args.map)
    payload = rm.to_json()
    if args.symbolic_check:
        payload["symbolic_check"] = covers.symbolic_check(args.map)
    if args.eval:
        point = {}
        for name, _, value in (item.partition("=") for item in args.eval.split(",")):
            if name.strip() in point:
                raise ValueError(f"--eval assigns {name.strip()} more than once")
            point[name.strip()] = complex(parse_number(value))
        if set(point) != set(rm.target):
            raise ValueError(f"--eval for {args.map} takes {', '.join(rm.target)}; "
                             f"got {', '.join(point)}")
        images = rm.apply_point(point)
        payload["evaluation"] = {
            n: mat2.format_complex(complex(v)) for n, v in images.items()
        }
    _print_json(payload)
    if args.symbolic_check and not all(payload["symbolic_check"].values()):
        return 1
    return 0


# -- verification suites ----------------------------------------------------------


#: Matrix sampler per ``--mode``: exact mode draws object arrays of
#: Fractions, on which the same suite bodies compute exactly.
_RANDOM_MATRIX = {
    "float": sampling.random_unimodular,
    "exact": sampling.random_rational_unimodular,
}

#: Longest rank-2 and rank-3 oracle words per ``--mode``; exact
#: products of rational matrices grow fast with the word length.
_ORACLE_WORD_LENGTHS = {"float": (12, 8), "exact": (10, 6)}

#: Oracle word residual per ``--mode``: float rounding error grows with
#: the trace, so it is scaled by ``1 + |t|``; an exact residual must be
#: zero, and is kept absolute so that no error hides behind a large trace.
_ORACLE_RESIDUAL = {
    "float": lambda v, t: abs(v - t) / (1 + abs(t)),
    "exact": lambda v, t: abs(v - t),
}


def _trials(cfg):
    """One seeded random stream per trial."""
    for trial in range(cfg.trials):
        yield sampling.rng_for(cfg.seed, trial)


#: Integer numerator (N, d) of a draw m = N / d per ``--mode``; the
#: identities suite runs on N, float matrices standing for themselves.
_NUMERATOR = {
    "float": lambda m: (m, 1),
    "exact": mat2.clear_denominators,
}


def _suite_identities(cfg):
    """Each identity written with adjugates is homogeneous in the matrices,
    so it holds for N as for m = N / d, with the commutator row's constant
    2 det(xi) det(eta) scaled by (d_xi d_eta)^2."""
    draw, numerator = _RANDOM_MATRIX[cfg.mode], _NUMERATOR[cfg.mode]
    for rnd in _trials(cfg):
        xi, dx = numerator(draw(rnd))
        eta, de = numerator(draw(rnd))
        eye = np.eye(2, dtype=xi.dtype)
        ch = xi @ xi - mat2.trace(xi) * xi + mat2.det(xi) * eye
        yield "cayley-hamilton", float(np.abs(ch).max())
        basic = (
            mat2.trace(xi @ eta)
            + mat2.trace(xi @ mat2.adjoint(eta))
            - mat2.trace(xi) * mat2.trace(eta)
        )
        yield "basic-identity", abs(basic)
        yield "trace-of-inverse", abs(mat2.trace(xi) - mat2.trace(mat2.adjoint(xi)))
        comm = mat2.trace(
            xi @ eta @ mat2.adjoint(xi) @ mat2.adjoint(eta)
        ) + mat2.det(mat2.lie_product(xi, eta)) - 2 * (dx * de) ** 2
        yield "commutator-vs-lie-det", abs(comm)


def _suite_oracle(cfg):
    draw = _RANDOM_MATRIX[cfg.mode]
    len2, len3 = _ORACLE_WORD_LENGTHS[cfg.mode]
    residual = _ORACLE_RESIDUAL[cfg.mode]
    for rnd in _trials(cfg):
        w2 = sampling.random_reduced_word(rnd, 2, len2)
        m2 = [draw(rnd) for _ in range(2)]
        v = tracepoly.evaluate_at_character(tracepoly.trace_poly_f2(w2), m2)
        yield "rank2-words", residual(v, mat2.trace(mat2.evaluate_word(w2, m2)))
        w3 = sampling.random_reduced_word(rnd, 3, len3)
        m3 = [draw(rnd) for _ in range(3)]
        v = tracepoly.evaluate_at_character(tracepoly.trace_poly_f3(w3), m3)
        yield "rank3-words", residual(v, mat2.trace(mat2.evaluate_word(w3, m3)))
        m4 = [draw(rnd) for _ in range(4)]
        yield "quadruple-trace", tracepoly.quadruple_trace_check(m4)


def _suite_fricke(cfg):
    ok = fricke.defining_identity_residual().is_zero()
    yield "defining-identity-symbolic", 0.0 if ok else 1.0
    for rnd in _trials(cfg):
        coords = FNCoords(
            l=rnd.uniform(0.1, 5), tau=rnd.uniform(-4, 4), b=rnd.uniform(0, 4)
        )
        res = fricke.fn_to_traces(coords)
        yield "fn-boundary-constraint", res.metadata["constraint_residual"]
        x, y, z = (rnd.uniform(-10, -2.01) for _ in range(3))
        cert = hypgeom.hexagon_certificate(x, y, z)
        if cert.verdict != "right-hexagon":
            yield "hexagon-inner-products", 1.0
        for pair, expect in zip(
            cert.pairs,
            (
                (2 * z - x * y) / np.sqrt((x * x - 4) * (y * y - 4)),
                (2 * x - y * z) / np.sqrt((y * y - 4) * (z * z - 4)),
                (2 * y - z * x) / np.sqrt((z * z - 4) * (x * x - 4)),
            ),
        ):
            yield "hexagon-inner-products", abs(pair.inner - expect)


def _suite_covers(cfg):
    for name in covers.COVERS:
        ok = all(covers.symbolic_check(name).values())
        yield f"symbolic-{name}", 0.0 if ok else 1.0
    for rnd in _trials(cfg):
        ms = [sampling.random_unimodular(rnd) for _ in range(3)]
        img = covers.deck_involution_f3(chars.character_of_triple(*ms))
        for r in img.sum_product_residuals():
            yield "deck-character-validity", r


def _suite_coxeter(cfg):
    # a rejected draw still uses up its stream index, so no _trials here
    done = 0
    trial = 0
    while done < cfg.trials:
        rnd = sampling.rng_for(cfg.seed, trial)
        trial += 1
        xi = sampling.random_unimodular(rnd)
        eta = sampling.random_unimodular(rnd)
        if abs(chars.character_of_pair(xi, eta).kappa() - 2) < 1e-3:
            continue
        done += 1
        i_xy, i_yz, i_zx = hypgeom.coxeter_extension(xi, eta)
        zeta = mat2.adjoint(xi @ eta)
        for inv in (i_xy, i_yz, i_zx):
            yield "involution-factorization", float(np.abs(inv @ inv + mat2.I2).max())
        for prod, target in (
            (i_zx @ i_xy, xi),
            (i_xy @ i_yz, eta),
            (i_yz @ i_zx, zeta),
        ):
            dev = min(
                float(np.abs(prod - target).max()),
                float(np.abs(prod + target).max()),
            )
            yield "involution-factorization", dev / max(1.0, float(np.abs(target).max()))


_SUITES = {
    "identities": _suite_identities,
    "oracle": _suite_oracle,
    "fricke": _suite_fricke,
    "covers": _suite_covers,
    "coxeter": _suite_coxeter,
}


def cmd_verify(args) -> int:
    rows = {}
    for name, r in _SUITES[args.suite](args):
        rows[name] = max(rows.get(name, 0.0), r)
    failed = False
    for name, residual in rows.items():
        ok = residual <= args.tolerance
        failed = failed or not ok
        print(f"{args.suite}/{name}: max-residual={float(residual):.17e} "
              f"{'pass' if ok else 'FAIL'}")
    print(f"suite={args.suite} trials={args.trials} seed={args.seed} "
          f"tolerance={args.tolerance:g} mode={args.mode} "
          f"result={'FAIL' if failed else 'pass'}")
    return 1 if failed else 0


# -- argument parsing ---------------------------------------------------------------

#: argparse reads an argument that starts with "-" as an option unless it
#: matches its parser's negative-number pattern, which by default takes
#: "-2" and "-.5" but not "-7/2" or "-1e-3"; every negative number that
#: ``parse_number`` reads starts with "-" and a digit, ".digit", "inf"
#: or "nan" (the last two refused as not finite).
_NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slchar",
        description="Trace coordinates on SL(2,C) character varieties "
        "and Fricke-space membership tests.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace-poly", help="trace polynomial of a word")
    p.add_argument("word", help="word text, e.g. 'X Y x y' or 'X1 X2^-1'")
    p.add_argument("--rank", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_trace_poly)

    p = sub.add_parser("eval-word", help="evaluate a word on matrices")
    p.add_argument("word")
    p.add_argument("--rank", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--matrices", help="JSON list of {re, im} matrices, or @file")
    p.add_argument("--seed", type=int, default=0, help="random matrices if none given")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval_word)

    p = sub.add_parser("construct", help="matrices realizing a character")
    p.add_argument("kind", choices=("pair", "triple"))
    p.add_argument("coords", nargs="+",
                   help="x y z for a pair; t1 t2 t3 t12 t23 t13 for a triple")
    p.add_argument("--branch", choices=("+", "-"), default="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)
    p._negative_number_matcher = _NEGATIVE_NUMBER

    p = sub.add_parser("fricke", help="Fricke-space membership")
    fsub = p.add_subparsers(dest="fricke_command", required=True)
    ptest = fsub.add_parser("test")
    ptest.add_argument("surface", choices=sorted(_FRICKE))
    ptest.add_argument("--coords", required=True,
                       help="comma-separated coordinates (decimal or p/q), in the order "
                       + "; ".join(f"{k}: {n}" for k, (n, _) in sorted(_FRICKE.items()))
                       + "; use --coords=-3,... for negative leading values")
    ptest.add_argument("--mode", choices=("float", "exact"), default="float")
    ptest.add_argument("--report-only", action="store_true",
                       help="exit 0 even for nonmembers")
    ptest.set_defaults(func=cmd_fricke)

    p = sub.add_parser("fn2trace",
                       help="Fenchel-Nielsen to trace coordinates (one-holed torus)")
    p.add_argument("l", type=parse_number)
    p.add_argument("tau", type=parse_number)
    p.add_argument("b", type=parse_number, nargs="?", default=0.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fn2trace)
    p._negative_number_matcher = _NEGATIVE_NUMBER

    p = sub.add_parser("cover", help="covering-space character-ring maps")
    csub = p.add_subparsers(dest="cover_command", required=True)
    pmap = csub.add_parser("map")
    pmap.add_argument("map", choices=sorted(covers.COVERS))
    pmap.add_argument("--eval", help="comma-separated name=value assignments")
    pmap.add_argument("--symbolic-check", action="store_true")
    pmap.set_defaults(func=cmd_cover)

    p = sub.add_parser("verify", help="seeded verification suites")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=parse_number, default=1e-8)
    p.add_argument("--mode", choices=("float", "exact"), default="float")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "trials", 1) < 1:
        ap.error("--trials must be >= 1")
    if getattr(args, "tolerance", 0) < 0:
        ap.error("--tolerance must be >= 0")
    try:
        return args.func(args)
    except WordSyntaxError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
