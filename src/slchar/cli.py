"""Command-line front end and seeded verification harness.

Commands: trace-poly, eval-word, construct, fricke, fn2trace, cover,
verify.  Exit codes: 0 ok, 1 math error, 2 usage error.  Numeric
arguments accept finite decimals or rational literals ``p/q``.  Given the
same seed and configuration, output is byte-identical.

Each ``verify`` suite is one trial, which yields ``(row, residual)``
pairs from the seeded stream it is given (none for a rejected draw);
some suites also have rows computed once, before the trials.
``cmd_verify`` runs trial k on ``sampling.rng_for(seed, k)``, k = 0, 1,
..., until ``--trials`` trials have yielded.  A row reports its largest
residual (a NaN, once yielded, is the row's and fails it), rows print in
first-yield order, and a FAIL row whose worst residual came from trial k
ends in ``trial=k``, which ``--trials k+1`` reruns.  Matrices are
4-tuples of their rows (float entries, or the pairs (N, d) of
:mod:`slchar.mat2`), multiplied by ``tracepoly._mul``; ``fricke``,
``covers`` and ``coxeter`` take square roots and have no exact mode.

``chars`` and ``hypgeom`` load inside the commands and suites that use
them, and numpy and ``mat2`` only inside ``eval-word`` and ``construct``,
whose output is matrices: every ``verify`` suite runs without numpy.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import covers, fricke, sampling, tracepoly
from ._intake import take
from .fricke import CharacterS04, CharacterS12, FNCoords
from .words import WordSyntaxError, parse_word


def parse_number(text: str) -> float:
    """Finite decimal or rational 'p/q' literal."""
    text = text.strip()
    try:
        v = float(Fraction(text)) if "/" in text else float(text)
    except (ZeroDivisionError, OverflowError):  # p/0, or p/q beyond the floats
        v = math.inf
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {text!r}")
    return v


def parse_number_exact(text: str):
    text = text.strip()
    if "/" in text or "." not in text and "e" not in text.lower():
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"not a finite number: {text!r}") from None
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
    import numpy as np

    from . import mat2

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
        raise mat2.GeometryError(
            f"need {args.rank} matrices, got {len(mats)}"
        )
    with np.errstate(all="ignore"):  # a product or trace that overflows is refused below
        result = mat2.evaluate_word(w, mats)
        tr = mat2.trace(result)
    if not np.isfinite(result).all():
        raise mat2.GeometryError("the word's matrix is not finite")
    if not np.isfinite(tr):
        raise mat2.GeometryError("the word's trace is not finite")
    if args.json:
        _print_json({
            "matrix": mat2.matrix_to_json(result),
            "trace": tracepoly._format_complex(tr),
        })
    else:
        print("matrix:", np.array2string(result, precision=12))
        print("trace:", tracepoly._format_complex(tr))
    return 0


def cmd_construct(args) -> int:
    from . import chars, mat2

    need = 3 if args.kind == "pair" else 6
    if len(args.coords) != need:
        raise ValueError(f"construct {args.kind} takes {need} coordinates, got {len(args.coords)}")
    coords = [complex(parse_number(v)) for v in args.coords]
    if args.kind == "pair":
        names, mats = ("xi", "eta"), mat2.normal_form_pair(*coords)
        character_of = chars.character_of_pair
    else:
        names, mats = ("xi1", "xi2", "xi3"), chars.construct_triple(*coords, args.branch)
        character_of = chars.character_of_triple
    character = character_of(*mats)  # on 4-tuples: a trace that overflows is refused below
    if not all(map(cmath.isfinite, character.as_tuple())):
        raise mat2.GeometryError("degenerate branch value")
    payload = {name: mat2.matrix_to_json(m) for name, m in zip(names, mats)}
    payload["character"] = character.to_json()
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
        raise ValueError(
            f"surface {args.surface} takes {need} coordinates, got {len(coords)}"
        )
    if args.mode == "float":
        coords = take(ValueError, f"surface {args.surface}", names.replace(",", " "), coords)
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
        images = {n: complex(v) for n, v in rm.apply_point(point).items()}
        for n, v in images.items():
            if not cmath.isfinite(v):
                raise ValueError(f"the image {n} of the --eval point is not finite")
        payload["evaluation"] = {n: tracepoly._format_complex(v) for n, v in images.items()}
    _print_json(payload)
    if args.symbolic_check and not all(payload["symbolic_check"].values()):
        return 1
    return 0


# -- verification suites ----------------------------------------------------------


#: Per ``--mode``: the matrix draw, the longest rank-2 and rank-3 oracle
#: words and the oracle word residual.  Float mode draws complex entries,
#: exact mode integer numerators (N, d), m = N / d, on which the same trials
#: compute exactly; exact products grow fast with the word length.  Float
#: rounding error grows with the trace, so it is scaled by 1 + |t|; an exact
#: residual must be zero, and stays absolute so no error hides behind a big trace.
_MODES = {
    "float": (sampling.random_unimodular_entries, 12, 8, lambda v, t: abs(v - t) / (1 + abs(t))),
    "exact": (sampling.random_rational_unimodular, 10, 6, lambda v, t: abs(v - t)),
}


def _tr(n):
    return n[0] + n[3]


def _det(n):
    return n[0] * n[3] - n[1] * n[2]


def _dist(m, k):
    return max(abs(p - q) for p, q in zip(m, k))


def _trial_identities(rnd, mode):
    """Each identity written with adjugates is homogeneous in the matrices,
    so it holds for N as for m = N / d, with the commutator row's constant
    2 det(xi) det(eta) scaled by (d_xi d_eta)^2.  The matrices are 4-tuples
    of their rows (float entries, or the ints of N), multiplied by
    ``tracepoly._mul`` and inverted by ``tracepoly._adjugate``."""
    mul, adj, draw = tracepoly._mul, tracepoly._adjugate, _MODES[mode][0]
    (xi, eta), ds = tracepoly._numerators([draw(rnd), draw(rnd)])
    t, d, sq = _tr(xi), _det(xi), mul(xi, xi)
    ch = (sq[0] - t * xi[0] + d, sq[1] - t * xi[1], sq[2] - t * xi[2], sq[3] - t * xi[3] + d)
    yield "cayley-hamilton", float(max(map(abs, ch)))
    yield "basic-identity", abs(_tr(mul(xi, eta)) + _tr(mul(xi, adj(eta))) - t * _tr(eta))
    yield "trace-of-inverse", abs(t - _tr(adj(xi)))
    lie = tuple(p - q for p, q in zip(mul(xi, eta), mul(eta, xi)))
    scale = 1 if ds is None else math.prod(ds) ** 2
    comm = _tr(mul(mul(mul(xi, eta), adj(xi)), adj(eta))) + _det(lie) - 2 * scale
    yield "commutator-vs-lie-det", abs(comm)


def _trial_oracle(rnd, mode):
    """A rank-2 and a rank-3 word, each with its matrices, whose traces
    check the words' trace polynomials, then the quadruple check."""
    draw, len2, len3, residual = _MODES[mode]
    for row, trace_poly, rank, length in (("rank2-words", tracepoly.trace_poly_f2, 2, len2),
                                          ("rank3-words", tracepoly.trace_poly_f3, 3, len3)):
        w = sampling.random_reduced_word(rnd, rank, length)
        m = [draw(rnd) for _ in range(rank)]
        yield row, residual(tracepoly.evaluate_at_character(trace_poly(w), m),
                            tracepoly.word_trace(w, m))
    yield "quadruple-trace", tracepoly.quadruple_trace_check([draw(rnd) for _ in range(4)])


def _trial_fricke(rnd, mode):
    from . import hypgeom

    coords = FNCoords(l=rnd.uniform(0.1, 5), tau=rnd.uniform(-4, 4), b=rnd.uniform(0, 4))
    yield "fn-boundary-constraint", fricke.fn_to_traces(coords).metadata["constraint_residual"]
    x, y, z = (rnd.uniform(-10, -2.01) for _ in range(3))
    cert = hypgeom.hexagon_certificate(x, y, z)
    if cert.verdict != "right-hexagon":
        yield "hexagon-inner-products", 1.0
    # the closed form against the hats of a real pair with these traces
    X, Y = tracepoly._normal_form(complex(x), complex(y), complex(z))
    Z = tracepoly._adjugate(tracepoly._mul(X, Y))  # (XY)^-1
    hx, hy, hz = map(tracepoly._hat, (X, Y, Z))
    for pair, (h1, h2) in zip(cert.pairs, ((hx, hy), (hy, hz), (hz, hx))):
        yield "hexagon-inner-products", abs(pair.inner - hypgeom.minkowski_inner(h1, h2))


def _trial_covers(rnd, mode):
    from . import chars

    character = chars.character_of_triple(
        *(sampling.random_unimodular_entries(rnd) for _ in range(3)))
    for r in covers.deck_involution_f3(character).sum_product_residuals():
        yield "deck-character-validity", r


def _trial_coxeter(rnd, mode):
    """Nothing for a pair within 1e-3 of kappa = 2, which has no extension."""
    from . import chars, hypgeom

    mul = tracepoly._mul
    xi, eta = (sampling.random_unimodular_entries(rnd) for _ in range(2))
    if abs(chars.character_of_pair(xi, eta).kappa() - 2) < 1e-3:
        return
    i_xy, i_yz, i_zx = hypgeom.coxeter_extension(xi, eta)
    zeta = tracepoly._adjugate(mul(xi, eta))
    for inv in (i_xy, i_yz, i_zx):
        yield "involution-factorization", _dist(mul(inv, inv), (-1, 0, 0, -1))
    for p, q, target in ((i_zx, i_xy, xi), (i_xy, i_yz, eta), (i_yz, i_zx, zeta)):
        dev = min(_dist(mul(p, q), target), _dist(mul(p, q), [-t for t in target]))
        yield "involution-factorization", dev / max(1.0, *map(abs, target))


#: Per suite: its trial, and its rows computed once, before the trials.
_SUITES = {
    "identities": (_trial_identities, None),
    "oracle": (_trial_oracle, None),
    "fricke": (_trial_fricke, lambda: [
        ("defining-identity-symbolic", float(not fricke.defining_identity_residual().is_zero()))]),
    "covers": (_trial_covers, lambda: [
        (f"symbolic-{name}", float(not all(covers.symbolic_check(name).values())))
        for name in covers.COVERS]),
    "coxeter": (_trial_coxeter, None),
}


def cmd_verify(args) -> int:
    if args.mode == "exact" and args.suite in ("fricke", "covers", "coxeter"):
        print(f"usage error: verify {args.suite} takes square roots and has no --mode exact",
              file=sys.stderr)
        return 2
    trial, once = _SUITES[args.suite]
    rows = {}  # row -> [largest residual, stream index of the trial that yielded it]

    def fold(pairs, index):  # how many pairs it folded
        n = 0
        for n, (name, r) in enumerate(pairs, 1):
            worst = rows.setdefault(name, [0.0, None])
            # a NaN residual wins its row, and fails it: max(0.0, nan) would be 0.0
            if r > worst[0] or r != r and worst[0] == worst[0]:
                worst[:] = r, index
        return n

    fold(once() if once else (), None)
    done = index = 0
    while done < args.trials:  # a trial that yields no row uses up its stream index
        done += fold(trial(sampling.rng_for(args.seed, index), args.mode), index) > 0
        index += 1
    failed = False
    for name, (residual, k) in rows.items():
        ok = residual <= args.tolerance
        failed = failed or not ok
        status = "pass" if ok else "FAIL" if k is None else f"FAIL trial={k}"
        print(f"{args.suite}/{name}: max-residual={float(residual):.17e} {status}")
    print(f"suite={args.suite} trials={args.trials} seed={args.seed} tolerance={args.tolerance:g} "
          f"mode={args.mode} result={'FAIL' if failed else 'pass'}")
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
    if [] in vars(args).values():  # argparse before Python 3.12 stores [] for a value "--"
        ap.error("'--' is not a value")
    if getattr(args, "trials", 1) < 1:
        ap.error("--trials must be >= 1")
    if getattr(args, "tolerance", 0) < 0:
        ap.error("--tolerance must be >= 0")
    try:
        return args.func(args)
    except WordSyntaxError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OverflowError) as exc:  # GeometryError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
