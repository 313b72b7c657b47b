"""numpy loads only where matrices are built.  ``import slchar`` is lazy
(PEP 562), and the symbolic path (words, polyring, tracepoly, covers,
fricke with ``fn_to_traces``, sampling's exact draws and the exact
quadruple-trace check on them, ``slchar trace-poly``, ``slchar cover
map`` with and without ``--eval``, ``slchar fn2trace``, ``slchar
fricke test`` and ``slchar verify identities`` and ``oracle`` in both
modes, and the number intake ``slchar._intake``) leaves numpy out of
``sys.modules``, and so do ``import slchar.mat2``, ``import
slchar.chars``, ``import slchar.hypgeom``, every other ``slchar verify``
suite, the deck involution on a character of float 4-tuples, the
Coxeter extension of a pair of them and the 2x2 functions of ``mat2`` on
4-tuples; ``tracepoly``, ``covers`` and ``fricke`` leave ``mat2`` out,
``mat2``, ``chars``, ``fricke`` and ``hypgeom`` leave ``tracepoly``
out, and ``chars`` and ``hypgeom`` leave ``fricke`` out.  Each footprint runs
in a fresh interpreter."""

import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import slchar

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(code: str) -> list[str]:
    """The lines that ``code`` prints in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def loaded(code: str, module: str = "numpy") -> bool:
    """Whether ``module``, numpy unless named, is in ``sys.modules`` after
    running ``code``."""
    return run(f"{code}\nimport sys\nprint({module!r} in sys.modules)")[-1] == "True"


@pytest.mark.parametrize("code", [
    "import slchar",
    "from slchar import words, polyring, tracepoly, covers, fricke, sampling, mat2\n"
    "w = words.parse_word('X1 X2 X3 X1^-1 X2', 3)\n"
    "p = tracepoly.trace_poly(w)\n"
    "covers.deck_ring_map().apply_poly(p)\n"
    "rnd = sampling.rng_for(0)\n"
    "mats = [sampling.random_rational_unimodular(rnd) for _ in range(3)]\n"
    "assert len(set(mats)) == 3, mats\n"
    "mat2.evaluate_at_character(p, mats)\n"
    "rnd = sampling.rng_for(4)\n"
    "assert mat2.quadruple_trace_check("
    "[sampling.random_rational_unimodular(rnd) for _ in range(4)]) == 0\n"
    "fricke.member_s04(fricke.CharacterS04(2, 2, 2, 2, -3, 3, 3))",
    "from slchar.cli import main\nmain(['trace-poly', 'X Y x y'])",
    "from slchar.cli import main\nmain(['cover', 'map', 'deck', '--symbolic-check'])",
    "from slchar.cli import main\nmain(['cover', 'map', 'embed', '--eval', 'x1=2,x2=2,x12=2'])",
    "from slchar import fricke\nfricke.fn_to_traces(fricke.FNCoords(l=2, tau=0.5, b=1))",
    "from slchar.cli import main\nmain(['fn2trace', '1', '0'])",
    "from slchar.cli import main\nmain(['fricke', 'test', 's11', '--coords=3,3,3'])",
    "from slchar.cli import main\n"
    "main(['fricke', 'test', 's04', '--mode', 'exact', '--coords=2,2,2,2,-3,3,3'])",
    *(f"from slchar.cli import main\nmain(['verify', '{suite}', '--mode', '{mode}'])"
      for suite in ("identities", "oracle") for mode in ("float", "exact")),
    "import slchar._intake",
    "import slchar.mat2",
    "import slchar.chars",
    "from slchar.cli import main\nmain(['verify', 'covers', '--trials', '5'])",
    "from slchar import chars, covers\n"
    "m1, m2, m3 = (2.0, 1.0, 1.0, 1.0), (1.0, 0.5, 2.0, 2.0), (0.0, -1.0, 1.0, 3.0)\n"
    "covers.deck_involution_f3(chars.character_of_triple(m1, m2, m3))",
    "import slchar.hypgeom",
    *(f"from slchar.cli import main\nassert main(['verify', '{suite}', '--trials', '5']) == 0"
      for suite in ("fricke", "coxeter")),
    "from slchar import hypgeom\n"
    "out = hypgeom.coxeter_extension((2.0, 1.0, 1.0, 1.0), (1.0, 0.5, 2.0, 2.0))\n"
    "assert all(type(i) is tuple and len(i) == 4 for i in out), out",
    "from slchar import mat2\n"
    "m = (3.0, 1.0, 2.0, 1.0)\n"
    "assert (mat2.trace(m), mat2.det(m)) == (4.0, 1.0)\n"
    "out = [f(m) for f in (mat2.inverse, mat2.traceless_projection, mat2.involution_of,\n"
    "                      mat2.glide_reflection_sqrt)]\n"
    "assert all(type(n) is tuple and len(n) == 4 for n in out), out",
], ids=["import", "symbolic-modules", "cli-trace-poly", "cli-cover-map", "cli-cover-eval",
        "fn-to-traces", "cli-fn2trace", "cli-fricke-test-s11", "cli-fricke-test-s04-exact",
        "cli-verify-identities", "cli-verify-identities-exact", "cli-verify-oracle",
        "cli-verify-oracle-exact", "intake", "mat2", "chars", "cli-verify-covers", "deck-involution",
        "hypgeom", "cli-verify-fricke", "cli-verify-coxeter", "coxeter-extension",
        "mat2-on-4-tuples"])
def test_symbolic_path_loads_no_numpy(code):
    assert not loaded(code)


def test_symbolic_modules_leave_mat2_out():
    assert not loaded("import slchar.tracepoly, slchar.covers, slchar.fricke", "slchar.mat2")


def test_modules_that_trace_no_word_leave_the_engine_out():
    # they read the coordinate table, kappa and the quadruple identity from polyring
    assert not loaded("import slchar.mat2, slchar.chars, slchar.fricke, slchar.hypgeom",
                      "slchar.tracepoly")


def test_import_traces_no_word():
    # a ring map traces its images at first use, not when it is taken
    out = run("import slchar.cli\nfrom slchar import covers, polyring, tracepoly\n"
              "deck = covers.ring_map('deck')\n"
              "print(tracepoly._trace.cache_info().currsize)\n"
              "deck.apply_poly(polyring.PHI)\n"
              "print(tracepoly._trace.cache_info().currsize > 0,"
              " 'images' in vars(covers.COVERS['embed']))")
    assert out == ["0", "True False"]


def test_matrix_modules_load_numpy():
    # the probe sees numpy where an array is built
    assert loaded("import slchar\nslchar.mat2.I2")


@pytest.mark.parametrize("module, loads_fricke", [
    ("chars", False), ("hypgeom", False), ("cli", True),  # the last: the probe sees fricke
])
def test_fricke_footprint(module, loads_fricke):
    # chars and hypgeom take their numbers in through slchar._intake, not through fricke
    assert loaded(f"import slchar.{module}", "slchar.fricke") is loads_fricke


@pytest.mark.parametrize("name", [n for n in slchar.__all__ if n != "__version__"])
def test_lazy_name_is_its_owners_attribute(name):
    obj = getattr(slchar, name)
    if inspect.ismodule(obj):
        assert obj is importlib.import_module(f"slchar.{name}")
    else:
        assert obj is getattr(importlib.import_module(obj.__module__), name)


def test_dir_lists_all():
    assert set(slchar.__all__) <= set(dir(slchar))


def test_unknown_name():
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        slchar.nonexistent
