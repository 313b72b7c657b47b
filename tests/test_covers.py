import random

import numpy as np
import pytest

from slchar import covers, mat2
from slchar.chars import character_of_triple
from slchar.covers import (
    cover_c02_to_s04,
    cover_c11_to_s12,
    deck_involution_f3,
    deck_ring_map,
    embed_r2_in_r3,
    symbolic_check,
)
from slchar.fricke import s04_defining_poly, s12_relation_polys
from slchar.polyring import F3_VARS, PHI, Polynomial, reduce_mod_phi
from slchar.sampling import random_reduced_word, random_unimodular
from slchar.tracepoly import trace_poly
from slchar.words import Word

RND = random.Random(60)


def rand_f3_poly(rnd, nterms=5, maxdeg=2):
    terms = {}
    for _ in range(rnd.randint(1, nterms)):
        e = tuple(rnd.randint(0, maxdeg) for _ in range(7))
        terms[e] = rnd.randint(-5, 5)
    return Polynomial(F3_VARS, terms)


class TestSymbolicChecks:
    def test_c02_to_s04(self):
        assert symbolic_check("c02s04") == {"defining_quartic": True}

    def test_c11_to_s12(self):
        assert symbolic_check("c11s12") == {
            "sum_relation": True,
            "product_relation": True,
        }

    def test_embed(self):
        assert symbolic_check("embed") == {"phi_image": True}

    def test_deck(self):
        result = symbolic_check("deck")
        assert result["phi_in_ideal"] and result["involution_on_generators"]

    def test_checked_once_and_a_fresh_dict_each_call(self, monkeypatch):
        first = symbolic_check("deck")
        first["phi_in_ideal"] = False
        # a cached result: no substitution runs again
        monkeypatch.setattr(covers, "ring_map", None)
        again = symbolic_check("deck")
        assert again is not first and again["phi_in_ideal"] is True

    def test_direct_substitution(self):
        rm = cover_c02_to_s04()
        assert rm.apply_poly(s04_defining_poly()).is_zero()
        rm = cover_c11_to_s12()
        rel1, rel2 = s12_relation_polys()
        assert rm.apply_poly(rel1).is_zero()
        assert rm.apply_poly(rel2).is_zero()


class TestEmbedding:
    def test_image_table(self):
        rm = embed_r2_in_r3()
        t = {n: img.to_text() for n, img in rm.images.items()}
        assert t["x1"] == "x1^2 - 2"
        assert t["x2"] == "x12"
        assert t["x3"] == "x2^2 - 2"
        assert t["x12"] == "x1*x2 - x12"
        assert t["x13"] == "x1*x2*x12 - x1^2 - x2^2 + 2"
        assert t["x23"] == "x1*x2 - x12"
        assert t["x123"] == "x12"

    def test_trivial_character(self):
        rm = embed_r2_in_r3()
        vals = rm.apply_point({"x1": 2, "x2": 2, "x12": 2})
        assert all(v == 2 for v in vals.values())

    def test_numeric_naturality(self):
        rm = embed_r2_in_r3()
        for _ in range(100):
            xi, eta = random_unimodular(RND), random_unimodular(RND)
            point = {
                "x1": mat2.trace(xi),
                "x2": mat2.trace(eta),
                "x12": mat2.trace(xi @ eta),
            }
            images = rm.apply_point(point)
            y1 = xi @ xi
            y2 = mat2.adjoint(xi) @ mat2.adjoint(eta)
            y3 = eta @ eta
            actual = {
                "x1": mat2.trace(y1),
                "x2": mat2.trace(y2),
                "x3": mat2.trace(y3),
                "x12": mat2.trace(y1 @ y2),
                "x13": mat2.trace(y1 @ y3),
                "x23": mat2.trace(y2 @ y3),
                "x123": mat2.trace(y1 @ y2 @ y3),
            }
            for n, v in actual.items():
                assert abs(images[n] - v) <= 1e-9 * (1 + abs(v))


class TestDeckInvolution:
    def test_fixed_and_swapped_generators(self):
        rm = deck_ring_map()
        t = {n: img.to_text() for n, img in rm.images.items()}
        assert t["x1"] == "x1"
        assert t["x3"] == "x3"
        assert t["x2"] == "x123"
        assert t["x123"] == "x2"
        assert t["x12"] == "x23"
        assert t["x23"] == "x12"
        assert t["x13"] == "x1*x3 + x2*x123 - x12*x23 - x13"

    def test_involution_on_random_polynomials(self):
        for _ in range(100):
            p = rand_f3_poly(RND)
            twice = deck_involution_f3(deck_involution_f3(p))
            assert reduce_mod_phi(twice) == reduce_mod_phi(p)

    def test_characters_stay_valid(self):
        for _ in range(100):
            ms = [random_unimodular(RND) for _ in range(3)]
            ch = character_of_triple(*ms)
            img = deck_involution_f3(ch)
            scale = 1 + max(abs(v) for v in ch.as_tuple()) ** 3
            r1, r2 = img.sum_product_residuals()
            assert r1 <= 1e-9 * scale and r2 <= 1e-9 * scale

    def test_matches_conjugation_on_matrices(self):
        for _ in range(50):
            p, q = random_unimodular(RND), random_unimodular(RND)
            y1, y2, y3 = p @ p, mat2.adjoint(p) @ mat2.adjoint(q), q @ q
            ch = character_of_triple(y1, y2, y3)
            img = deck_involution_f3(ch)
            pi = mat2.adjoint(p)
            conj = [p @ m @ pi for m in (y1, y2, y3)]
            expect = character_of_triple(*conj)
            for a, b in zip(img.as_tuple(), expect.as_tuple()):
                assert abs(a - b) <= 1e-8 * (1 + abs(b))

    def test_type_dispatch(self):
        with pytest.raises(TypeError):
            deck_involution_f3(42)


class TestC02ToS04:
    def test_boundary_pairing(self):
        rm = cover_c02_to_s04()
        assert rm.images["a"] == rm.images["d"]
        assert rm.images["b"] == rm.images["c"]

    def test_numeric_naturality(self):
        rm = cover_c02_to_s04()
        for _ in range(100):
            U, V = random_unimodular(RND), random_unimodular(RND)
            Ui, Vi = mat2.adjoint(U), mat2.adjoint(V)
            A, B = U @ V, Vi @ U
            C, D = Ui @ Ui @ V @ U, Ui @ Vi
            point = {"u": mat2.trace(U), "v": mat2.trace(V), "w": mat2.trace(U @ V)}
            images = rm.apply_point(point)
            actual = {
                "a": mat2.trace(A), "b": mat2.trace(B),
                "c": mat2.trace(C), "d": mat2.trace(D),
                "x": mat2.trace(A @ B), "y": mat2.trace(B @ C),
                "z": mat2.trace(A @ C),
            }
            for n, v in actual.items():
                assert abs(images[n] - v) <= 1e-8 * (1 + abs(v))

    def test_x_image(self):
        rm = cover_c02_to_s04()
        assert rm.images["x"].to_text() == "u^2 - 2"


class TestC11ToS12:
    def test_boundary_images_equal(self):
        rm = cover_c11_to_s12()
        assert rm.images["a"] == rm.images["b"]

    def test_printed_entries(self):
        rm = cover_c11_to_s12()
        t = {n: img.to_text() for n, img in rm.images.items()}
        assert t["u"] == "r"
        assert t["x"] == "p*q - r"
        assert t["y"] == "p^2 - 2"
        assert t["v"] == "q^2 - 2"

    def test_numeric_naturality(self):
        rm = cover_c11_to_s12()
        for _ in range(100):
            P, Q = random_unimodular(RND), random_unimodular(RND)
            Pi = mat2.adjoint(P)
            U, X, Y = P @ Q, Q @ Pi, P @ P
            point = {"p": mat2.trace(P), "q": mat2.trace(Q), "r": mat2.trace(P @ Q)}
            images = rm.apply_point(point)
            actual = {
                "u": mat2.trace(U), "x": mat2.trace(X), "y": mat2.trace(Y),
                "v": mat2.trace(U @ X), "w": mat2.trace(U @ Y),
                "z": mat2.trace(X @ Y),
                "a": mat2.trace(U @ X @ Y), "b": mat2.trace(U @ Y @ X),
            }
            for n, v in actual.items():
                assert abs(images[n] - v) <= 1e-8 * (1 + abs(v))

    def test_tables_are_engine_traces(self):
        # the w and z entries come from the words PQP^2 and QP
        rm = cover_c11_to_s12()
        w_poly = trace_poly(Word(2, (1, 2, 1, 1)))
        z_poly = trace_poly(Word(2, (2, 1)))
        assert rm.images["w"] == w_poly.rename_variables(rm.target)
        assert rm.images["z"] == z_poly.rename_variables(rm.target)


def _push(rm, w):
    """phi(w): each letter of w as its generator image under ``rm``, an
    inverse letter as the inverted image."""
    return Word(rm.rank, tuple(h for g in w.letters for h in (
        rm.generators[g] if g > 0 else [-x for x in reversed(rm.generators[-g])])))


class TestFunctoriality:
    """Each rank-3 map is the trace action of a word map phi, so
    trace_poly(phi(w)) is the image of trace_poly(w), exactly: no matrices."""

    @pytest.mark.parametrize("key", ["embed", "deck"])
    def test_traced_images_of_words(self, key):
        rm = covers.ring_map(key)
        rnd = random.Random(f"functoriality-{key}")
        words = [Word(3, (-1,)), Word(3, (1, -3)), Word(3, (-2, -3, 1))]
        words += [random_reduced_word(rnd, 3, 10) for _ in range(300)]
        for w in words:
            assert (trace_poly(_push(rm, w)).rename_variables(rm.target)
                    == rm.apply_poly(trace_poly(w))), w


class TestRingMapPlumbing:
    def test_json_shape(self):
        data = cover_c02_to_s04().to_json()
        assert set(data) == {"name", "source", "target", "images"}
        assert set(data["images"]) == set("abcdxyz")

    def test_wrong_source_rejected(self):
        rm = cover_c02_to_s04()
        with pytest.raises(ValueError):
            rm.apply_poly(PHI)

    def test_unknown_map(self):
        with pytest.raises(ValueError):
            symbolic_check("nope")
