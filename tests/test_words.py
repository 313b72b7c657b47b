import random
import time

import pytest

from slchar.cli import main
from slchar.words import (
    MAX_WORD_LETTERS,
    Word,
    WordSyntaxError,
    parse_word,
)


def rand_word(rnd, rank, max_len):
    letters = []
    while len(letters) < rnd.randint(0, max_len):
        g = rnd.choice([k for i in range(1, rank + 1) for k in (i, -i)])
        letters.append(g)
    return Word(rank, tuple(letters))


class TestParse:
    def test_compact(self):
        w = parse_word("X Y", 2)
        assert w.letters == (1, 2)
        assert w.canonical() == "X1 X2"

    def test_cancellation(self):
        assert parse_word("X x", 2).is_identity

    def test_indexed(self):
        w = parse_word("X1 X2^-1 X3", 3)
        assert w.letters == (1, 2 * -1, 3)
        assert w.canonical() == "X1 X2^-1 X3"

    def test_lowercase_inverse(self):
        assert parse_word("x", 2).letters == (-1,)

    def test_exponent(self):
        assert parse_word("X^3 y^2", 2).letters == (1, 1, 1, -2, -2)

    def test_syntax_error_position(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_word("X @", 2)
        assert err.value.position == 2

    def test_rank_violation(self, capsys):
        with pytest.raises(WordSyntaxError):
            parse_word("Z", 2)
        with pytest.raises(WordSyntaxError):
            parse_word("X5", 3)
        # a compact letter above the rank names its index; one outside X, Y, Z is unknown
        for text, rank, message in (("Z", 2, "generator index 3 exceeds rank 2"),
                                    ("U", 3, "unknown letter 'U'")):
            with pytest.raises(WordSyntaxError) as err:
                parse_word(text, rank)
            assert str(err.value) == f"{message} (at position 0)"
        assert main(["trace-poly", "Z"]) == 2
        err = capsys.readouterr().err
        assert err == "usage error: generator index 3 exceeds rank 2 (at position 0)\n"

    def test_expansion_cap(self):
        assert len(parse_word(f"X^{MAX_WORD_LETTERS}", 1)) == MAX_WORD_LETTERS
        with pytest.raises(WordSyntaxError) as err:
            parse_word(f"X^{MAX_WORD_LETTERS + 1}", 1)
        assert err.value.position == 0
        # the cap counts letters before free reduction, across tokens
        half = MAX_WORD_LETTERS // 2 + 1
        with pytest.raises(WordSyntaxError) as err:
            parse_word(f"X^{half} x^{half}", 2)
        assert err.value.position == len(f"X^{half} ")

    def test_oversized_index_is_syntax_error(self):
        # more digits than int() converts: rejected before the conversion
        with pytest.raises(WordSyntaxError) as err:
            parse_word("X Y X" + "1" * 5000, 3)
        assert err.value.position == 4
        assert parse_word("X" + "0" * 5000 + "2", 3).letters == (2,)

    def test_oversized_exponent_is_syntax_error(self):
        for sign in ("", "-"):
            with pytest.raises(WordSyntaxError) as err:
                parse_word(f"X Y^{sign}" + "9" * 5000, 2)
            assert err.value.position == 2
        assert parse_word("Y^-" + "0" * 5000 + "3", 2).letters == (-2, -2, -2)

    def test_whitespace_optional(self):
        assert parse_word("XYxy", 2).letters == (1, 2, -1, -2)


class TestReduce:
    def test_single_cancellation(self):
        w = Word(2, (1, 2, -2, 1))
        assert w.reduce().letters == (1, 1)

    def test_empty(self):
        assert Word(2, ()).reduce().letters == ()

    def test_full_cancellation(self):
        assert Word(2, (1, -2, 2, -1)).reduce().letters == ()

    def test_idempotent_and_nonincreasing(self):
        rnd = random.Random(0)
        for _ in range(300):
            w = rand_word(rnd, 2, 12)
            r = w.reduce()
            assert r.reduce() == r
            assert len(r) <= len(w)
            assert r.is_reduced


class TestCyclicReduce:
    def test_one_peel(self):
        core, conj = Word(2, (-1, 2, 1)).cyclic_reduce()
        assert core.letters == (2,)
        assert conj.letters == (-1,)

    def test_already_reduced(self):
        w = Word(2, (1, 2, -1, -2))
        core, conj = w.cyclic_reduce()
        assert core == w
        assert conj.is_identity

    def test_two_peels(self):
        # Y^-1 X^-1 Y X Y peels down to the core Y
        w = Word(2, (-2, -1, 2, 1, 2))
        core, conj = w.cyclic_reduce()
        assert core.letters == (2,)
        assert conj.letters == (-2, -1)
        assert (conj * core * conj.inverse()) == w.reduce()

    def test_core_invariant(self):
        rnd = random.Random(1)
        for _ in range(300):
            w = rand_word(rnd, 3, 10).reduce()
            core, conj = w.cyclic_reduce()
            assert core.is_cyclically_reduced
            assert conj * core * conj.inverse() == w

    def test_long_conjugate_is_linear(self):
        # peeling one end pair at a time by slicing was quadratic: about
        # 8 s for this word
        w = parse_word("X^49000 Y X^-49000", 2)
        start = time.perf_counter()
        core, conj = w.cyclic_reduce()
        assert time.perf_counter() - start < 0.5
        assert core.letters == (2,)
        assert conj.letters == (1,) * 49000


class TestGroupOps:
    def test_inverse_cancels(self):
        w = Word(2, (1,))
        assert (w * w.inverse()).is_identity

    def test_invert_order(self):
        assert Word(2, (1, 2)).inverse().letters == (-2, -1)

    def test_cross_rank_product(self):
        a = Word(3, (1, 2))
        b = Word(3, (-2, 3))
        assert (a * b).letters == (1, 3)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            Word(2, (1,)) * Word(3, (1,))

    def test_product_inverse_property(self):
        rnd = random.Random(2)
        for _ in range(300):
            w = rand_word(rnd, 3, 12)
            assert (w * w.inverse()).is_identity
            assert (w.inverse() * w).is_identity

    def test_pow(self):
        w = Word(2, (1, 2))
        assert (w**3).letters == (1, 2, 1, 2, 1, 2)
        assert (w**-1) == w.inverse()
        assert (w**0).is_identity

    def test_pow_is_repeated_product(self):
        rnd = random.Random(3)
        for _ in range(50):
            w = rand_word(rnd, 3, 8)
            for k in range(-3, 4):
                want = Word.identity(3)
                for _ in range(abs(k)):
                    want = want * (w if k > 0 else w.inverse())
                assert w**k == want, (w, k)

    def test_generator_range(self):
        with pytest.raises(ValueError):
            Word.generator(2, 3)
        assert Word.generator(3, 2, inverted=True).letters == (-2,)
