from itertools import product

import pytest

from stylic.core import (
    Alphabet,
    decreasing_word,
    parse_alpha_letter,
    parse_letter,
    parse_word,
    render_letter,
    render_word,
    shift_down_word,
    support,
    theta,
)


def words_up_to(n, maxlen):
    for length in range(maxlen + 1):
        yield from product(range(1, n + 1), repeat=length)


def increasing_rearrangement(w):
    """The same multiset of letters, sorted weakly increasing."""
    return tuple(sorted(w))


def shift_up_word(w):
    """Send each letter to the one following it."""
    return tuple(x + 1 for x in w)


def render_letter_set(s):
    return "".join(render_letter(x) for x in sorted(s))


def test_alphabet_bounds():
    assert list(Alphabet(3).letters) == [1, 2, 3]
    with pytest.raises(ValueError):
        Alphabet(0)
    with pytest.raises(ValueError):
        Alphabet(13)


def test_theta_worked_example():
    a4 = Alphabet(4)
    assert render_word(theta(parse_word("acdaadc"), a4)) == "baddabd"


def test_theta_empty_and_involution_examples():
    a4 = Alphabet(4)
    assert theta((), a4) == ()
    w = parse_word("abcb")
    assert theta(theta(w, a4), a4) == w


def test_theta_rejects_foreign_letters():
    with pytest.raises(ValueError):
        theta((1, 5), Alphabet(4))


def test_theta_involution_exhaustive():
    for n in range(1, 5):
        alphabet = Alphabet(n)
        for w in words_up_to(n, 8):
            assert theta(theta(w, alphabet), alphabet) == w


def test_theta_antiautomorphism_exhaustive():
    a3 = Alphabet(3)
    words = list(words_up_to(3, 4))
    for u in words:
        for v in words:
            assert theta(u + v, a3) == theta(v, a3) + theta(u, a3)


def test_theta_subalphabet_compatibility():
    # On words avoiding the smallest letter, reversing over {1..n} agrees
    # with shifting down, reversing over {1..n-1}; dually for the largest.
    for n in range(2, 5):
        big, small = Alphabet(n), Alphabet(n - 1)
        for w in words_up_to(n - 1, 5):
            shifted = shift_up_word(w)  # avoids letter 1
            assert theta(shifted, big) == theta(w, small)
            assert theta(w, big) == shift_up_word(theta(w, small))


def test_support():
    assert support(()) == frozenset()
    assert support(parse_word("aabba")) == frozenset({1, 2})
    assert support(parse_word("cabd")) == frozenset({1, 2, 3, 4})


def test_increasing_rearrangement():
    assert increasing_rearrangement(parse_word("bacbdbc")) == parse_word("abbbccd")
    assert increasing_rearrangement(()) == ()
    assert increasing_rearrangement((1,)) == (1,)


def test_inflate(inflate):
    assert inflate(parse_word("cdab"), [3, 1, 1, 1]) == parse_word("cccdab")
    w = parse_word("bca")
    assert inflate(w, [1, 1, 1]) == w
    assert inflate(parse_word("ab"), [2, 2]) == parse_word("aabb")


def test_inflate_errors(inflate):
    with pytest.raises(ValueError):
        inflate((1, 2), [1])
    with pytest.raises(ValueError):
        inflate((1, 2), [1, 0])


def test_canonical_inflation_exponents(canonical_inflation_exponents):
    assert canonical_inflation_exponents(1) == (1,)
    assert canonical_inflation_exponents(3) == (4, 2, 1)
    assert canonical_inflation_exponents(4) == (8, 4, 2, 1)
    for length in range(1, 17):
        x = canonical_inflation_exponents(length)
        for i in range(length):
            assert x[i] - sum(x[i + 1 :]) >= 1
    with pytest.raises(ValueError):
        canonical_inflation_exponents(21)


def test_inflation_preserves_support(inflate):
    import random

    rng = random.Random(5)
    for _ in range(100):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 8)))
        exps = [rng.randint(1, 3) for _ in w]
        assert support(inflate(w, exps)) == support(w)


def test_word_text_round_trip():
    for text in ("", "a", "cabd", "zz"):
        assert render_word(parse_word(text)) == text
    assert parse_word("3.1.2.4") == (3, 1, 2, 4)
    assert parse_word("312") == (3, 1, 2)
    with pytest.raises(ValueError):
        parse_word("aB")
    with pytest.raises(ValueError):
        parse_word("0.1")


def test_one_letter_is_a_to_z_or_a_positive_number():
    assert [parse_letter(t) for t in ("a", "z", "1", "10", "007")] == [1, 26, 1, 10, 7]
    assert parse_alpha_letter("j") == 10
    for token in ("0", "00", "", "ab", "A", "-1", "+2", " 3", "1.2", "１", "é"):
        with pytest.raises(ValueError, match="is not a letter"):
            parse_letter(token)
    for token in ("1", "", "ab", "A"):
        with pytest.raises(ValueError, match="is not a letter"):
            parse_alpha_letter(token)


@pytest.mark.parametrize("text", ["0", "1.0", "aB", "a.b", "1..2", "1.-2", "a$"])
def test_word_errors_name_the_letter(text):
    with pytest.raises(ValueError, match="is not a letter"):
        parse_word(text)


def test_letter_set_rendering():
    assert render_letter_set(frozenset({3, 1})) == "ac"
    assert decreasing_word(frozenset({1, 2, 4})) == (4, 2, 1)
    assert shift_down_word((2, 3)) == (1, 2)
    with pytest.raises(ValueError):
        shift_down_word((1, 2))
