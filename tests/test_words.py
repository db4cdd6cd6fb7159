import doctest
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avoidance import words
from avoidance.words import (
    count_free_words,
    exponent,
    generate_free_words,
    is_alpha_plus_free,
    letter_indices,
    smallest_period,
)

import oracles


def test_module_doctests():
    failed, attempted = doctest.testmod(words)
    assert attempted > 0
    assert failed == 0


class TestLetterIndices:
    def test_rejects_letters_outside_display_alphabet(self):
        for w in ("0x", "q", "A", "0 1"):
            with pytest.raises(ValueError, match="display alphabet"):
                letter_indices(w)

    def test_indices_round_trip(self):
        assert letter_indices("0a1") == [0, 10, 1]
        assert letter_indices(words.DISPLAY) == list(range(words.MAX_ALPHABET))

    def test_empty_word_allowed(self):
        assert letter_indices("") == []


@pytest.mark.parametrize(
    "w,period",
    [
        ("0101", 2),
        ("0", 1),
        ("000", 1),
        ("012", 3),
        ("01201", 3),
        ("0100101", 5),
    ],
)
def test_smallest_period_examples(w, period):
    assert smallest_period(w) == period


def test_smallest_period_rejects_empty_word():
    with pytest.raises(ValueError, match="empty word"):
        smallest_period("")


def test_exponent_is_exact_fraction():
    e = exponent("01201")
    assert isinstance(e, Fraction)
    assert e == Fraction(5, 3)
    assert exponent("0101") == 2


words_strategy = st.text(alphabet="012", min_size=1, max_size=11)
alphas = st.sampled_from(
    [Fraction(5, 4), Fraction(4, 3), Fraction(3, 2), Fraction(7, 4), Fraction(2)]
)


@given(words_strategy)
def test_smallest_period_matches_naive(w):
    p = smallest_period(w)
    assert p == oracles.naive_smallest_period(w)
    assert 1 <= p <= len(w)
    assert all(w[i] == w[i + p] for i in range(len(w) - p))


@given(words_strategy, alphas)
def test_freeness_matches_naive(w, alpha):
    assert is_alpha_plus_free(w, alpha) == oracles.naive_is_free(w, alpha)


@given(words_strategy, alphas)
def test_free_words_are_factorial(w, alpha):
    # freeness must be inherited by every factor
    if not is_alpha_plus_free(w, alpha):
        return
    for i in range(len(w)):
        for j in range(i + 1, len(w) + 1):
            assert is_alpha_plus_free(w[i:j], alpha)


@pytest.mark.parametrize(
    "k,alpha,max_len",
    [
        (2, Fraction(2), 6),
        (3, Fraction(2), 5),
        (3, Fraction(7, 4), 5),
        (5, Fraction(5, 4), 4),
    ],
)
def test_generator_matches_filter_oracle(k, alpha, max_len):
    got = list(generate_free_words(k, alpha, max_len))
    assert sorted(got) == sorted(oracles.filter_free_words(k, alpha, max_len))
    # stream is lexicographic with prefixes before extensions
    assert got == sorted(got)


def test_count_free_words_ternary_dejean_threshold():
    # (7/4+)-free ternary counts; at these lengths they coincide with
    # the classical square-free numbers
    counts = count_free_words(3, Fraction(7, 4), 8)
    assert counts == [1, 3, 6, 12, 18, 30, 42, 60, 78]
    # allowing exponent exactly 2 strictly enlarges the language
    assert count_free_words(3, Fraction(2), 8) == [1, 3, 9, 24, 66, 174, 462, 1206, 3162]


def test_count_free_words_five_fourths_plus():
    counts = count_free_words(5, Fraction(5, 4), 6)
    assert counts == [1, 5, 20, 60, 120, 240, 360]
    assert sum(counts[1:]) == 805


def test_count_zero_length():
    assert count_free_words(3, Fraction(2), 0) == [1]


def test_count_rejects_negative_length():
    with pytest.raises(ValueError, match="non-negative"):
        count_free_words(3, Fraction(2), -1)


@pytest.mark.parametrize("k, alpha, max_len, message",
                         [(0, Fraction(2), 3, "alphabet size"),
                          (27, Fraction(2), 3, "alphabet size"),
                          (3, Fraction(1, 2), 3, "alpha"),
                          (3, Fraction(2), -1, "non-negative")])
def test_generator_checks_arguments_at_the_call(k, alpha, max_len, message):
    # the error comes before any word is asked for, not at the first next()
    with pytest.raises(ValueError, match=message):
        generate_free_words(k, alpha, max_len)


def test_generator_of_length_zero_yields_nothing():
    assert list(generate_free_words(3, Fraction(2), 0)) == []


def test_stream_tests_each_extension_once(monkeypatch):
    # one _extension_ok call per one-letter root and per child of each of
    # the 445 emitted words shorter than the bound: 5 + 5 * 445 = 2230
    tested = []
    real = words._extension_ok

    def counting(w, num, den):
        tested.append(w)
        return real(w, num, den)

    monkeypatch.setattr(words, "_extension_ok", counting)
    assert sum(1 for _ in generate_free_words(5, Fraction(5, 4), 6)) == 805
    assert len(tested) == 2230


def test_binary_two_plus_free_contains_thue_morse_prefix():
    free = set(generate_free_words(2, Fraction(2), 8))
    assert "01101001" in free
    assert "0101" in free  # exponent exactly 2 is allowed
    assert "000" not in free
    assert "010101" not in free  # exponent 3 exceeds the bound


def test_alpha_plus_freeness_is_strict_inequality():
    # "0101" has exponent exactly 2, so it is (2+)-free but not (7/4+)-free
    assert is_alpha_plus_free("0101", Fraction(2))
    assert not is_alpha_plus_free("0101", Fraction(7, 4))


@pytest.mark.parametrize("alpha", [1.5, 2.0, "2"])
def test_non_rational_exponent_is_rejected(alpha):
    # the exponent test is exact only on ints and Fractions; a float used
    # to fail with AttributeError on .numerator
    with pytest.raises(ValueError, match="int or a Fraction"):
        is_alpha_plus_free("0101", alpha)
    with pytest.raises(ValueError, match="int or a Fraction"):
        generate_free_words(2, alpha, 3)


def test_integer_exponent_is_accepted():
    assert is_alpha_plus_free("0101", 2) and not is_alpha_plus_free("010", 1)
    assert list(generate_free_words(2, 2, 8)) == \
        list(generate_free_words(2, Fraction(2), 8))
