import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avoidance import patterns
from avoidance.patterns import (
    Occurrence,
    Pattern,
    canonicalize,
    doubled_patterns_upto,
    enumerate_remaining,
    find_doubled_factor,
    find_occurrence,
    find_splitted_factor,
    is_doubled,
    is_n_splitted,
    map_workers,
    pattern_contains_doubled,
    reverse,
    splitted_to_pattern,
)

import oracles

SPORADIC_4 = [
    "ABACBDCD",
    "ABACDBDC",
    "ABACDCBD",
    "ABCADBDC",
    "ABCADCBD",
    "ABCADCDB",
    "ABCBDADC",
]
SPORADIC_5 = ["ABACBDCEDE", "ABACDBCEDE", "ABACDBDECE"]


class TestPattern:
    def test_rejects_non_variable_symbols(self):
        with pytest.raises(ValueError):
            Pattern("ab")
        with pytest.raises(ValueError):
            Pattern("A B")
        with pytest.raises(ValueError):
            Pattern("")

    def test_var_count(self):
        assert Pattern("ABACBDCD").var_count == 4
        assert Pattern("AA").var_count == 1

    def test_canonical_flag(self):
        assert Pattern("ABAB").is_canonical
        assert not Pattern("BABA").is_canonical


def test_canonicalize_first_appearance_order():
    assert str(canonicalize("BAB")) == "ABA"
    assert str(canonicalize("CACB")) == "ABAC"
    p = canonicalize("ZYZ")
    assert str(canonicalize(p)) == str(p)  # idempotent


def test_reverse_example():
    assert str(reverse(Pattern("ABCADCDB"))) == "ABCBDCAD"


@given(st.text(alphabet="ABC", min_size=1, max_size=8))
def test_reverse_is_involution_on_canonical_forms(s):
    p = canonicalize(s)
    assert str(reverse(reverse(p))) == str(p)
    assert reverse(p).is_canonical


@pytest.mark.parametrize(
    "p,expected",
    [("AA", True), ("ABAB", True), ("AABB", True), ("ABA", False), ("A", False)],
)
def test_is_doubled(p, expected):
    assert is_doubled(Pattern(p)) is expected


class TestFindOccurrence:
    def test_square_free_host_has_no_square(self):
        assert find_occurrence(Pattern("AA"), "0102010") is None

    def test_finds_least_occurrence(self):
        occ = find_occurrence(Pattern("AA"), "10011")
        assert occ is not None
        # earliest start wins, then shortest images
        assert occ.start == 1
        assert occ.images == {"A": "0"}
        assert occ.substitute(Pattern("AA")) == "00"

    def test_substitution_identity(self):
        p = Pattern("ABAB")
        w = "0101"
        occ = find_occurrence(p, w)
        assert occ is not None
        assert occ.substitute(p) == w[occ.start : occ.start + 4]

    def test_image_total_cap(self):
        # the only ABAB occurrence in 012012 needs total 6
        p = Pattern("ABAB")
        assert find_occurrence(p, "012012") is not None
        assert find_occurrence(p, "012012", max_image_total=5) is None
        assert find_occurrence(p, "012012", max_image_total=6) is not None

    def test_min_end_restricts_results(self):
        p = Pattern("AA")
        w = "001100"
        first = find_occurrence(p, w)
        assert first is not None and first.start == 0
        late = find_occurrence(p, w, min_end=5)
        assert late is not None
        assert late.start + sum(len(late.images[v]) for v in "AA") >= 5

    def test_non_erasing(self):
        # empty images would make ABA occur in any length-2 word
        assert find_occurrence(Pattern("ABA"), "01") is None


pattern_strategy = st.text(alphabet="AB", min_size=1, max_size=4).map(
    lambda s: canonicalize(s)
)
host_strategy = st.text(alphabet="012", min_size=0, max_size=10)


@given(pattern_strategy, host_strategy)
def test_occurrence_agrees_with_brute_oracle(p, w):
    got = find_occurrence(p, w)
    assert (got is not None) == oracles.brute_occurrence(str(p), w)
    if got is not None:
        end = got.start + sum(len(got.images[v]) for v in str(p))
        assert got.substitute(p) == w[got.start : end]
        assert all(got.images[v] for v in set(str(p)))


@settings(max_examples=400)
@given(st.text(alphabet="ABC", min_size=1, max_size=5),
       st.text(alphabet="01", min_size=0, max_size=9), st.data())
def test_occurrence_is_the_first_one_of_the_brute_oracle(raw, w, data):
    # doubled and non-doubled patterns; min_end = len(w) is the suffix
    # mirror path, min_end > len(w) admits nothing
    p = canonicalize(raw)
    cap = data.draw(st.one_of(st.none(), st.integers(0, len(w) + 1)))
    min_end = data.draw(st.one_of(st.just(len(w)),
                                  st.integers(0, len(w) + 1)))
    got = find_occurrence(p, w, cap, min_end)
    want = oracles.brute_first_occurrence(str(p), w, cap, min_end)
    assert (None if got is None else (got.start, got.images)) == want


def test_doubled_patterns_upto_ordering_and_membership():
    ps = doubled_patterns_upto(4, 8)
    assert [str(p) for p in ps[:4]] == ["AA", "AAA", "AAAA", "AABB"]
    assert all(is_doubled(p) and p.is_canonical for p in ps)
    lengths = [len(p) for p in ps]
    assert lengths == sorted(lengths)


def test_doubled_candidate_counts():
    from avoidance.patterns import _doubled_of_length

    assert len(list(_doubled_of_length(8, 4, True))) == 105
    assert len(list(_doubled_of_length(10, 5, True))) == 945


@pytest.mark.parametrize(
    "p,vmax,hit",
    [
        ("AABB", 3, True),  # AA occurs literally
        ("ABCBABC", 3, True),
        ("ABC", 3, False),
        ("ABCA", 3, False),  # no doubled image fits in four letters
    ],
)
def test_pattern_contains_doubled(p, vmax, hit):
    got = pattern_contains_doubled(Pattern(p), vmax)
    if hit:
        assert got is not None
        q, occ = got
        assert is_doubled(q)
        assert q.var_count <= vmax
    else:
        assert got is None


def test_find_doubled_factor_prefers_shortest():
    hit = find_doubled_factor(Pattern("ABAABB"))
    assert hit == "AA"


def test_find_doubled_factor_absent():
    assert find_doubled_factor(Pattern("ABC")) is None


@given(st.data())
def test_long_patterns_contain_doubled_factor(data):
    # any pattern of length >= 2^v has a doubled factor
    v = data.draw(st.integers(min_value=1, max_value=3))
    alphabet = "ABC"[:v]
    length = data.draw(st.integers(min_value=2**v, max_value=2**v + 3))
    s = data.draw(st.text(alphabet=alphabet, min_size=length, max_size=length))
    hit = find_doubled_factor(canonicalize(s))
    assert hit is not None
    assert hit in str(canonicalize(s))
    assert all(hit.count(c) >= 2 for c in set(hit))


def test_enumerate_remaining_four_variables():
    assert [str(p) for p in enumerate_remaining(4)] == SPORADIC_4


def test_enumerate_remaining_five_variables():
    assert [str(p) for p in enumerate_remaining(5)] == SPORADIC_5


def test_enumerate_remaining_parallel_matches_serial():
    serial = enumerate_remaining(4, workers=1)
    parallel = enumerate_remaining(4, workers=2)
    assert [str(p) for p in serial] == [str(p) for p in parallel]


@pytest.mark.parametrize("workers, cpus, n_jobs, size", [
    (1000, 4, 10, 4),
    (3, 4, 10, 3),
    (1000, 4, 2, 2),
    (2, None, 10, None),  # unknown cpu count counts as one: no pool
    (8, 4, 1, None),
    (1, 4, 10, None),
])
def test_map_workers_pool_size(monkeypatch, recording_pools, workers, cpus,
                               n_jobs, size):
    monkeypatch.setattr(patterns.os, "cpu_count", lambda: cpus)
    jobs = list(range(n_jobs))
    assert list(map_workers(abs, jobs, workers)) == jobs
    assert [p.max_workers for p in recording_pools] == \
        ([] if size is None else [size])
    assert all(p.cancelled == [] for p in recording_pools)


def test_map_workers_cancels_pending_jobs_when_the_consumer_stops(
        monkeypatch, recording_pools):
    monkeypatch.setattr(patterns.os, "cpu_count", lambda: 2)
    results = map_workers(abs, [-1, -2, -3, -4], 2)
    assert recording_pools == []  # nothing starts before the first result
    assert next(results) == 1
    results.close()
    (pool,) = recording_pools
    assert pool.cancelled == [-2, -3, -4]


@pytest.mark.parametrize("workers", [0, -3])
def test_map_workers_rejects_non_positive_workers(workers):
    with pytest.raises(ValueError):
        map_workers(abs, [1, 2], workers)


def test_map_workers_in_process_is_lazy():
    seen = []
    results = map_workers(seen.append, [1, 2, 3])
    assert seen == []
    next(iter(results))
    assert seen == [1]


def test_enumerate_remaining_rejects_other_sizes():
    with pytest.raises(ValueError):
        enumerate_remaining(3)


class TestSplitted:
    def test_is_n_splitted_examples(self):
        assert is_n_splitted("0110", 2)
        assert is_n_splitted("012012", 2)
        assert not is_n_splitted("012012", 3)  # block "01" misses 2
        assert not is_n_splitted("011", 2)  # length not divisible

    def test_already_splitted_word_is_returned_whole(self):
        rep = find_splitted_factor("0110", 2)
        assert (rep.factor, rep.offset, rep.depth) == ("0110", 0, 0)

    def test_three_letter_case_recurses(self):
        rep = find_splitted_factor("01201201", 2)
        assert is_n_splitted(rep.factor, 2)
        assert "01201201"[rep.offset : rep.offset + len(rep.factor)] == rep.factor

    def test_length_precondition(self):
        with pytest.raises(ValueError):
            find_splitted_factor("0110110110110110", 2)  # 16 != 2^2

    def test_recursion_descends_on_missing_letter(self):
        # first half 0000 misses 1, so recursion must look inside a block
        rep = find_splitted_factor("000000101", 3)
        assert is_n_splitted(rep.factor, 3)

    def test_splitted_to_pattern_example(self):
        p, occ = splitted_to_pattern("011010")
        assert str(p) == "ABBABA"
        assert occ.images == {"A": "0", "B": "1"}
        assert occ.substitute(p) == "011010"
        assert is_doubled(p)

    def test_splitted_to_pattern_requires_2_splitted(self):
        with pytest.raises(ValueError):
            splitted_to_pattern("0100")  # second block misses 1

    def test_random_valid_inputs(self):
        rng = random.Random(2024)
        for _ in range(250):
            k, n = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
            length = n**k
            letters = rng.sample(range(length), k)
            cells = [rng.randrange(k) for _ in range(length)]
            for letter, at in enumerate(letters):
                cells[at] = letter
            w = "".join("012"[c] for c in cells)
            rep = find_splitted_factor(w, n)
            assert is_n_splitted(rep.factor, n)
            assert w[rep.offset : rep.offset + len(rep.factor)] == rep.factor
            if n == 2:
                p, occ = splitted_to_pattern(rep.factor)
                assert is_doubled(p)
                assert occ.substitute(p) == rep.factor


def test_occurrence_dataclass_is_frozen():
    occ = Occurrence(start=0, images={"A": "0"})
    with pytest.raises(AttributeError):
        occ.start = 1
