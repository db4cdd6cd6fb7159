import gc
import hashlib
import itertools
import random
import string
import weakref

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


def test_canonicalize_first_appearance_order():
    assert str(canonicalize("BAB")) == "ABA"
    assert str(canonicalize("CACB")) == "ABAC"
    p = canonicalize("ZYZ")
    assert str(canonicalize(p)) == str(p)  # idempotent


def test_canonicalize_rejects_more_symbols_than_variables():
    assert canonicalize(string.ascii_lowercase) == string.ascii_uppercase
    with pytest.raises(ValueError, match="26 variables"):
        canonicalize(string.ascii_lowercase + "0")


def test_reverse_example():
    assert str(reverse(Pattern("ABCADCDB"))) == "ABCBDCAD"


@given(st.text(alphabet="ABC", min_size=1, max_size=8))
def test_reverse_is_involution_on_canonical_forms(s):
    p = canonicalize(s)
    assert str(reverse(reverse(p))) == str(p)
    assert canonicalize(reverse(p)) == reverse(p)


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
        assert find_occurrence(p, "012012", max_image_total=0) is None

    @pytest.mark.parametrize("cap", [-1, -7])
    def test_negative_cap_is_rejected(self, cap):
        # no occurrence fits under a negative cap, but that is no answer:
        # the cap itself is wrong
        with pytest.raises(ValueError, match="cap"):
            find_occurrence(Pattern("AB"), "0123", max_image_total=cap)

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
    # doubled and non-doubled patterns; min_end = len(w) anchors at one
    # end, min_end > len(w) admits nothing
    p = canonicalize(raw)
    cap = data.draw(st.one_of(st.none(), st.integers(0, len(w) + 1)))
    min_end = data.draw(st.one_of(st.just(len(w)),
                                  st.integers(0, len(w) + 1)))
    got = find_occurrence(p, w, cap, min_end)
    want = oracles.brute_first_occurrence(str(p), w, cap, min_end)
    assert (None if got is None else (got.start, got.images)) == want


@settings(max_examples=200)
@given(st.integers(2, 3).flatmap(
           lambda v: st.permutations("AABBCC"[:2 * v]).map("".join)),
       st.text(alphabet="01", min_size=2, max_size=12), st.data())
def test_mid_window_anchor_finds_the_first_occurrence(raw, w, data):
    # 0 < min_end < len(w): the end anchor tries every end from len(w) down
    # to min_end before the forward search reports the first occurrence
    p = canonicalize(raw)
    min_end = data.draw(st.integers(1, len(w) - 1))
    cap = data.draw(st.one_of(st.none(), st.integers(0, len(w))))
    got = find_occurrence(p, w, cap, min_end)
    want = oracles.brute_first_occurrence(p, w, cap, min_end)
    assert (None if got is None else (got.start, got.images)) == want


def jumps(p):
    # some variable met for the first time is followed by one already bound
    return any(p[t] not in p[:t] and p[t + 1] in p[:t]
               for t in range(1, len(p) - 1))


@settings(max_examples=300)
@given(st.text(alphabet="ABC", min_size=3, max_size=6).map(canonicalize)
       .filter(jumps),
       st.text(alphabet="012", min_size=0, max_size=9), st.data())
def test_jump_to_the_next_bound_image_finds_the_first_occurrence(p, w, data):
    # the new variable's image may end only where the bound image after it
    # starts; a cap equal to the first occurrence's length, or min_end =
    # len(w), makes occurrences that fill the limit exactly
    first = oracles.brute_first_occurrence(p, w)
    filled = sum(len(first[1][v]) for v in p) if first else 0
    cap = data.draw(st.one_of(st.none(), st.just(filled),
                              st.integers(0, len(w))))
    min_end = data.draw(st.one_of(st.just(len(w)), st.integers(0, len(w))))
    got = find_occurrence(p, w, cap, min_end)
    want = oracles.brute_first_occurrence(p, w, cap, min_end)
    assert (None if got is None else (got.start, got.images)) == want


# SHA-256 of the first occurrences of the 30,000 searches below, recorded
# with the per-call matcher that the compiled one replaced: any change to a
# first occurrence, its start or an image, changes it
FIRST_OCCURRENCES_SHA256 = (
    "b019fa772de32b16f357a5a870d2adb6cf88588a24cd76db115378370bd87548")


def test_first_occurrences_match_the_recorded_digest():
    # patterns of up to 4 variables and 7 letters, hosts over 01 or 012 of
    # up to 30 letters, no cap or a random one, min_end 0, |w| or random
    rng = random.Random(26)
    digest = hashlib.sha256()
    for _ in range(30_000):
        p = canonicalize("".join(rng.choice("ABCD")
                                 for _ in range(rng.randint(1, 7))))
        w = "".join(rng.choice(rng.choice(("01", "012")))
                    for _ in range(rng.randint(0, 30)))
        cap = rng.choice((None, rng.randint(0, len(w) + 1)))
        min_end = rng.choice((0, len(w), rng.randint(0, len(w) + 1)))
        occ = find_occurrence(p, w, cap, min_end)
        digest.update(repr(None if occ is None else
                           (occ.start, sorted(occ.images.items()))).encode())
    assert digest.hexdigest() == FIRST_OCCURRENCES_SHA256


def first(p, w, cap=None, min_end=0):
    occ = find_occurrence(p, w, cap, min_end)
    return None if occ is None else (occ.start, occ.images)


def binary_words(max_len):
    return ["".join(t) for n in range(max_len + 1)
            for t in itertools.product("01", repeat=n)]


class TestCompiledMatcher:
    # one matcher per pattern, kept between searches and rebound to each
    # host: nothing of one search may leak into the next

    @pytest.mark.parametrize("p", ["ABA", "ABBA", "AABAA", "ABCBA"])
    def test_palindrome_shares_its_matcher_with_the_mirror_search(self, p):
        # the end anchor matches p[::-1] == p in w[::-1], then the same
        # matcher searches w forward
        assert patterns._compile(p[::-1]) is patterns._compile(p)
        for w in binary_words(7):
            for min_end in range(1, len(w) + 1):
                assert first(p, w, None, min_end) == \
                    oracles.brute_first_occurrence(p, w, None, min_end)

    @pytest.mark.parametrize("p", ["ABAB", "AABB", "ABACBC", "ABCA"])
    def test_search_after_a_hit_on_another_host(self, p):
        # each search follows a hit in another host, with other images
        hosts = [w for w in binary_words(8) + ["012012", "0120120"]
                 if oracles.brute_first_occurrence(p, w) is not None]
        rng = random.Random(p)
        for w in binary_words(7):
            other = rng.choice(hosts)
            assert first(p, other) == oracles.brute_first_occurrence(p, other)
            min_end = rng.randint(0, len(w))
            assert first(p, w, None, min_end) == \
                oracles.brute_first_occurrence(p, w, None, min_end)

    def test_images_left_by_earlier_searches_are_never_read(self):
        # a search reads only the images it bound on its own path, so the
        # list is never cleared: filling it with junk changes no result
        p = "ABACBC"
        images = patterns._compile(p)[2]
        for w in binary_words(7):
            images[:] = ["01" * 9] * len(images)
            assert first(p, w, None, len(w)) == \
                oracles.brute_first_occurrence(p, w, None, len(w))

    def test_an_evicted_matcher_is_freed_at_once(self):
        # no reference cycle keeps a matcher alive after the cache drops it
        match = weakref.ref(patterns._compile("ABACBC")[1])
        enabled = gc.isenabled()
        gc.disable()
        try:
            patterns._compile.cache_clear()
            assert match() is None
        finally:
            if enabled:
                gc.enable()

    def test_one_pattern_in_many_hosts_in_a_row(self):
        # ABACBC: C jumps to B's image, then C is a bound run; hosts of
        # every length, each shorter or longer than the one before
        p = "ABACBC"
        hosts = binary_words(8) + ["2" + w[::-1] for w in binary_words(6)]
        for w in random.Random(0).sample(hosts, len(hosts)):
            assert first(p, w) == oracles.brute_first_occurrence(p, w)
            cap = max(len(w) - 1, 0)
            assert first(p, w, cap, len(w)) == \
                oracles.brute_first_occurrence(p, w, cap, len(w))


def test_doubled_patterns_upto_ordering_and_membership():
    ps = doubled_patterns_upto(4, 8)
    assert [str(p) for p in ps[:4]] == ["AA", "AAA", "AAAA", "AABB"]
    assert all(is_doubled(p) and canonicalize(p) == p for p in ps)
    lengths = [len(p) for p in ps]
    assert lengths == sorted(lengths)


def test_generated_patterns_are_plain_strings():
    # Pattern checks outside text; what the library generates stays str
    generated = [*doubled_patterns_upto(5, 10), *enumerate_remaining(4)]
    assert {type(p) for p in generated} == {str}


def test_doubled_candidate_counts():
    from avoidance.patterns import _doubled_walk

    assert sum(len(p) == 8 for p in _doubled_walk(4, 8, True)) == 105
    assert sum(len(p) == 10 for p in _doubled_walk(5, 10, True)) == 945


@pytest.mark.parametrize("max_vars, max_len",
                         [(1, 6), (2, 7), (3, 7), (4, 8), (5, 7)])
def test_doubled_patterns_match_brute_force(max_vars, max_len):
    assert list(doubled_patterns_upto(max_vars, max_len)) == \
        oracles.brute_doubled_patterns(max_vars, max_len)


@pytest.mark.parametrize("v", [1, 2, 3, 4])
def test_exactly_twice_walk_matches_brute_force(v):
    from avoidance.patterns import _doubled_walk

    walk = _doubled_walk(v, 2 * v, True)
    every = oracles.brute_doubled_patterns(v, 2 * v)
    assert walk == sorted(p for p in every
                          if all(p.count(c) == 2 for c in p))
    assert [p for p in walk if len(p) == 2 * v] == \
        [p for p in every if len(p) == 2 * v and len(set(p)) == v]


@pytest.mark.parametrize("v, k", [(4, 4), (5, 3)])
def test_skipped_prefix_shapes_are_exactly_the_series_certified(v, k):
    # enumerate_remaining drops a candidate when it or its reversal starts
    # with k distinct variables, trusting the series module to certify
    # those; check that this is exactly where the series method concludes
    from avoidance.patterns import _doubled_walk
    from avoidance.series import certify_threeavoidable

    head = string.ascii_uppercase[:k]
    skipped = 0
    for p in _doubled_walk(v, 2 * v, True):
        if len(p) < 2 * v:
            continue
        r = reverse(p)
        skip = p.startswith(head) or r.startswith(head)
        assert skip == (certify_threeavoidable(p).conclusive
                        or certify_threeavoidable(r).conclusive), p
        skipped += skip
    assert skipped == {4: 24, 5: 810}[v]


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
        assert len(set(q)) <= vmax
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
    for v in (4, 5):
        serial = enumerate_remaining(v, workers=1)
        for workers in (2, 3):
            assert enumerate_remaining(v, workers=workers) == serial, workers


def enumeration_candidates(v):
    # the patterns enumerate_remaining searches: length 2v, every variable
    # exactly twice, neither they nor their reversal led by the series head
    from avoidance.patterns import _doubled_walk

    head = string.ascii_uppercase[:4 if v == 4 else 3]
    return [p for p in _doubled_walk(v, 2 * v, True) if len(p) == 2 * v
            and not p.startswith(head) and not reverse(p).startswith(head)]


@pytest.mark.parametrize("v, want, candidates", [(4, SPORADIC_4, 81),
                                                  (5, SPORADIC_5, 135)])
def test_enumeration_submits_one_chunk_per_worker(
        monkeypatch, recording_pools, v, want, candidates):
    monkeypatch.setattr(patterns.os, "cpu_count", lambda: 2)
    assert enumerate_remaining(v, workers=2) == want
    (pool,) = recording_pools
    assert pool.max_workers == 2
    assert len(pool.jobs) == 2 and all(pool.jobs)
    dealt = [p for job in pool.jobs for p in job]
    assert len(set(dealt)) == len(dealt) == candidates
    assert set(dealt) == set(enumeration_candidates(v))
    assert all(len(p) == 2 * v and len(set(p)) == v for p in dealt)

    recording_pools.clear()
    monkeypatch.setattr(patterns.os, "cpu_count", lambda: 4)
    assert enumerate_remaining(v, workers=1000) == want
    (pool,) = recording_pools
    assert pool.max_workers == len(pool.jobs) == 4
    assert all(pool.jobs) and len(pool.jobs) <= candidates
    assert sorted(p for job in pool.jobs for p in job) == sorted(dealt)


@pytest.mark.parametrize("v, searches", [(4, 9_360), (5, 84_679)])
@pytest.mark.parametrize("workers", [1, 3])
def test_enumeration_searches_what_the_candidate_loop_searches(
        monkeypatch, recording_pools, v, searches, workers):
    # the pattern-major loop makes each candidate's searches up to its
    # first hit, no more and no fewer, in any chunking
    monkeypatch.setattr(patterns.os, "cpu_count", lambda: 4)
    seen = []

    def recording(q, w, *args):
        seen.append((q, w))
        return find_occurrence(q, w, *args)

    monkeypatch.setattr(patterns, "find_occurrence", recording)
    enumerate_remaining(v, workers)
    want = oracles.per_candidate_searches(
        enumeration_candidates(v), doubled_patterns_upto, find_occurrence)
    assert len(seen) == len(want) == searches
    assert sorted(seen) == sorted(want)


@pytest.mark.parametrize("workers, cpus, n_items, size", [
    (1000, 4, 10, 4),
    (3, 4, 10, 3),
    (1000, 4, 2, 2),
    (2, None, 10, None),  # unknown cpu count counts as one: no pool
    (8, 4, 1, None),
    (1, 4, 10, None),
    (3, 4, 0, None),  # no items: fn still runs once, on the empty list
])
def test_map_workers_pool_size(monkeypatch, recording_pools, workers, cpus,
                               n_items, size):
    monkeypatch.setattr(patterns.os, "cpu_count", lambda: cpus)
    items = list(range(n_items))
    chunks = []

    def record(chunk):
        chunks.append(chunk)
        return len(chunks)

    results = map_workers(record, iter(items), workers)
    assert results == list(range(1, len(chunks) + 1))
    if size is None:
        assert recording_pools == []
        assert chunks == [items]
    else:
        (pool,) = recording_pools
        assert pool.max_workers == size
        assert pool.jobs == chunks == [items[i::size] for i in range(size)]
        assert all(chunks)


@pytest.mark.parametrize("items", [[1, 2], []])
@pytest.mark.parametrize("workers", [0, -3])
def test_map_workers_rejects_non_positive_workers(workers, items):
    with pytest.raises(ValueError):
        map_workers(len, items, workers)


@pytest.mark.parametrize("v, candidates", [(4, 105), (5, 135)])
def test_closed_form_containment_agrees_with_the_search(v, candidates):
    # every 4-variable pattern with each variable exactly twice, and the
    # 5-variable ones that enumerate_remaining searches
    from avoidance.patterns import _doubled_walk

    searched = enumeration_candidates(5) if v == 5 else \
        [p for p in _doubled_walk(4, 8, True) if len(p) == 8]
    assert len(searched) == candidates
    for p in searched:
        assert oracles.contains_fewer_variable_doubled(p) == \
            (pattern_contains_doubled(p, v - 1) is not None), p


def test_enumerate_remaining_rejects_other_sizes():
    with pytest.raises(ValueError):
        enumerate_remaining(3)


class TestSplitted:
    def test_is_n_splitted_examples(self):
        assert is_n_splitted("0110", 2)
        assert is_n_splitted("012012", 2)
        assert not is_n_splitted("012012", 3)  # block "01" misses 2
        assert not is_n_splitted("011", 2)  # length not divisible

    @pytest.mark.parametrize("n", [0, -1])
    def test_is_n_splitted_rejects_non_positive_n(self, n):
        with pytest.raises(ValueError, match="n must be positive"):
            is_n_splitted("01", n)

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

    @pytest.mark.parametrize("w, n, factor, offset, depth", [
        ("00120100", 2, "00", 6, 2),  # 0100 lacks 2, then 00 lacks 1
        ("001001000", 3, "000", 6, 1),  # only the last block lacks 1
    ])
    def test_descent_takes_the_first_block_missing_a_letter(
            self, w, n, factor, offset, depth):
        rep = find_splitted_factor(w, n)
        assert (rep.factor, rep.offset, rep.depth) == (factor, offset, depth)

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
