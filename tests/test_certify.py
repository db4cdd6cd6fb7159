import hashlib
from fractions import Fraction
from importlib import resources

import pytest

from avoidance import certify, patterns
from avoidance.certify import (
    CorpusEntry,
    Morphism,
    VerificationReport,
    apply_morphism,
    corpus,
    count_avoiding,
    cross_check,
    load_morphism,
    parse_morphism,
    verify_entry,
)
from avoidance.patterns import Pattern, canonicalize, find_occurrence, is_doubled
from avoidance.spectral import avoidability_exponent
from avoidance.words import count_free_words

import oracles

CORPUS_SHA256 = "5e8d0c93b32554a70e653aacdf4911e3b371ddf1e5ff8c328f6162a059bb68e1"
UNIFORM_LENGTHS = [17, 33, 28, 21, 22, 26, 33, 15, 18, 22]
# the counterexample at cap 3q when the image of letter d = 0..4 is unary:
# at preimage FIRST_USE[d], at these starts, every variable mapped to "0"
# except A in ABACDBDECE
FIRST_USE = ("0", "01", "012", "0123", "012304")
UNARY_STARTS_AT_THREE_Q = {
    "ABACBDCD": (0, 16, 33, 51, 84),
    "ABACDBDC": (0, 33, 66, 99, 165),
    "ABACDCBD": (0, 28, 56, 84, 140),
    "ABCADBDC": (0, 20, 42, 63, 104),
    "ABCADCBD": (0, 22, 44, 66, 110),
    "ABCADCDB": (0, 26, 52, 78, 130),
    "ABCBDADC": (0, 33, 66, 99, 165),
    "ABACBDCEDE": (0, 11, 30, 42, 71),
    "ABACDBCEDE": (0, 18, 36, 54, 90),
    "ABACDBDECE": (0, 17, 41, 63, 105),
}
UNARY_A_AT_THREE_Q = {"ABACDBDECE": ("0", "11", "1", "1", "11")}
# (workers, cpu count): a real pool of 2 where the machine has 2 CPUs, and
# the in-process fake pool of conftest.recording_pools on 4 CPUs, so that
# the chunk results are combined on any machine
PARALLEL = [(2, None), (3, 4)]


def fake_cpus(request, monkeypatch, cpus):
    if cpus is not None:
        request.getfixturevalue("recording_pools")
        monkeypatch.setattr(patterns.os, "cpu_count", lambda: cpus)


def unary_image(e, letter):
    # the entry with the image of one letter made unary
    images = list(e.morphism.images)
    images[letter] = "0" * e.morphism.uniform_len
    return CorpusEntry(e.pattern, Morphism(tuple(images)), e.ae)


class TestMorphism:
    def test_uniform_binary_required(self):
        with pytest.raises(ValueError):
            Morphism(images=("01", "0"))  # not uniform
        with pytest.raises(ValueError):
            Morphism(images=("02", "01"))  # not binary
        with pytest.raises(ValueError):
            Morphism(images=())

    def test_properties(self):
        m = Morphism(images=("01", "10", "11"))
        assert m.domain_size == 3
        assert m.uniform_len == 2


class TestParseMorphism:
    def test_round_trip_with_comments(self):
        text = "# comment line\n0 -> 011\n1 -> 100\n"
        m = parse_morphism(text)
        assert m.images == ("011", "100")

    def test_rejects_missing_letter(self):
        with pytest.raises(ValueError):
            parse_morphism("0 -> 01\n2 -> 10\n")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_morphism("0 => 01\n")

    def test_rejects_duplicate_image(self):
        with pytest.raises(ValueError, match="line 2: duplicate image for 0"):
            parse_morphism("0 -> 01\n0 -> 10")

    def test_load_from_file(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("0 -> 0110\n1 -> 1001\n")
        assert load_morphism(f).images == ("0110", "1001")


class TestCorpus:
    def test_ten_entries_in_order(self):
        entries = corpus()
        assert [str(e.pattern) for e in entries] == [
            "ABACBDCD",
            "ABACDBDC",
            "ABACDCBD",
            "ABCADBDC",
            "ABCADCBD",
            "ABCADCDB",
            "ABCBDADC",
            "ABACBDCEDE",
            "ABACDBCEDE",
            "ABACDBDECE",
        ]
        assert [e.morphism.uniform_len for e in entries] == UNIFORM_LENGTHS

    def test_one_entry_per_packaged_file(self):
        root = resources.files("avoidance").joinpath("data/morphisms")
        names = sorted(f.name for f in root.iterdir())
        assert sorted(f"{e.morphism_id}.txt" for e in corpus()) == names
        ids = [e.morphism_id for e in corpus()]
        assert ids == sorted(ids, key=lambda i: (len(i), i))

    def test_golden_hash(self):
        blob = "\n".join(
            str(e.pattern) + ":" + ",".join(e.morphism.images) for e in corpus()
        ).encode()
        assert hashlib.sha256(blob).hexdigest() == CORPUS_SHA256

    def test_first_image_spot_check(self):
        assert corpus()[0].morphism.images[0] == "00000111101010110"

    def test_entries_are_well_formed(self):
        for e in corpus():
            assert is_doubled(e.pattern) and canonicalize(e.pattern) == e.pattern
            assert e.morphism.domain_size == 5
            assert e.morphism_id == str(e.pattern).lower()
            assert all(set(img) <= {"0", "1"} for img in e.morphism.images)

    def test_ae_values_match_spectral_module(self):
        # corpus() computes each AE; the published values to 9 decimals
        published = [1.381966011, 1.333333333, 1.340090632, 1.292893219,
                     1.295597743, 1.327621756, 1.302775638, 1.366025404,
                     1.302775638, 1.320416579]
        for e, want in zip(corpus(), published, strict=True):
            assert e.ae == avoidability_exponent(e.pattern).ae
            assert abs(e.ae - want) < 5e-10, e.pattern


class TestApplyMorphism:
    def test_concatenation(self):
        m = Morphism(images=("01", "10"))
        assert apply_morphism(m, "") == ""
        assert apply_morphism(m, "0") == "01"
        assert apply_morphism(m, "01") == "0110"
        assert apply_morphism(m, "10") == "1001"

    def test_length_is_uniform_multiple(self):
        m = corpus()[0].morphism
        assert len(apply_morphism(m, "01234")) == 5 * m.uniform_len

    def test_rejects_letters_outside_domain(self):
        m = Morphism(images=("01", "10"))
        with pytest.raises(ValueError):
            apply_morphism(m, "02")

    def test_rejects_letters_outside_display_alphabet(self):
        m = Morphism(images=("01", "10"))
        with pytest.raises(ValueError, match="display alphabet"):
            apply_morphism(m, "0x")


class TestVerifyEntry:
    def test_first_entry_passes_at_reduced_depth(self):
        e = corpus()[0]
        rep = verify_entry(e, max_preimage_len=3)
        assert rep.passed
        assert rep.counterexample is None
        assert rep.image_cap == 2 * e.morphism.uniform_len
        # one report per (5/4+)-free preimage of length 1..3
        assert rep.preimages_checked == sum(count_free_words(5, Fraction(5, 4), 3)[1:])

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_preimages_range_over_the_morphism_domain(self, k):
        # a cap below |AA| finds nothing, so every free preimage is counted
        m = Morphism(tuple(format(d, "03b") for d in range(k)))
        rep = verify_entry(CorpusEntry(Pattern("AA"), m, 0.0),
                           max_preimage_len=4, image_cap=1)
        assert rep.passed
        assert rep.preimages_checked == sum(count_free_words(k, Fraction(5, 4), 4)[1:])

    def test_cap_and_depth_are_recorded(self):
        e = corpus()[0]
        rep = verify_entry(e, max_preimage_len=2, image_cap=20)
        assert isinstance(rep, VerificationReport)
        assert (rep.max_preimage_len, rep.image_cap) == (2, 20)
        assert rep.passed
        assert rep.effective_cap == 20
        # no window is longer than two blocks of q = 17 letters
        wide = verify_entry(e, max_preimage_len=2, image_cap=100000)
        assert (wide.image_cap, wide.effective_cap) == (100000, 34)

    def test_parallel_matches_serial(self):
        e = corpus()[0]
        a = verify_entry(e, max_preimage_len=3)
        assert a == verify_entry(e, max_preimage_len=3, workers=2)

    @pytest.mark.parametrize("workers, cpus", PARALLEL)
    @pytest.mark.parametrize("letter, first_use", enumerate(FIRST_USE))
    def test_parallel_matches_serial_on_counterexamples(
            self, request, monkeypatch, letter, first_use, workers, cpus):
        # a unary image is caught at the first preimage using its letter,
        # which for letters past 0 is not the first preimage of the stream
        bad = unary_image(corpus()[0], letter)
        a = verify_entry(bad)
        fake_cpus(request, monkeypatch, cpus)
        assert a == verify_entry(bad, workers=workers)
        assert not a.passed
        preimage, _ = a.counterexample
        assert preimage == first_use
        assert a.preimages_checked == len(first_use)

    # the windows at cap 2q are the 85 free words of length <= 3; with the
    # image of letter 2 unary the first hits are at windows 2, 3, 9 and 16
    @pytest.mark.parametrize("cpus, searched", [
        (2, [0, 2, 1, 3]),
        (3, [0, 3, 1, 4, 7, 10, 13, 16, 2]),  # chunk 0's hit is not the least
    ])
    def test_pool_stops_each_chunk_at_its_first_hit(
            self, monkeypatch, recording_pools, cpus, searched):
        monkeypatch.setattr(patterns.os, "cpu_count", lambda: cpus)
        bad = unary_image(corpus()[0], 2)
        serial = verify_entry(bad)
        assert serial.windows_searched == 3
        keys = []
        real = certify.apply_morphism

        def recording(m, key):
            keys.append(key)
            return real(m, key)

        monkeypatch.setattr(certify, "apply_morphism", recording)
        assert verify_entry(bad, workers=cpus) == serial
        (pool,) = recording_pools
        index = {key: i for chunk in pool.jobs for i, key in chunk}
        assert sorted(index.values()) == list(range(85))
        # each chunk, items[i::cpus], is searched up to its first hit
        assert [index[key] for key in keys] == searched

    def test_all_entries_pass_at_three_times_the_uniform_length(self):
        # the 2q gate of the acceptance suite, at a larger cap
        for e in corpus():
            cap = 3 * e.morphism.uniform_len
            rep = verify_entry(e, image_cap=cap)
            assert rep.passed, (str(e.pattern), rep.counterexample)
            assert (rep.preimages_checked, rep.effective_cap) == (805, cap)

    def test_one_search_per_window(self, monkeypatch):
        # at cap q a window is 2 letters: 5 + 20 free suffixes per entry;
        # at cap 2q it is 3 letters: 5 + 20 + 60
        calls = 0
        real = certify.find_occurrence

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(certify, "find_occurrence", counting)
        for e in corpus():
            assert verify_entry(e, image_cap=e.morphism.uniform_len).passed
        assert calls == 250
        calls = 0
        assert verify_entry(corpus()[0], image_cap=34).passed
        assert calls == 85

    @pytest.mark.parametrize("entry, starts", UNARY_STARTS_AT_THREE_Q.items())
    def test_unary_images_are_caught_at_three_times_the_uniform_length(
            self, entry, starts):
        # the window is 4 blocks and only occurrences ending in the last
        # one count, so the search is anchored at the end mid-window
        (e,) = [e for e in corpus() if e.pattern == entry]
        q = e.morphism.uniform_len
        found = zip(FIRST_USE, starts, UNARY_A_AT_THREE_Q.get(entry, "00000"))
        for letter, (first_use, start, a_image) in enumerate(found):
            images = list(e.morphism.images)
            images[letter] = "0" * q
            bad = CorpusEntry(e.pattern, Morphism(tuple(images)), e.ae)
            rep = verify_entry(bad, image_cap=3 * q)
            preimage, occ = rep.counterexample
            assert preimage == first_use
            assert occ.start == start
            assert occ.images == {v: a_image if v == "A" else "0"
                                  for v in str(e.pattern)}

    @pytest.mark.parametrize("entry, survivors", [
        ("ABACBDCD", [(0, 13), (2, 5), (3, 13)]),
        ("ABACBDCEDE", [(1, 14), (3, 12)]),
        ("ABCADCBD", [(3, 15), (4, 3)]),
        ("ABACDBDC", []),
        ("ABACDCBD", []),
        ("ABCADBDC", []),
        ("ABCADCDB", []),
        ("ABCBDADC", []),
        ("ABACDBCEDE", []),
        ("ABACDBDECE", []),
    ])
    def test_single_bit_mutants_passing_the_default_bound(self, entry,
                                                           survivors):
        # every other flip of one image bit is refuted at preimages up to
        # length 6 and cap 2q; a weaker search lets more of them pass
        (e,) = [e for e in corpus() if e.pattern == entry]
        images = e.morphism.images
        passed = []
        for d, img in enumerate(images):
            for i in range(len(img)):
                flipped = img[:i] + "10"[int(img[i])] + img[i + 1:]
                m = Morphism(images[:d] + (flipped,) + images[d + 1:])
                if verify_entry(CorpusEntry(e.pattern, m, e.ae)).passed:
                    passed.append((d, i))
        assert passed == survivors

    def test_windows_searched_stops_growing_at_window_length(self):
        # at the default cap 2q the window is 3 letters, so preimages longer
        # than 3 bring no new window: every free word of length <= 3 is one
        e = corpus()[0]
        reports = [verify_entry(e, max_preimage_len=n) for n in (3, 6, 9)]
        assert [r.windows_searched for r in reports] == [85, 85, 85]
        assert [r.preimages_checked for r in reports] == [85, 805, 2725]

    def test_windows_searched_stops_at_the_first_hit(self):
        e = corpus()[0]
        rep = verify_entry(CorpusEntry(Pattern("AA"), e.morphism, 2.0),
                           max_preimage_len=1)
        assert not rep.passed
        assert rep.windows_searched == rep.preimages_checked

    def test_a_palindromic_pattern_entry_compiles_one_matcher(self):
        # AA is its own mirror: the end anchor and the forward search share
        # one matcher, whether the entry holds a Pattern or a plain str
        patterns._compile.cache_clear()
        rep = verify_entry(CorpusEntry(Pattern("AA"), corpus()[0].morphism, 0.0))
        assert not rep.passed
        assert patterns._compile.cache_info().misses == 1

    def test_constant_morphism_is_caught(self):
        e = corpus()[0]
        bad = Morphism(images=("0" * e.morphism.uniform_len,) * 5)
        rep = verify_entry(
            CorpusEntry(pattern=e.pattern, morphism=bad, ae=e.ae),
            max_preimage_len=2,
        )
        assert not rep.passed
        preimage, occ = rep.counterexample
        image = apply_morphism(bad, preimage)
        sub = occ.substitute(e.pattern)
        assert image[occ.start : occ.start + len(sub)] == sub
        assert sum(len(occ.images[v]) for v in str(e.pattern)) <= rep.image_cap

    def test_square_pattern_is_caught_against_real_morphism(self):
        e = corpus()[0]
        rep = verify_entry(
            CorpusEntry(pattern=Pattern("AA"), morphism=e.morphism, ae=2.0),
            max_preimage_len=1,
        )
        assert not rep.passed
        preimage, occ = rep.counterexample
        image = apply_morphism(e.morphism, preimage)
        sub = occ.substitute(Pattern("AA"))
        assert image[occ.start : occ.start + len(sub)] == sub


class TestCountAvoiding:
    def test_square_free_ternary_counts(self):
        got = count_avoiding("AA", 3, 9)
        assert got == [1, 3, 6, 12, 18, 30, 42, 60, 78, 108]

    def test_agrees_with_full_search_oracle(self):
        for p, m in [("AA", 3), ("ABAB", 2), ("AABB", 2), ("ABA", 2)]:
            got = count_avoiding(p, m, 10)
            want = oracles.full_search_count(find_occurrence, Pattern(p), m, 10)
            assert got == want, (p, m)

    def test_agrees_with_exhaustive_filter(self):
        import itertools

        for p, m, n in [("AA", 3, 6), ("ABAB", 2, 7)]:
            got = count_avoiding(p, m, n)
            for length in range(n + 1):
                brute = sum(
                    1
                    for t in itertools.product("012"[:m], repeat=length)
                    if not oracles.brute_occurrence(p, "".join(t))
                )
                assert got[length] == brute

    def test_single_variable_pattern(self):
        # every nonempty word is an occurrence of A
        assert count_avoiding("A", 3, 4) == [1, 0, 0, 0, 0]

    def test_zero_length(self):
        assert count_avoiding("AA", 3, 0) == [1]

    @pytest.mark.parametrize("workers, cpus", PARALLEL)
    def test_parallel_matches_serial(self, request, monkeypatch, workers, cpus):
        serial = count_avoiding("AA", 3, 8)
        fake_cpus(request, monkeypatch, cpus)
        assert count_avoiding("AA", 3, 8, workers=workers) == serial

    @pytest.mark.parametrize("m, up_to, workers",
                             [(3, -1, 1), (0, 4, 1), (27, 4, 1), (3, 4, 0),
                              (3, 0, -3)])
    def test_rejects_bad_input(self, m, up_to, workers):
        with pytest.raises(ValueError):
            count_avoiding("AA", m, up_to, workers=workers)

    def test_searches_once_per_word_reaching_pattern_length(self, monkeypatch):
        # the walk searches each visited word of length >= |p| once, at its
        # last letter, and never extends a word that contains p
        calls = 0
        real = certify.find_occurrence

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(certify, "find_occurrence", counting)
        assert sum(count_avoiding("AAABBCCDD", 3, 10)) == 88_009
        assert calls == 78_489

    def test_compiles_the_pattern_and_its_mirror_once(self):
        # 78,489 searches, each running the scans of two compiled matchers
        compile_ = patterns._compile
        compile_.cache_clear()
        assert count_avoiding("AAABBCCDD", 3, 10)[10] == 58_566
        assert compile_.cache_info().misses <= 2

    def test_pattern_longer_than_any_extension_never_blocks(self):
        got = count_avoiding("AAAA", 2, 6)
        assert got[:4] == [1, 2, 4, 8]
        # first exclusions at length 4: 0000 and 1111
        assert got[4] == 14


class TestCrossCheck:
    def test_conclusive_pattern_passes(self):
        assert cross_check("AAABBCCDD", 9)

    def test_inconclusive_pattern_is_an_error(self):
        with pytest.raises(ValueError):
            cross_check("ABACBDCD", 5)
