import hashlib
from fractions import Fraction

import pytest

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
from avoidance.patterns import Pattern, find_occurrence, is_doubled
from avoidance.spectral import avoidability_exponent
from avoidance.words import Word, count_free_words

import oracles

CORPUS_SHA256 = "5e8d0c93b32554a70e653aacdf4911e3b371ddf1e5ff8c328f6162a059bb68e1"
UNIFORM_LENGTHS = [17, 33, 28, 21, 22, 26, 33, 15, 18, 22]


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

    def test_golden_hash(self):
        blob = "\n".join(
            str(e.pattern) + ":" + ",".join(e.morphism.images) for e in corpus()
        ).encode()
        assert hashlib.sha256(blob).hexdigest() == CORPUS_SHA256

    def test_first_image_spot_check(self):
        assert corpus()[0].morphism.images[0] == "00000111101010110"

    def test_entries_are_well_formed(self):
        for e in corpus():
            assert is_doubled(e.pattern) and e.pattern.is_canonical
            assert e.morphism.domain_size == 5
            assert e.morphism_id == str(e.pattern).lower()
            assert all(set(img) <= {"0", "1"} for img in e.morphism.images)

    def test_ae_values_match_spectral_module(self):
        for e in corpus():
            assert abs(avoidability_exponent(e.pattern).ae - e.ae) < 1e-9


class TestApplyMorphism:
    def test_concatenation(self):
        m = Morphism(images=("01", "10"))
        assert apply_morphism(m, "") == ""
        assert apply_morphism(m, "0") == "01"
        assert apply_morphism(m, "01") == "0110"
        assert apply_morphism(m, Word("10", alphabet_size=2)) == "1001"

    def test_length_is_uniform_multiple(self):
        m = corpus()[0].morphism
        assert len(apply_morphism(m, "01234")) == 5 * m.uniform_len

    def test_rejects_letters_outside_domain(self):
        m = Morphism(images=("01", "10"))
        with pytest.raises(ValueError):
            apply_morphism(m, "02")


class TestVerifyEntry:
    def test_first_entry_passes_at_reduced_depth(self):
        e = corpus()[0]
        rep = verify_entry(e, max_preimage_len=3)
        assert rep.passed
        assert rep.counterexample is None
        assert rep.image_cap == 2 * e.morphism.uniform_len
        # one report per (5/4+)-free preimage of length 1..3
        assert rep.preimages_checked == sum(count_free_words(5, Fraction(5, 4), 3)[1:])

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

    @pytest.mark.parametrize("letter, first_use",
                             [(0, "0"), (1, "01"), (2, "012"), (3, "0123"),
                              (4, "012304")])
    def test_parallel_matches_serial_on_counterexamples(self, letter, first_use):
        # a unary image is caught at the first preimage using its letter,
        # which for letters past 0 is not the first preimage of the stream
        e = corpus()[0]
        images = list(e.morphism.images)
        images[letter] = "0" * e.morphism.uniform_len
        bad = CorpusEntry(e.pattern, Morphism(tuple(images)), e.ae)
        a = verify_entry(bad)
        assert a == verify_entry(bad, workers=2)
        assert not a.passed
        preimage, _ = a.counterexample
        assert preimage == first_use
        assert a.preimages_checked == len(first_use)

    def test_pool_cancels_the_windows_after_the_first_hit(
            self, monkeypatch, recording_pools):
        from avoidance import patterns

        monkeypatch.setattr(patterns.os, "cpu_count", lambda: 2)
        e = corpus()[0]
        images = list(e.morphism.images)
        images[2] = "0" * e.morphism.uniform_len
        bad = CorpusEntry(e.pattern, Morphism(tuple(images)), e.ae)
        serial = verify_entry(bad)
        assert recording_pools == []
        assert verify_entry(bad, workers=2) == serial
        (pool,) = recording_pools
        windows = 85  # free words of length <= 3: the windows at cap 2q
        assert len(pool.cancelled) == windows - serial.windows_searched > 0

    def test_all_entries_pass_at_three_times_the_uniform_length(self):
        # the 2q gate of the acceptance suite, at a larger cap
        for e in corpus():
            cap = 3 * e.morphism.uniform_len
            rep = verify_entry(e, image_cap=cap)
            assert rep.passed, (str(e.pattern), rep.counterexample)
            assert (rep.preimages_checked, rep.effective_cap) == (805, cap)

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

    def test_parallel_matches_serial(self):
        assert count_avoiding("AA", 3, 8, workers=2) == count_avoiding("AA", 3, 8)

    @pytest.mark.parametrize("m, up_to, workers",
                             [(3, -1, 1), (0, 4, 1), (27, 4, 1), (3, 4, 0),
                              (3, 0, -3)])
    def test_rejects_bad_input(self, m, up_to, workers):
        with pytest.raises(ValueError):
            count_avoiding("AA", m, up_to, workers=workers)

    def test_pattern_longer_than_any_extension_never_blocks(self):
        got = count_avoiding("AAAA", 2, 6)
        assert got[:4] == [1, 2, 4, 8]
        # first exclusions at length 4: 0000 and 1111
        assert got[4] == 14


class TestCrossCheck:
    def test_conclusive_pattern_passes(self):
        assert cross_check("AAABBCCDD", 3, 9)

    def test_inconclusive_pattern_is_an_error(self):
        with pytest.raises(ValueError):
            cross_check("ABACBDCD", 3, 5)

    def test_alphabet_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            cross_check("AAABBCCDD", 4, 5)
