import contextlib
import io
import json
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avoidance import cli

SPORADIC_4 = [
    "ABACBDCD",
    "ABACDBDC",
    "ABACDCBD",
    "ABCADBDC",
    "ABCADCBD",
    "ABCADCDB",
    "ABCBDADC",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestOcc:
    def test_hit(self, capsys):
        code, out, _ = run(capsys, "occ", "AA", "01100")
        assert code == 0
        assert out == "start=1 A=1\n"

    def test_miss_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "occ", "AA", "0102010")
        assert code == 0
        assert out == "none\n"

    def test_full_assignment(self, capsys):
        code, out, _ = run(capsys, "occ", "ABACBDCD", "01021323")
        assert code == 0
        assert out == "start=0 A=0 B=1 C=2 D=3\n"

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "occ", "ABAB", "012012", "--json")
        doc = json.loads(out)
        assert doc["occurrence"] == {"start": 0, "images": {"A": "0", "B": "12"}}
        _, out, _ = run(capsys, "occ", "AA", "0102010", "--json")
        assert json.loads(out)["occurrence"] is None

    def test_long_pattern_is_answered_without_recursion_error(self, capsys):
        # 1200 pattern letters: the matcher recurses per variable, not per letter
        pattern = "AB" * 600
        code, out, err = run(capsys, "occ", pattern, "01" * 700)
        assert (code, out) == (0, "start=0 A=0 B=1\n")
        code, out, err = run(capsys, "occ", pattern, "01" * 350 + "1" + "01" * 350)
        assert (code, out, err) == (0, "none\n", "")

    def test_malformed_pattern(self, capsys):
        code, _, err = run(capsys, "occ", "A1", "01")
        assert code == 2
        assert "error:" in err


class TestEnumerate:
    def test_four_variables(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--vars", "4")
        assert code == 0
        assert out.splitlines() == SPORADIC_4

    def test_five_variables_json(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--vars", "5", "--json")
        assert json.loads(out) == ["ABACBDCEDE", "ABACDBCEDE", "ABACDBDECE"]

    def test_worker_count_does_not_change_bytes(self, capsys):
        _, a, _ = run(capsys, "enumerate", "--vars", "4", "--workers", "1")
        _, b, _ = run(capsys, "enumerate", "--vars", "4", "--workers", "2")
        assert a == b


class TestSeries:
    def test_full_strategy_text(self, capsys):
        code, out, _ = run(
            capsys, "series", "--pattern", "AAABBCCDD", "--alphabet", "3",
            "--strategy", "full",
        )
        assert code == 0
        assert out == "root=0.340002 growth=2.941156\n"

    def test_prefix_defaults_to_maximal(self, capsys):
        code, out, _ = run(
            capsys, "series", "--pattern", "ABCDABCD", "--alphabet", "3",
            "--strategy", "prefix",
        )
        assert code == 0
        assert out == "root=0.381966 growth=2.618034\n"

    def test_json_carries_full_precision(self, capsys):
        _, out, _ = run(
            capsys, "series", "--pattern", "AAABBCCDD", "--alphabet", "3",
            "--strategy", "full", "--json",
        )
        doc = json.loads(out)
        assert doc["root"] == 0.3400023409109351
        assert doc["terms"] == [[3, 3], [3, 2], [3, 2], [3, 2]]

    def test_certify_conclusive(self, capsys):
        code, out, _ = run(
            capsys, "series", "--pattern", "AAABBCCDD", "--alphabet", "3",
            "--strategy", "certify",
        )
        assert code == 0
        assert out.splitlines()[-1] == "conclusive via full"

    def test_certify_inconclusive_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "series", "--pattern", "ABACBDCD", "--alphabet", "3",
            "--strategy", "certify",
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("full: root=absent")
        assert lines[1].startswith("prefix2: root=absent")
        assert lines[-1] == "inconclusive"

    def test_inconclusive_json_uses_null(self, capsys):
        _, out, _ = run(
            capsys, "series", "--pattern", "ABCDABCD", "--alphabet", "3",
            "--strategy", "prefix", "--prefix-len", "2", "--json",
        )
        doc = json.loads(out)
        assert doc["root"] is None
        assert doc["scan_min"] > 0

    def test_non_doubled_pattern_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "series", "--pattern", "ABA", "--alphabet", "3",
            "--strategy", "full",
        )
        assert code == 2
        assert "error:" in err

    def test_certify_rejects_other_alphabets(self, capsys):
        code, out, err = run(capsys, "series", "--pattern", "AA",
                             "--alphabet", "7")
        assert (code, out) == (2, "")
        assert "error:" in err and "3 letters" in err
        # over 7 letters the full strategy has the root that certify missed
        code, out, _ = run(capsys, "series", "--pattern", "AA",
                           "--alphabet", "7", "--strategy", "full")
        assert (code, out) == (0, "root=0.193842 growth=5.158834\n")

    def test_alphabet_defaults_to_three(self, capsys):
        for strategy in ("full", "certify"):
            default = run(capsys, "series", "--pattern", "AAABBCCDD",
                          "--strategy", strategy)
            explicit = run(capsys, "series", "--pattern", "AAABBCCDD",
                           "--strategy", strategy, "--alphabet", "3")
            assert default == explicit
            assert default[0] == 0

    @pytest.mark.parametrize("alphabet", ["0", "-4"])
    def test_alphabet_below_one_is_usage_error(self, capsys, alphabet):
        code, out, err = run(capsys, "series", "--pattern", "ABAB",
                             "--strategy", "prefix", "--prefix-len", "2",
                             "--alphabet", alphabet)
        assert (code, out) == (2, "")
        assert "error:" in err

    def test_prefix_len_zero_is_usage_error(self, capsys):
        code, out, err = run(capsys, "series", "--pattern", "AABB",
                             "--strategy", "prefix", "--prefix-len", "0")
        assert (code, out) == (2, "")
        assert "error:" in err


def _run_quiet(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process run; hypothesis reruns a
    test body without resetting capsys, so output is captured here."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
    return code, err.getvalue()


@given(
    pattern=st.one_of(
        st.text(alphabet="ABCD", min_size=1, max_size=10),
        st.text(alphabet=string.ascii_uppercase + "a1-_ ", max_size=10),
    ),
    alphabet=st.none() | st.integers(-5, 30),
    strategy=st.none() | st.sampled_from(["full", "prefix", "certify"]),
    prefix_len=st.none() | st.integers(-2, 6),
)
def test_series_exit_codes(pattern, alphabet, strategy, prefix_len):
    argv = ["series", "--pattern", pattern]
    for flag, value in (("--alphabet", alphabet), ("--strategy", strategy),
                        ("--prefix-len", prefix_len)):
        if value is not None:
            argv += [flag, str(value)]
    code, err = _run_quiet(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


_PATTERN = st.one_of(
    st.text(alphabet="ABCD", min_size=1, max_size=10),
    st.text(alphabet=string.ascii_uppercase + "a1-_ ", max_size=10),
    # every variable exactly twice, the patterns ae accepts
    st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5, unique=True)
    .flatmap(lambda vs: st.permutations(vs * 2)).map("".join),
)
_WORD = st.one_of(
    st.text(alphabet="012", min_size=1, max_size=16),
    st.text(alphabet="0123ap-_ ", max_size=12),
    # length 2^k over k letters, as splitted --n 2 needs
    st.integers(1, 3).flatmap(lambda k: st.text(
        alphabet="012"[:k], min_size=2 ** k, max_size=2 ** k)),
)


def _argv(head, **flags):
    """argv strategy: the head arguments, then each optional --flag with
    an integer value or left out, then --json or not."""
    opts = [st.none() | st.tuples(st.just("--" + name.replace("_", "-")),
                                  values.map(str))
            for name, values in flags.items()]
    return st.tuples(head, st.booleans(), *opts).map(
        lambda t: [*t[0], *(a for opt in t[2:] if opt for a in opt),
                   *(["--json"] if t[1] else [])])


@settings(max_examples=200)
@given(argv=st.one_of(
    _argv(st.tuples(st.just("occ"), _PATTERN, _WORD), cap=st.integers(-2, 12)),
    _argv(st.tuples(st.just("ae"), _PATTERN)),
    _argv(st.tuples(st.just("splitted"), _WORD), n=st.integers(-1, 4)),
    # --up-to stays small: 26 letters to length 3 is already 18k words
    _argv(st.tuples(st.just("count"), st.just("--pattern"), _PATTERN,
                    st.just("--alphabet"), st.integers(-2, 27).map(str),
                    st.just("--up-to"), st.integers(-2, 3).map(str))),
))
@example(argv=["ae", "ABBA"])
def test_exit_codes(argv):
    code, err = _run_quiet(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


class TestAE:
    def test_text_rendering(self, capsys):
        code, out, _ = run(capsys, "ae", "ABACDCBD")
        assert code == 0
        assert out == "beta=1.940393 ae=1.340091\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "ae", "ABACDCBD", "--json")
        doc = json.loads(out)
        assert doc["matrix"] == [[0, 1, 0, 0], [1, 0, 0, 1], [0, 2, 0, 1], [0, 1, 1, 0]]
        # largest root of the characteristic polynomial x^4 - 3x^2 - 2x + 1
        assert abs(doc["beta"] - 1.94039266366067033) < 1e-14
        assert abs(doc["ae"] - 1.340090632233741) < 1e-12
        assert set(doc) == {"pattern", "matrix", "beta", "ae"}

    def test_defective_matrix_is_answered(self, capsys):
        # M of ABBA is nilpotent, so beta = 0 and AE takes its maximum 2
        assert run(capsys, "ae", "ABBA") == (0, "beta=0.000000 ae=2.000000\n", "")
        code, out, _ = run(capsys, "ae", "ABACDDCEBE")
        assert (code, out) == (0, "beta=1.414214 ae=1.414214\n")

    def test_triple_variable_is_usage_error(self, capsys):
        code, _, err = run(capsys, "ae", "AAA")
        assert code == 2
        assert "error:" in err


class TestVerify:
    def test_single_entry(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--entry", "ABACBDCD", "--max-preimage-len", "2"
        )
        assert code == 0
        assert out == "ABACBDCD len<=2 cap=34 preimages=25 pass\n"

    def test_cap_states_what_was_searched(self, capsys):
        # two-block preimages of a q=17 morphism give windows of 34 letters
        argv = ("verify", "--entry", "ABACBDCD", "--max-preimage-len", "2",
                "--image-cap", "100000")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == "ABACBDCD len<=2 cap=34 preimages=25 pass\n"
        _, out, _ = run(capsys, *argv, "--json")
        (report,) = json.loads(out)
        assert (report["image_cap"], report["effective_cap"]) == (100000, 34)

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, "verify", "--entry", "NOPE")
        assert code == 2
        assert "error:" in err

    def test_custom_morphism_counterexample(self, capsys, tmp_path):
        f = tmp_path / "tm.txt"
        f.write_text("0 -> 01\n1 -> 10\n")
        code, out, _ = run(
            capsys, "verify", "--pattern", "AA", "--morphism", str(f),
            "--max-preimage-len", "2",
        )
        assert code == 1
        assert "counterexample" in out

    def test_json_report(self, capsys):
        _, out, _ = run(
            capsys, "verify", "--entry", "ABACBDCD", "--max-preimage-len", "1",
            "--json",
        )
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["passed"] is True
        assert reports[0]["preimages_checked"] == 5
        assert reports[0]["windows_searched"] == 5

    def test_non_positive_workers_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--entry", "ABACBDCD", "--max-preimage-len", "1",
            "--workers", "-3",
        )
        assert (code, out) == (2, "")
        assert "error:" in err

    def test_pattern_without_morphism_is_usage_error(self, capsys):
        # the corpus entries carry their own patterns
        code, out, err = run(capsys, "verify", "--pattern", "AA",
                             "--max-preimage-len", "1")
        assert (code, out) == (2, "")
        assert "error:" in err and "--morphism" in err

    def test_entry_with_morphism_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "tm.txt"
        f.write_text("0 -> 01\n1 -> 10\n")
        code, out, err = run(
            capsys, "verify", "--pattern", "AA", "--morphism", str(f),
            "--entry", "ABACBDCD", "--max-preimage-len", "1",
        )
        assert (code, out) == (2, "")
        assert "error:" in err and "--entry" in err


class TestCount:
    def test_text_lines(self, capsys):
        code, out, _ = run(
            capsys, "count", "--pattern", "AA", "--alphabet", "3", "--up-to", "4"
        )
        assert code == 0
        assert out.splitlines() == ["n_0=1", "n_1=3", "n_2=6", "n_3=12", "n_4=18"]

    def test_json_and_workers(self, capsys):
        _, a, _ = run(
            capsys, "count", "--pattern", "AA", "--alphabet", "3", "--up-to", "6",
            "--json",
        )
        _, b, _ = run(
            capsys, "count", "--pattern", "AA", "--alphabet", "3", "--up-to", "6",
            "--json", "--workers", "2",
        )
        assert a == b
        assert json.loads(a)["counts"] == [1, 3, 6, 12, 18, 30, 42]

    @pytest.mark.parametrize("flags", [
        ("--alphabet", "3", "--up-to", "-1"),
        ("--alphabet", "30", "--up-to", "4"),
        ("--alphabet", "0", "--up-to", "4"),
        ("--alphabet", "3", "--up-to", "4", "--workers", "0"),
    ])
    def test_bad_input_is_usage_error(self, capsys, flags):
        code, out, err = run(capsys, "count", "--pattern", "AA", *flags)
        assert (code, out) == (2, "")
        assert "error:" in err
        assert "Traceback" not in err


class TestSplitted:
    def test_whole_word_already_splitted(self, capsys):
        code, out, _ = run(capsys, "splitted", "0110", "--n", "2")
        assert code == 0
        assert out == "factor=0110 offset=0 depth=0 pattern=ABBA\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "splitted", "01201201", "--n", "2", "--json")
        doc = json.loads(out)
        assert doc["factor"] == "01201201"
        assert doc["pattern"] == "ABCABCAB"

    def test_bad_length_is_usage_error(self, capsys):
        code, _, err = run(capsys, "splitted", "011010", "--n", "2")
        assert code == 2
        assert "error:" in err


class TestCorpusCmd:
    def test_lists_ten(self, capsys):
        code, out, _ = run(capsys, "corpus")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines[0] == "ABACBDCD q=17 ae=1.381966"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "corpus", "--json")
        doc = json.loads(out)
        assert [e["pattern"] for e in doc][:2] == ["ABACBDCD", "ABACDBDC"]
        assert doc[0]["uniform_len"] == 17


def test_unknown_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["occ", "AA", "00", "--frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_subcommand_is_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main([])
    capsys.readouterr()
