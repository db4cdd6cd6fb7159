"""Tests of the benchmark itself: tracing changes no output, the wrappers
come off again, and the exact layer counts are the stated ones.

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py so that the package's own suite does not
collect it; it takes about two minutes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _traced(wl, workers=1):
    tracer = tracing.Tracer()
    with tracer.installed():
        p = run.Pass(wl, "selftest", workers, tracer)
    return p, tracer


def _originals(wl):
    # every function bound in any package module, where wrappers go
    return {(mod.__name__, name): value
            for mod in (wl.lib.certify, wl.lib.patterns, wl.lib.series,
                        wl.lib.spectral, wl.lib.words)
            for name, value in vars(mod).items() if callable(value)}


def test_outputs_identical_with_tracing_on_and_off():
    for name in workloads.NAMES:
        wl = workloads.setup(name, 1)
        before = _originals(wl)
        plain = run.Pass(wl, "selftest")
        traced, _ = _traced(wl)
        assert traced.outputs == plain.outputs, name
        assert not wl.check(traced.outputs), name
        assert all(ok for _, ok in workloads.cross_checks(wl, plain.outputs)), name
        assert _originals(wl) == before, "wrappers were left installed"


def test_verify_searches_and_preimages():
    wl = workloads.setup("verify", 1)
    p, tracer = _traced(wl)
    assert p.counters["patterns.find_occurrence.calls"] == 250
    assert p.counters["words.generate_free_words.words"] == 10 * 805
    assert all(out == [True, 805] for out in p.outputs.values())
    entries = [s for s in tracer.spans if s.name.startswith("verify:")]
    assert len(entries) == 10
    assert all(s.counters["words.generate_free_words.words"] == 805
               for s in entries)


def test_verify_at_three_block_windows_makes_850_searches():
    # cap q + 1 has the windows of the default cap 2q at a smaller budget
    wl = workloads.setup("verify", 1)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("verify-q+1", "selftest") as sp:
        for e in wl.inputs["entries"]:
            rep = wl.lib.certify.verify_entry(
                e, image_cap=e.morphism.uniform_len + 1)
            assert rep.passed and rep.preimages_checked == 805
    assert sp.counters["patterns.find_occurrence.calls"] == 850


def test_count_to_twelve_makes_777897_searches():
    wl = workloads.setup("count", 1)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("count-12", "selftest") as sp:
        counts = wl.lib.certify.count_avoiding("AAABBCCDD", 3, 12)
    assert counts == wl.expected["count"]["counts"]
    assert sum(counts) == 782_797
    assert sp.counters["patterns.find_occurrence.calls"] == 777_897
    assert sp.counters["patterns.find_occurrence.hits"] == 4_941
    assert sp.counters["patterns.find_occurrence.host_letters"] == 8_982_405


def test_classify_enumeration_makes_94039_searches():
    wl = workloads.setup("classify", 3)
    p, _ = _traced(wl)
    assert p.counters["patterns.find_occurrence.calls"] == 94_039
    assert p.counters["series.certify_threeavoidable.calls"] == 200
    assert p.counters["spectral.avoidability_exponent.calls"] == 10


def test_sample_comes_from_the_seed_and_is_in_the_record():
    a = workloads.sample_patterns(5, workloads.CLASSIFY_SAMPLE)
    assert a == workloads.sample_patterns(5, workloads.CLASSIFY_SAMPLE)
    assert a != workloads.sample_patterns(6, workloads.CLASSIFY_SAMPLE)
    record = workloads.load_record()
    assert len(record) == 22_082
    assert set(a) <= set(record)


def test_population_is_the_library_enumeration():
    wl = workloads.setup("count", 1)
    lib = [str(p) for p in wl.lib.patterns.doubled_patterns_upto(5, 10)]
    assert workloads.doubled_rgs(5, 10) == lib


def test_a_changed_output_fails_its_check():
    wl = workloads.setup("count", 1)
    p = run.Pass(wl, "selftest")
    (name, counts), = p.outputs.items()
    assert wl.check({name: counts[:-1] + [counts[-1] + 1]}) == [name]


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(200)]
    p50, tail, level = run.latency_summary(values)
    assert p50 == 99.5 and tail == 189.0 and level == "p95.0"
    assert run.latency_summary([3.0, 1.0, 2.0])[1:] == (3.0, "maximum")
