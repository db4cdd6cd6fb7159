"""The four workloads: their inputs, one timed pass, and the checks on
every output.

Each workload is a list of items. An item is one call into the library's
public API on one input, and a pass runs every item once. The inputs are
fixed by the paper except on ``classify``, whose pattern sample comes from
the seeded generator below; on ``verify`` the seed only fixes the order of
the corpus entries.

The library is imported inside ``setup`` so that importing it, numpy
included, is part of the measured set-up time.
"""

from __future__ import annotations

import gzip
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"

NAMES = ("verify", "count", "classify", "sharded")

# The verify image cap is q, the uniform image length, not the default 2q:
# at 2q one pass over the ten entries takes 50-57 s, and at q + 1 (the same
# three-block windows as 2q) still 6-8 s, too few repeats for a steady
# median in one run. At q a pass takes about 2 s: 250 searches over
# two-block windows (30-66 letters) for occurrences ending in the last block.
def verify_cap(q: int) -> int:
    return q


COUNT_PATTERN, COUNT_ALPHABET = "AAABBCCDD", 3
# Length 12 takes 10-14.5 s a call. Length 10 takes under a second, so a
# run holds some twenty repeats and their median is steady.
COUNT_UP_TO = 10
COUNT_GROWTH = 2.941

CLASSIFY_VARS, CLASSIFY_LEN = 5, 10
CLASSIFY_SAMPLE = 200

SHARDED_WORKERS = 2
SHARDED_COUNT = ("ABACBDCD", 3, 10)
SHARDED_VERIFY = "ABCADBDC"


@dataclass
class Item:
    name: str
    call: Callable[[], Any]
    latency: bool  # counts towards item_p50_ms and item_tail_ms


@dataclass
class Workload:
    name: str
    seed: int
    lib: Any
    expected: dict
    inputs: dict = field(default_factory=dict)

    def items(self, workers: int = 1) -> list[Item]:
        return _ITEMS[self.name](self, workers)

    def check(self, outputs: dict) -> list[str]:
        """Names of the failed checks on one pass; ``len(outputs)`` checks
        are attempted."""
        expect = _EXPECT[self.name]
        return [name for name, got in outputs.items()
                if got != expect(self, name)]


class Library:
    """The package modules, imported at set-up."""

    def __init__(self):
        src = ROOT / "src"
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        import avoidance.cli  # noqa: F401  (cli is part of set-up only)
        from avoidance import certify, patterns, series, spectral, words
        self.certify, self.patterns = certify, patterns
        self.series, self.spectral, self.words = series, spectral, words


def setup(name: str, seed: int) -> Workload:
    """Import the package, load the corpus and expected outputs, and
    generate the workload's inputs."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    lib = Library()
    expected = json.loads((DATA / "expected.json").read_text())
    wl = Workload(name, seed, lib, expected)
    corpus = lib.certify.corpus()
    if name == "verify":
        order = list(range(len(corpus)))
        random.Random(seed).shuffle(order)
        wl.inputs["entries"] = [corpus[i] for i in order]
    elif name == "classify":
        wl.inputs["record"] = load_record()
        wl.inputs["sample"] = sample_patterns(seed, CLASSIFY_SAMPLE)
        wl.inputs["corpus"] = [e.pattern for e in corpus]
    elif name == "sharded":
        wl.inputs["entry"] = next(e for e in corpus
                                  if e.pattern == SHARDED_VERIFY)
    return wl


# -- the classify sample -----------------------------------------------------

def doubled_rgs(max_vars: int, max_len: int) -> list[str]:
    """Every restricted-growth string of length 2..max_len over at most
    max_vars letters in which each letter occurs at least twice, ordered by
    (length, lexicographic). These are the canonical doubled patterns."""
    out: list[str] = []
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:max_vars]

    def rec(prefix: str, counts: list[int], length: int) -> None:
        rem = length - len(prefix)
        if rem == 0:
            out.append(prefix)
            return
        for v in range(min(len(counts) + 1, max_vars)):
            new = counts + [0] if v == len(counts) else counts[:]
            new[v] += 1
            if sum(max(0, 2 - c) for c in new) <= rem - 1:
                rec(prefix + letters[v], new, length)

    for length in range(2, max_len + 1):
        rec("", [], length)
    return out


def sample_patterns(seed: int, size: int) -> list[str]:
    """One pattern drawn uniformly from each of ``size`` equal slices of
    the (length, lex)-ordered population: every seed gets the same mix of
    lengths and prefix shapes, which sets the cost of certification."""
    population = doubled_rgs(CLASSIFY_VARS, CLASSIFY_LEN)
    rng = random.Random(seed)
    bounds = [len(population) * i // size for i in range(size + 1)]
    return [population[rng.randrange(lo, hi)]
            for lo, hi in zip(bounds, bounds[1:])]


def load_record() -> dict[str, tuple]:
    """pattern -> (conclusive, best strategy, root) as frozen by
    make_record.py."""
    record = {}
    with gzip.open(DATA / "classify_record.tsv.gz", "rt") as fh:
        for line in fh:
            p, conclusive, strategy, root = line.split()
            record[p] = (conclusive == "1",
                         None if strategy == "-" else strategy,
                         None if root == "-" else float(root))
    return record


# -- items of one pass -------------------------------------------------------

def _verify_items(wl: Workload, workers: int) -> list[Item]:
    c = wl.lib.certify
    return [Item(f"verify:{e.pattern}",
                 _call(_verify_digest, c, e, verify_cap(e.morphism.uniform_len), 1),
                 True)
            for e in wl.inputs["entries"]]


def _count_items(wl: Workload, workers: int) -> list[Item]:
    c = wl.lib.certify
    return [Item("count:" + COUNT_PATTERN,
                 _call(_count, c, COUNT_PATTERN, COUNT_ALPHABET, COUNT_UP_TO, 1),
                 True)]


def _classify_items(wl: Workload, workers: int) -> list[Item]:
    s, sp, pt = wl.lib.series, wl.lib.spectral, wl.lib.patterns
    items = [Item(f"certify:{p}", _call(_certify_digest, s, p), True)
             for p in wl.inputs["sample"]]
    items += [Item(f"ae:{p}", _call(_ae_value, sp, p), False)
              for p in wl.inputs["corpus"]]
    items += [Item(f"enumerate:{v}", _call(_enumerate, pt, v, 1), False)
              for v in (4, 5)]
    return items


def _sharded_items(wl: Workload, workers: int) -> list[Item]:
    c, pt = wl.lib.certify, wl.lib.patterns
    e = wl.inputs["entry"]
    p, m, n = SHARDED_COUNT
    return [
        Item("enumerate_remaining", _call(_enumerate, pt, 5, workers), True),
        Item("count_avoiding", _call(_count, c, p, m, n, workers), True),
        Item("verify_entry",
             _call(_verify_digest, c, e, verify_cap(e.morphism.uniform_len),
                   workers), True),
    ]


def entry_of(item_name: str) -> str:
    """The corpus pattern a verify item runs on."""
    return SHARDED_VERIFY if item_name == "verify_entry" else item_name.split(":")[1]


def _call(fn, *args):
    # library functions are looked up when the item runs, so that wrappers
    # installed after the items were built are used
    return lambda: fn(*args)


def _count(certify, p, m, up_to, workers):
    return certify.count_avoiding(p, m, up_to, workers=workers)


def _verify_digest(certify, entry, cap, workers):
    rep = certify.verify_entry(entry, image_cap=cap, workers=workers)
    return [rep.passed, rep.preimages_checked]


def _certify_digest(series, p):
    rep = series.certify_threeavoidable(p)
    best = rep.best
    return [rep.conclusive, best.strategy if best else None,
            best.result.root if best else None]


def _ae_value(spectral, p):
    return spectral.avoidability_exponent(p).ae


def _enumerate(patterns, v, workers):
    return [str(p) for p in patterns.enumerate_remaining(v, workers=workers)]


_ITEMS = {"verify": _verify_items, "count": _count_items,
          "classify": _classify_items, "sharded": _sharded_items}


# -- expected outputs --------------------------------------------------------

class Near:
    """Compares equal to numbers within ``tol`` of ``value``."""

    def __init__(self, value: float, tol: float):
        self.value, self.tol = value, tol

    def __eq__(self, other) -> bool:
        return isinstance(other, float) and abs(other - self.value) <= self.tol


class CountsBound:
    """The frozen counts, each at least growth**i."""

    def __init__(self, counts: list[int], growth: float):
        self.counts, self.growth = counts, growth

    def __eq__(self, other) -> bool:
        return (other == self.counts
                and all(n >= self.growth ** i for i, n in enumerate(other)))


def _expect_verify(wl: Workload, name: str):
    return [True, wl.expected["verify"]["preimages_checked"]]


def _expect_count(wl: Workload, name: str):
    counts = wl.expected["count"]["counts"][:COUNT_UP_TO + 1]
    return CountsBound(counts, COUNT_GROWTH)


def _expect_classify(wl: Workload, name: str):
    kind, arg = name.split(":")
    exp = wl.expected["classify"]
    if kind == "certify":
        conclusive, strategy, root = wl.inputs["record"][arg]
        return [conclusive, strategy,
                None if root is None else Near(root, 1e-9)]
    if kind == "ae":
        return Near(exp["ae"][arg], 1e-6)
    return exp[f"remaining{arg}"]


def _expect_sharded(wl: Workload, name: str):
    # the outputs of the same calls at workers=1
    return wl.expected["sharded"][name]


_EXPECT = {"verify": _expect_verify, "count": _expect_count,
           "classify": _expect_classify, "sharded": _expect_sharded}


# -- checks outside the timed region -----------------------------------------

def cross_checks(wl: Workload, outputs: dict) -> list[tuple[str, bool]]:
    """Checks that need an oracle or a second computation, run once per run
    on the outputs of one pass and never timed. Returns (check name,
    passed) pairs."""
    return list(_cross_checks(wl, outputs))


def _cross_checks(wl: Workload, outputs: dict):
    c = wl.lib.certify
    if wl.name == "verify":
        # sabotage controls: both must be caught
        e0 = c.corpus()[0]
        constant = c.Morphism(("0" * e0.morphism.uniform_len,) * 5)
        bad1 = c.verify_entry(c.CorpusEntry(e0.pattern, constant, e0.ae),
                              max_preimage_len=2)
        yield "sabotage:constant-images", not bad1.passed
        bad2 = c.verify_entry(c.CorpusEntry(wl.lib.patterns.Pattern("AA"),
                                            e0.morphism, 2.0),
                              max_preimage_len=2)
        yield "sabotage:square-pattern", not bad2.passed
    elif wl.name == "classify":
        oracles = _oracles()
        for p in wl.inputs["corpus"]:
            mat = wl.lib.spectral.ae_matrix(p).entries.tolist()
            beta = oracles.spectral_radius_by_roots(mat)
            ae = 1.0 + 1.0 / (beta + 1.0)
            yield f"ae-oracle:{p}", abs(ae - wl.expected["classify"]["ae"][p]) < 1e-6
        series = wl.lib.series
        checked = set()
        for p in wl.inputs["sample"]:
            conclusive, strategy, root = outputs[f"certify:{p}"]
            if not conclusive:
                continue
            spec = (series.spec_full(p, 3) if strategy == "full" else
                    series.spec_prefix(p, 3, int(strategy[len("prefix"):])))
            if spec not in checked:
                checked.add(spec)
                yield f"sign-change:{p}", _sign_change(oracles, spec, root)


def _oracles():
    tests = ROOT / "tests"
    if str(tests) not in sys.path:
        sys.path.insert(0, str(tests))
    import oracles
    return oracles


def _sign_change(oracles, spec, root: float) -> bool:
    """The truncated power series is positive just below the root and
    negative just above. Truncation only lowers the value (every dropped
    coefficient is positive), so enough terms are taken for the dropped
    tail to be negligible below the root."""
    delta = 1e-6
    ratio = (root + delta) / spec.pole_radius
    n_terms = min(400, max(60, math.ceil(math.log(1e-12) / math.log(ratio))))
    below = oracles.truncated_series_value(spec.m, spec.terms, root - delta, n_terms)
    above = oracles.truncated_series_value(spec.m, spec.terms, root + delta, n_terms)
    return below > 0.0 > above
