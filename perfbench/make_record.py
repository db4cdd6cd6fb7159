"""Write the expected outputs the benchmark checks against.

    python3 perfbench/make_record.py

- ``data/classify_record.tsv.gz``: for every canonical doubled pattern with
  at most 5 variables and length at most 10 (22,082 patterns), the
  conclusive flag, best strategy and root of ``certify_threeavoidable``.
  One pass over all of them takes several minutes.
- ``data/expected.json``: the published values (avoidance of the ten corpus
  entries, the counts of AAABBCCDD-avoiding ternary words, the 7 + 3
  remaining patterns and the avoidability exponents) and the workers=1
  outputs of the calls that ``sharded`` runs at workers=2.

Only rerun this when a change is meant to alter an output; the frozen
files are what lets the benchmark notice one that is not.
"""

import gzip
import json
import sys

import workloads

PUBLISHED = {
    "verify": {
        "entries": ["ABACBDCD", "ABACDBDC", "ABACDCBD", "ABCADBDC", "ABCADCBD",
                    "ABCADCDB", "ABCBDADC", "ABACBDCEDE", "ABACDBCEDE",
                    "ABACDBDECE"],
        "preimages_checked": 805,
    },
    "count": {
        "pattern": "AAABBCCDD",
        "alphabet": 3,
        "counts": [1, 3, 9, 27, 81, 243, 729, 2187, 6561, 19602, 58566,
                   174570, 520218],
    },
    "classify": {
        "remaining4": ["ABACBDCD", "ABACDBDC", "ABACDCBD", "ABCADBDC",
                       "ABCADCBD", "ABCADCDB", "ABCBDADC"],
        "remaining5": ["ABACBDCEDE", "ABACDBCEDE", "ABACDBDECE"],
        "ae": {
            "ABACBDCD": 1.381966011, "ABACDBDC": 1.333333333,
            "ABACDCBD": 1.340090632, "ABCADBDC": 1.292893219,
            "ABCADCBD": 1.295597743, "ABCADCDB": 1.327621756,
            "ABCBDADC": 1.302775638, "ABACBDCEDE": 1.366025404,
            "ABACDBCEDE": 1.302775638, "ABACDBDECE": 1.320416579,
        },
    },
}


def main() -> int:
    lib = workloads.Library()
    entry = next(e for e in lib.certify.corpus()
                 if e.pattern == workloads.SHARDED_VERIFY)
    wl = workloads.Workload("sharded", 0, lib, PUBLISHED, {"entry": entry})
    expected = dict(PUBLISHED)
    expected["sharded"] = {item.name: item.call() for item in wl.items(1)}
    workloads.DATA.mkdir(exist_ok=True)
    (workloads.DATA / "expected.json").write_text(
        json.dumps(expected, indent=1) + "\n")

    series = wl.lib.series
    population = workloads.doubled_rgs(workloads.CLASSIFY_VARS,
                                       workloads.CLASSIFY_LEN)
    path = workloads.DATA / "classify_record.tsv.gz"
    with gzip.GzipFile(path, "wb", mtime=0) as raw:
        for i, p in enumerate(population):
            rep = series.certify_threeavoidable(p)
            best = rep.best
            fields = [p, "1" if rep.conclusive else "0",
                      best.strategy if best else "-",
                      repr(best.result.root) if best else "-"]
            raw.write(("\t".join(fields) + "\n").encode())
            if i % 2000 == 0:
                print(f"{i}/{len(population)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
