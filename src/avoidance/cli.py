"""Command-line front end: reproduce the enumeration, the series roots,
the avoidability exponents, and the bounded morphism verification from
one entry point.

Exit codes: 0 for a computed result (including "none"/"absent"), 1 for a
verification counterexample or an inconclusive certification when a
conclusion was requested, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certify, patterns, series, spectral, words


class SystemExit2(Exception):
    """Usage-level error discovered after argparse."""


def _real(x: float) -> str:
    return f"{x:.6f}"


def _occurrence_json(occ: patterns.Occurrence) -> dict:
    return {"start": occ.start, "images": dict(sorted(occ.images.items()))}


def _occurrence_text(occ: patterns.Occurrence) -> str:
    imgs = " ".join(f"{v}={img}" for v, img in sorted(occ.images.items()))
    return f"start={occ.start} {imgs}"


def cmd_occ(args) -> int:
    p = patterns.Pattern(args.pattern)
    w = words.Word(args.word)
    occ = patterns.find_occurrence(p, w, args.cap)
    if args.json:
        out = {"pattern": str(p), "word": str(w),
               "occurrence": _occurrence_json(occ) if occ else None}
        print(json.dumps(out))
    else:
        print(_occurrence_text(occ) if occ else "none")
    return 0


def cmd_enumerate(args) -> int:
    remaining = patterns.enumerate_remaining(args.vars, workers=args.workers)
    if args.json:
        print(json.dumps([str(p) for p in remaining]))
    else:
        for p in remaining:
            print(p)
    return 0


def _root_json(res: series.RootResult) -> dict:
    return {"root": res.root, "growth": res.growth,
            "bracket": res.bracket, "scan_min": res.scan_min}


def cmd_series(args) -> int:
    p = patterns.Pattern(args.pattern)
    if args.strategy == "certify":
        report = series.certify_threeavoidable(p)
        if args.json:
            out = {"pattern": str(p), "conclusive": report.conclusive,
                   "attempts": [{"strategy": a.strategy,
                                 "terms": list(map(list, a.spec.terms)),
                                 **_root_json(a.result)}
                                for a in report.attempts]}
            print(json.dumps(out))
        else:
            for a in report.attempts:
                print(f"{a.strategy}: " + (
                    f"root={_real(a.result.root)} growth={_real(a.result.growth)}"
                    if a.result.found else
                    f"root=absent scan_min={_real(a.result.scan_min)}"))
            print(f"conclusive via {report.best.strategy}" if report.conclusive
                  else "inconclusive")
        return 0 if report.conclusive else 1
    if args.strategy == "full":
        spec = series.spec_full(p, args.alphabet)
    else:
        k = args.prefix_len
        if k is None:
            k = series.distinct_prefix_len(p)
        spec = series.spec_prefix(p, args.alphabet, k)
    res = series.smallest_positive_root(spec)
    if args.json:
        print(json.dumps({"pattern": str(p), "strategy": args.strategy,
                          "terms": list(map(list, spec.terms)),
                          **_root_json(res)}))
    elif res.found:
        print(f"root={_real(res.root)} growth={_real(res.growth)}")
    else:
        print(f"root=absent scan_min={_real(res.scan_min)}")
    return 0


def cmd_ae(args) -> int:
    res = spectral.avoidability_exponent(patterns.Pattern(args.pattern))
    if args.json:
        print(json.dumps({"pattern": str(res.pattern),
                          "matrix": res.matrix.entries.tolist(),
                          "beta": res.beta, "ae": res.ae,
                          "iterations": res.iterations}))
    else:
        print(f"beta={_real(res.beta)} ae={_real(res.ae)}")
    return 0


def _report_json(rep: certify.VerificationReport) -> dict:
    out = {"pattern": str(rep.pattern), "morphism_id": rep.morphism_id,
           "max_preimage_len": rep.max_preimage_len, "image_cap": rep.image_cap,
           "effective_cap": rep.effective_cap,
           "preimages_checked": rep.preimages_checked,
           "windows_searched": rep.windows_searched, "passed": rep.passed,
           "counterexample": None}
    if rep.counterexample:
        w, occ = rep.counterexample
        out["counterexample"] = {"preimage": str(w), **_occurrence_json(occ)}
    return out


def _report_text(rep: certify.VerificationReport) -> str:
    head = (f"{rep.pattern} len<={rep.max_preimage_len} cap={rep.effective_cap} "
            f"preimages={rep.preimages_checked}")
    if rep.passed:
        return f"{head} pass"
    w, occ = rep.counterexample
    return f"{head} counterexample preimage={w} {_occurrence_text(occ)}"


def cmd_verify(args) -> int:
    if args.morphism:
        if not args.pattern:
            raise SystemExit2("--morphism requires --pattern")
        m = certify.load_morphism(args.morphism)
        entries = [certify.CorpusEntry(patterns.Pattern(args.pattern), m, 0.0)]
    else:
        entries = certify.corpus()
        if args.entry:
            wanted = args.entry.upper()
            entries = [e for e in entries if e.pattern == wanted]
            if not entries:
                raise SystemExit2(f"no corpus entry {wanted}")
    reports = [certify.verify_entry(e, args.max_preimage_len, args.image_cap,
                                    workers=args.workers)
               for e in entries]
    if args.json:
        print(json.dumps([_report_json(r) for r in reports]))
    else:
        for r in reports:
            print(_report_text(r))
    return 0 if all(r.passed for r in reports) else 1


def cmd_count(args) -> int:
    counts = certify.count_avoiding(patterns.Pattern(args.pattern),
                                    args.alphabet, args.up_to,
                                    workers=args.workers)
    if args.json:
        print(json.dumps({"pattern": args.pattern, "alphabet": args.alphabet,
                          "counts": counts}))
    else:
        for i, c in enumerate(counts):
            print(f"n_{i}={c}")
    return 0


def cmd_splitted(args) -> int:
    rep = patterns.find_splitted_factor(words.Word(args.word), args.n)
    pat = None
    if args.n == 2:
        pat, _ = patterns.splitted_to_pattern(rep.factor)
    if args.json:
        print(json.dumps({"word": args.word, "n": rep.n,
                          "factor": rep.factor, "offset": rep.offset,
                          "depth": rep.depth,
                          "pattern": str(pat) if pat else None}))
    else:
        line = f"factor={rep.factor} offset={rep.offset} depth={rep.depth}"
        if pat:
            line += f" pattern={pat}"
        print(line)
    return 0


def cmd_corpus(args) -> int:
    entries = certify.corpus()
    if args.json:
        print(json.dumps([{"pattern": str(e.pattern),
                           "uniform_len": e.morphism.uniform_len,
                           "ae": e.ae} for e in entries]))
    else:
        for e in entries:
            print(f"{e.pattern} q={e.morphism.uniform_len} ae={_real(e.ae)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="avoid", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        return sp

    sp = add("occ", cmd_occ, help="search a word for a pattern occurrence")
    sp.add_argument("pattern")
    sp.add_argument("word")
    sp.add_argument("--cap", type=int, default=None,
                    help="max total image length")

    sp = add("enumerate", cmd_enumerate,
             help="doubled patterns not settled by the series method")
    sp.add_argument("--vars", type=int, choices=(4, 5), required=True)
    sp.add_argument("--workers", type=int, default=1)

    sp = add("series", cmd_series, help="growth certificate via P(x) roots")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--alphabet", type=int, default=3)
    sp.add_argument("--strategy", choices=("full", "prefix", "certify"),
                    default="certify")
    sp.add_argument("--prefix-len", type=int, default=None,
                    help="prefix size for --strategy prefix (default: maximal)")

    sp = add("ae", cmd_ae, help="avoidability exponent")
    sp.add_argument("pattern")

    sp = add("verify", cmd_verify, help="bounded morphism verification")
    sp.add_argument("--entry", default=None,
                    help="corpus pattern to verify (default: all ten)")
    sp.add_argument("--pattern", default=None,
                    help="pattern for a custom --morphism file")
    sp.add_argument("--morphism", default=None,
                    help="path to a morphism file")
    sp.add_argument("--max-preimage-len", type=int,
                    default=certify.DEFAULT_PREIMAGE_LEN)
    sp.add_argument("--image-cap", type=int, default=None,
                    help="default: twice the uniform length")
    sp.add_argument("--workers", type=int, default=1)

    sp = add("count", cmd_count, help="factor complexity of the avoiding language")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--alphabet", type=int, required=True)
    sp.add_argument("--up-to", type=int, required=True)
    sp.add_argument("--workers", type=int, default=1)

    sp = add("splitted", cmd_splitted, help="locate an n-splitted factor")
    sp.add_argument("word")
    sp.add_argument("--n", type=int, default=2)

    add("corpus", cmd_corpus, help="list the shipped morphism corpus")
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, SystemExit2) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
