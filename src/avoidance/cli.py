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


def _real(x: float) -> str:
    return f"{x:.6f}"


def _occurrence_json(occ: patterns.Occurrence) -> dict:
    return {"start": occ.start, "images": dict(sorted(occ.images.items()))}


def _occurrence_text(occ: patterns.Occurrence) -> str:
    imgs = " ".join(f"{v}={img}" for v, img in sorted(occ.images.items()))
    return f"start={occ.start} {imgs}"


# Each cmd_* returns (json document, text lines, exit code); main prints
# the rendering that --json asks for.


def cmd_occ(args):
    p = patterns.Pattern(args.pattern)
    w = words.Word(args.word)
    occ = patterns.find_occurrence(p, w, args.cap)
    doc = {"pattern": str(p), "word": str(w),
           "occurrence": _occurrence_json(occ) if occ else None}
    return doc, [_occurrence_text(occ) if occ else "none"], 0


def cmd_enumerate(args):
    remaining = [str(p) for p in
                 patterns.enumerate_remaining(args.vars, workers=args.workers)]
    return remaining, remaining, 0


def _root_json(res: series.RootResult) -> dict:
    return {"root": res.root, "growth": res.growth,
            "bracket": res.bracket, "scan_min": res.scan_min}


def _root_text(res: series.RootResult) -> str:
    if res.found:
        return f"root={_real(res.root)} growth={_real(res.growth)}"
    return f"root=absent scan_min={_real(res.scan_min)}"


def cmd_series(args):
    p = patterns.Pattern(args.pattern)
    if args.strategy == "certify":
        if args.alphabet not in (None, 3):
            raise ValueError("--strategy certify works over 3 letters only; "
                             "use --strategy full or prefix for "
                             f"--alphabet {args.alphabet}")
        report = series.certify_threeavoidable(p)
        doc = {"pattern": str(p), "conclusive": report.conclusive,
               "attempts": [{"strategy": a.strategy,
                             "terms": list(map(list, a.spec.terms)),
                             **_root_json(a.result)}
                            for a in report.attempts]}
        lines = [f"{a.strategy}: {_root_text(a.result)}"
                 for a in report.attempts]
        lines.append(f"conclusive via {report.best.strategy}"
                     if report.conclusive else "inconclusive")
        return doc, lines, 0 if report.conclusive else 1
    m = 3 if args.alphabet is None else args.alphabet
    if args.strategy == "full":
        spec = series.spec_full(p, m)
    else:
        k = args.prefix_len
        if k is None:
            k = series.distinct_prefix_len(p)
        spec = series.spec_prefix(p, m, k)
    res = series.smallest_positive_root(spec)
    doc = {"pattern": str(p), "strategy": args.strategy,
           "terms": list(map(list, spec.terms)), **_root_json(res)}
    return doc, [_root_text(res)], 0


def cmd_ae(args):
    res = spectral.avoidability_exponent(patterns.Pattern(args.pattern))
    doc = {"pattern": str(res.pattern), "matrix": res.matrix.entries.tolist(),
           "beta": res.beta, "ae": res.ae}
    return doc, [f"beta={_real(res.beta)} ae={_real(res.ae)}"], 0


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


def cmd_verify(args):
    if args.morphism:
        if not args.pattern:
            raise ValueError("--morphism requires --pattern")
        if args.entry:
            raise ValueError("--entry names a corpus morphism; "
                             "it cannot be combined with --morphism")
        m = certify.load_morphism(args.morphism)
        entries = [certify.CorpusEntry(patterns.Pattern(args.pattern), m, 0.0)]
    else:
        if args.pattern:
            raise ValueError("--pattern requires --morphism")
        entries = certify.corpus()
        if args.entry:
            wanted = args.entry.upper()
            entries = [e for e in entries if e.pattern == wanted]
            if not entries:
                raise ValueError(f"no corpus entry {wanted}")
    reports = [certify.verify_entry(e, args.max_preimage_len, args.image_cap,
                                    workers=args.workers)
               for e in entries]
    return ([_report_json(r) for r in reports],
            [_report_text(r) for r in reports],
            0 if all(r.passed for r in reports) else 1)


def cmd_count(args):
    counts = certify.count_avoiding(patterns.Pattern(args.pattern),
                                    args.alphabet, args.up_to,
                                    workers=args.workers)
    doc = {"pattern": args.pattern, "alphabet": args.alphabet,
           "counts": counts}
    return doc, [f"n_{i}={c}" for i, c in enumerate(counts)], 0


def cmd_splitted(args):
    rep = patterns.find_splitted_factor(words.Word(args.word), args.n)
    pat = None
    if args.n == 2:
        pat, _ = patterns.splitted_to_pattern(rep.factor)
    doc = {"word": args.word, "n": rep.n, "factor": rep.factor,
           "offset": rep.offset, "depth": rep.depth,
           "pattern": str(pat) if pat else None}
    line = f"factor={rep.factor} offset={rep.offset} depth={rep.depth}"
    if pat:
        line += f" pattern={pat}"
    return doc, [line], 0


def cmd_corpus(args):
    entries = certify.corpus()
    doc = [{"pattern": str(e.pattern), "uniform_len": e.morphism.uniform_len,
            "ae": e.ae} for e in entries]
    return doc, [f"{e.pattern} q={e.morphism.uniform_len} ae={_real(e.ae)}"
                 for e in entries], 0


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
    sp.add_argument("--alphabet", type=int, default=None,
                    help="alphabet size (default 3, the only one certify "
                         "accepts)")
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
    args = build_parser().parse_args(argv)
    try:
        doc, lines, code = args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(doc))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
