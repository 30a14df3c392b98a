"""Command-line surface: parse inputs, run computations, print reports.

Every run echoes its effective configuration in a header; output is
deterministic for fixed inputs.  Exit codes: 0 success, 2 inconclusive
verdict, 1 error.
"""

import argparse
import itertools
import sys
from fractions import Fraction

from . import __version__
from .charorder import LexOrder, fit_character, parse_mchar
from .errors import NilnovError
from .fields import field_by_name
from .fracparse import parse_fraction_expr
from .groupring import GroupRing, ring_mul
from .homology import (INCONCLUSIVE, betti, euler_check, nov_cohomology,
                       theorem_f)
from .novikov import (DEFAULT_FRONTIER_ENTRY, NovContext, Trunc, expand,
                      format_series, nov_invert, series_from_elt)
from .pcgroup import free_abelianization_refine, lower_central_series, parse_pc
from .presentations import fox_complex, nilpotent_quotient, parse_presentation

FORMAT_VERSION = "nilnov report v1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_group(path):
    return parse_pc(_read(path))


def _load_presentation(path):
    return parse_presentation(_read(path))


def _trunc(args, nlevels):
    """Truncation from --frontier (one entry per level, or one for all) and
    --mmax (default: NILNOV_MMAX, then 64)."""
    text = str(DEFAULT_FRONTIER_ENTRY) if args.frontier is None else args.frontier
    try:
        frontier = [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise NilnovError(f"bad frontier {text!r} (expected rationals like 8 or 3,4)")
    if len(frontier) == 1:
        frontier *= nlevels
    if len(frontier) != nlevels:
        raise NilnovError(f"frontier needs {nlevels} entries")
    try:
        return Trunc(frontier, args.mmax)
    except ValueError as e:
        raise NilnovError(str(e))


def _frontier_str(trunc):
    return ",".join(str(t) for t in trunc.frontier)


def _header(out, verb, cfg):
    out.append(f"# {FORMAT_VERSION}")
    out.append(f"# verb: {verb}")
    for key in sorted(cfg):
        out.append(f"# {key}: {cfg[key]}")


def _quotient_for(pres, kind):
    if kind in ("self", "ab", "c1"):
        return nilpotent_quotient(pres, 1)
    if kind == "c2":
        return nilpotent_quotient(pres, 2)
    raise NilnovError(f"unknown quotient {kind!r} (use self, c1 or c2)")


def _add_field_opts(sp):
    # field_by_name raises ParseError, which argparse does not catch, so a
    # bad name reaches main's error handler
    sp.add_argument("--field", default="Q", type=field_by_name,
                    help="coefficient field: Q or F<p>")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _Parser(prog="nilnov")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("collect", help="normal form of a word")
    p.add_argument("group")
    p.add_argument("word")

    p = sub.add_parser("order", help="compare two elements in a lexicographic order")
    p.add_argument("group")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--char", "--chi", help=".mchar file used as primary order rows")

    p = sub.add_parser("fit-char", help="character strictly increasing on a chain")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("chain", help="semicolon-separated lattice points, e.g. '0,1; 1,0; 1,1'")

    p = sub.add_parser("lcs", help="lower central series with isolators")
    p.add_argument("group")
    p.add_argument("--class", dest="depth", type=int, default=3)

    p = sub.add_parser("refine", help="free-abelianisation refinement series")
    p.add_argument("group")

    p = sub.add_parser("ring-mul", help="product of two group-ring elements")
    p.add_argument("group")
    p.add_argument("x")
    p.add_argument("y")
    _add_field_opts(p)

    p = sub.add_parser("nov-invert", help="certified truncated inverse")
    p.add_argument("element")
    p.add_argument("--group", required=True)
    p.add_argument("--char", "--chi", required=True)
    p.add_argument("--frontier")
    p.add_argument("--mmax", type=int)
    _add_field_opts(p)

    p = sub.add_parser("expand", help="expand an iterated fraction expression")
    p.add_argument("expression")
    p.add_argument("--group", required=True)
    p.add_argument("--char", "--chi", required=True)
    p.add_argument("--frontier")
    p.add_argument("--mmax", type=int)
    _add_field_opts(p)

    p = sub.add_parser("fox", help="Fox matrices of a presentation")
    p.add_argument("presentation")
    p.add_argument("--quotient", default="free", help="free, self, c1 or c2")
    _add_field_opts(p)

    p = sub.add_parser("nq", help="torsion-free nilpotent quotient")
    p.add_argument("presentation")
    p.add_argument("--class", dest="depth", type=int, default=1)

    p = sub.add_parser("betti", help="field Betti numbers of the presentation complex")
    p.add_argument("presentation")
    _add_field_opts(p)

    p = sub.add_parser("nov-h", help="Novikov cohomology verdicts")
    p.add_argument("presentation")
    p.add_argument("--char", "--chi", required=True)
    p.add_argument("--quotient", default="c1")
    p.add_argument("--degree", "-d", type=int, default=2)
    p.add_argument("--frontier")
    p.add_argument("--mmax", type=int)
    p.add_argument("--sign", help="sign pattern like '+-' (one per level)")
    p.add_argument("--sweep", action="store_true", help="all 2^n sign patterns")
    p.add_argument("--entries", default="free", choices=["free", "projected"])
    _add_field_opts(p)

    p = sub.add_parser("theorem-f", help="top-degree sign-sweep criterion")
    p.add_argument("presentation")
    p.add_argument("--char", "--chi", required=True)
    p.add_argument("--quotient", default="self")
    p.add_argument("--degree", "-d", type=int, default=2)
    p.add_argument("--frontier")
    p.add_argument("--mmax", type=int)
    _add_field_opts(p)

    p = sub.add_parser("euler", help="Euler-characteristic consistency check")
    p.add_argument("presentation")
    _add_field_opts(p)

    try:
        args = parser.parse_args(argv)
        out, code = _dispatch(args)
    except SystemExit as e:
        return int(e.code or 0)
    except NilnovError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("\n".join(out))
    return code


def _dispatch(args):
    out = []
    verb = args.verb

    if verb == "collect":
        G = _load_group(args.group)
        elt = G.collect(G.parse_word(args.word))
        out.append(G.format_elt(elt))
        return out, 0

    if verb == "order":
        G = _load_group(args.group)
        primary = {}
        if args.char:
            chi = parse_mchar(_read(args.char), G)
            primary = {i: [list(c.values)] for i, c in enumerate(chi.components)}
        order = LexOrder(G, primary)
        sign = order.compare(G.collect(G.parse_word(args.left)),
                             G.collect(G.parse_word(args.right)))
        out.append({-1: "less", 0: "equal", 1: "greater"}[sign])
        return out, 0

    if verb == "fit-char":
        chain = []
        for part in args.chain.split(";"):
            part = part.strip()
            if part:
                chain.append([int(x) for x in part.split(",")])
        values = fit_character(args.rank, chain)
        out.append(" ".join(str(v) for v in values))
        return out, 0

    if verb == "lcs":
        G = _load_group(args.group)
        series = lower_central_series(G, args.depth)
        _header(out, "lcs", {"group": G.name, "class": args.depth})
        for i, (gam, iso) in enumerate(zip(series.gammas, series.isolators)):
            gdesc = ", ".join(gam.describe()) or "1"
            idesc = ", ".join(iso.describe()) or "1"
            out.append(f"gamma_{i} = <{gdesc}>  isolator = <{idesc}>")
        if series.class_exceeded:
            out.append("note: requested class exceeds the group's class (trivial tail)")
        return out, 0

    if verb == "refine":
        G = _load_group(args.group)
        series = free_abelianization_refine(G)
        _header(out, "refine", {"group": G.name})
        for i, term in enumerate(series.terms):
            desc = ", ".join(term.describe()) or "1"
            out.append(f"K_{i} = <{desc}>")
        return out, 0

    if verb == "ring-mul":
        G = _load_group(args.group)
        ring = GroupRing(G, args.field)
        prod = ring_mul(ring.parse(args.x), ring.parse(args.y))
        out.append(str(prod))
        return out, 0

    if verb in ("nov-invert", "expand"):
        G = _load_group(args.group)
        ring = GroupRing(G, args.field)
        chi = parse_mchar(_read(args.char), G)
        trunc = _trunc(args, G.nlevels)
        _header(out, verb, {
            "group": G.name, "field": args.field.name,
            "frontier": _frontier_str(trunc),
            "m_max": trunc.m_max, "pattern": "+" * G.nlevels,
        })
        if verb == "nov-invert":
            ctx = NovContext(chi, trunc)
            result = nov_invert(series_from_elt(ctx, ring.parse(args.element)))
        else:
            frac = parse_fraction_expr(args.expression, ring)
            result = expand(frac, chi, trunc)
        out.append(format_series(result))
        return out, 0

    if verb == "fox":
        P = _load_presentation(args.presentation)
        if args.quotient == "free":
            cx = fox_complex(P, None, args.field)
        else:
            cx = fox_complex(P, _quotient_for(P, args.quotient), args.field, project=True)
        _header(out, "fox", {"presentation": P.name, "field": args.field.name,
                             "entries": args.quotient})
        out.append("d1 (one column per generator):")
        for name, e in zip(P.gen_names, cx.d1):
            out.append(f"  d({name}) = {e}")
        for j, row in enumerate(cx.d2):
            out.append(f"d2 row for relator {P.free_group.format_elt(P.relators[j])}:")
            for name, e in zip(P.gen_names, row):
                out.append(f"  dr/d{name} = {e}")
        out.append("composite check: d1.d2 = 0 verified" if cx.projected
                   else "composite check: Fox identity verified")
        return out, 0

    if verb == "nq":
        P = _load_presentation(args.presentation)
        q = nilpotent_quotient(P, args.depth)
        _header(out, "nq", {"presentation": P.name, "class": args.depth})
        Q = q.target
        for lvl, names in enumerate(Q.level_gens):
            out.append(f"level {lvl}: " + (" ".join(names) if names else "(empty)"))
        for (y, x), w in sorted(Q.conj_tails.items()):
            out.append(f"conj {Q.gen_names[y]} {Q.gen_names[x]} = {Q.format_elt(w)}")
        for name, img in zip(P.gen_names, q.images):
            out.append(f"image {name} -> {Q.format_elt(img)}")
        return out, 0

    if verb == "betti":
        P = _load_presentation(args.presentation)
        cx = fox_complex(P, None, args.field)
        report = betti(cx, args.field)
        _header(out, "betti", {"presentation": P.name, "field": args.field.name})
        out.append("betti: " + " ".join(str(b) for b in report.betti))
        return out, 0

    if verb == "nov-h":
        P = _load_presentation(args.presentation)
        qmap = _quotient_for(P, args.quotient)
        chi = parse_mchar(_read(args.char), qmap.target)
        trunc = _trunc(args, qmap.target.nlevels)
        cx = fox_complex(P, qmap, args.field, project=(args.entries == "projected"))
        patterns = _patterns(args, qmap.target.nlevels)
        fr = _frontier_str(trunc)
        _header(out, "nov-h", {
            "presentation": P.name, "field": args.field.name, "frontier": fr,
            "m_max": trunc.m_max, "degree": args.degree,
            "entries": args.entries,
            "pattern": "sweep" if args.sweep else _pattern_str(patterns[0]),
        })
        worst = 0
        for signs in patterns:
            rep = nov_cohomology(cx, chi, args.degree, trunc, signs=list(signs))
            out.extend(rep.describe_lines())
            out.append(f"verdict {rep.pattern} {args.degree} {rep.verdicts[args.degree]} {fr}")
            if rep.verdicts[args.degree] == INCONCLUSIVE:
                worst = 2
        return out, worst

    if verb == "theorem-f":
        P = _load_presentation(args.presentation)
        qmap = _quotient_for(P, args.quotient)
        chi = parse_mchar(_read(args.char), qmap.target)
        trunc = _trunc(args, qmap.target.nlevels)
        verdict = theorem_f(P, qmap, chi, args.degree, trunc, field=args.field)
        fr = _frontier_str(trunc)
        _header(out, "theorem-f", {
            "presentation": P.name, "field": args.field.name, "frontier": fr,
            "m_max": trunc.m_max, "degree": args.degree, "pattern": "sweep",
        })
        for label, rep in zip(verdict.patterns, verdict.reports):
            out.append(f"pattern {label}: H^{args.degree} {rep.verdicts[args.degree]}"
                       f" (stable={rep.stable})")
        for label, rep in zip(verdict.patterns, verdict.reports):
            out.append(f"verdict {label} {args.degree} {rep.verdicts[args.degree]} {fr}")
        out.append(f"conclusion: {verdict.conclusion}")
        return out, 0 if verdict.conclusion != INCONCLUSIVE else 2

    if verb == "euler":
        P = _load_presentation(args.presentation)
        cx = fox_complex(P, None, args.field)
        report = betti(cx, args.field)
        euler_check(cx, [report])
        _header(out, "euler", {"presentation": P.name, "field": args.field.name})
        out.append(f"chi(C) = {cx.euler_characteristic()}")
        out.append(f"alternating betti sum = {report.alternating_sum()}")
        out.append("consistent")
        return out, 0

    raise NilnovError(f"unknown verb {verb!r}")


def _patterns(args, n):
    if args.sweep:
        return list(itertools.product((1, -1), repeat=n))
    if args.sign:
        if len(args.sign) != n:
            raise NilnovError(f"sign pattern needs {n} entries")
        return [tuple(1 if ch == "+" else -1 for ch in args.sign)]
    return [tuple([1] * n)]


def _pattern_str(signs):
    return "".join("+" if s > 0 else "-" for s in signs)


if __name__ == "__main__":
    sys.exit(main())
