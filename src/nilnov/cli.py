"""Command-line surface: parse inputs, run computations, print reports.

Every run echoes its effective configuration in a header; output is
deterministic for fixed inputs.  Exit codes: 0 success, 2 inconclusive
verdict, 1 error.
"""

import argparse
import sys

from . import __version__
from .charorder import LexOrder, fit_character, parse_mchar
from .errors import NilnovError, ParseError
from .fields import field_by_name, parse_rational
from .fracparse import parse_fraction_expr
from .groupring import GroupRing, ring_mul
from .homology import (INCONCLUSIVE, betti, euler_check, nov_cohomology,
                       pattern_label, sign_patterns, theorem_f, top_degree)
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
    --mmax (Trunc's DEFAULT_M_MAX when it is absent)."""
    text = str(DEFAULT_FRONTIER_ENTRY) if args.frontier is None else args.frontier
    try:
        frontier = [parse_rational(part) for part in text.split(",")]
    except ParseError:
        raise ParseError(f"bad frontier {text!r} (expected rationals like 8 or 3,4)")
    if len(frontier) == 1:
        frontier *= nlevels
    if len(frontier) != nlevels:
        raise NilnovError(f"frontier needs {nlevels} entries")
    try:
        return Trunc(frontier, args.mmax)
    except ValueError as e:
        raise NilnovError(str(e))


def _header(verb, cfg):
    """The header lines that echo a run's effective configuration."""
    return ([f"# {FORMAT_VERSION}", f"# verb: {verb}"]
            + [f"# {key}: {cfg[key]}" for key in sorted(cfg)])


def _quotient_for(pres, kind):
    if kind in ("self", "c1"):
        return nilpotent_quotient(pres, 1)
    if kind == "c2":
        return nilpotent_quotient(pres, 2)
    raise NilnovError(f"unknown quotient {kind!r} (use self, c1 or c2)")


# -- one handler per verb: each returns (stdout lines, exit code)

def _collect(args):
    G = _load_group(args.group)
    return [G.format_elt(G.collect(G.parse_word(args.word)))], 0


def _order(args):
    G = _load_group(args.group)
    primary = {}
    if args.char:
        chi = parse_mchar(_read(args.char), G)
        primary = {i: [comp] for i, comp in enumerate(chi.components)}
    order = LexOrder(G, primary)
    sign = order.compare(G.collect(G.parse_word(args.left)),
                         G.collect(G.parse_word(args.right)))
    return [{-1: "less", 0: "equal", 1: "greater"}[sign]], 0


def _fit_char(args):
    chain = []
    for part in args.chain.split(";"):
        part = part.strip()
        if part:
            try:
                chain.append([int(x) for x in part.split(",")])
            except ValueError:
                raise ParseError(f"bad lattice point {part!r} (expected integers like 0,1)")
    values = fit_character(args.rank, chain)
    return [" ".join(str(v) for v in values)], 0


def _lcs(args):
    G = _load_group(args.group)
    series = lower_central_series(G, args.depth)
    out = _header("lcs", {"group": G.name, "class": args.depth})
    for i, (gam, iso) in enumerate(zip(series.gammas, series.isolators)):
        gdesc = ", ".join(gam.describe()) or "1"
        idesc = ", ".join(iso.describe()) or "1"
        out.append(f"gamma_{i} = <{gdesc}>  isolator = <{idesc}>")
    if series.class_exceeded:
        out.append("note: requested class exceeds the group's class (trivial tail)")
    return out, 0


def _refine(args):
    G = _load_group(args.group)
    series = free_abelianization_refine(G)
    out = _header("refine", {"group": G.name})
    for i, term in enumerate(series.terms):
        desc = ", ".join(term.describe()) or "1"
        out.append(f"K_{i} = <{desc}>")
    return out, 0


def _ring_mul(args):
    ring = GroupRing(_load_group(args.group), args.field)
    return [str(ring_mul(ring.parse(args.x), ring.parse(args.y)))], 0


def _series_setup(args, verb):
    """Ring, multicharacter, truncation and header lines of nov-invert and expand."""
    G = _load_group(args.group)
    ring = GroupRing(G, args.field)
    chi = parse_mchar(_read(args.char), G)
    trunc = _trunc(args, G.nlevels)
    out = _header(verb, {
        "group": G.name, "field": args.field.name,
        "frontier": str(trunc),
        "m_max": trunc.m_max, "pattern": "+" * G.nlevels,
    })
    return ring, chi, trunc, out


def _nov_invert(args):
    ring, chi, trunc, out = _series_setup(args, "nov-invert")
    result = nov_invert(series_from_elt(NovContext(chi, trunc), ring.parse(args.element)))
    out.append(format_series(result))
    return out, 0


def _expand(args):
    ring, chi, trunc, out = _series_setup(args, "expand")
    result = expand(parse_fraction_expr(args.expression, ring), chi, trunc)
    out.append(format_series(result))
    return out, 0


def _fox(args):
    P = _load_presentation(args.presentation)
    if args.quotient == "free":
        cx = fox_complex(P, None, args.field)
    else:
        cx = fox_complex(P, _quotient_for(P, args.quotient), args.field, project=True)
    out = _header("fox", {"presentation": P.name, "field": args.field.name,
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


def _nq(args):
    P = _load_presentation(args.presentation)
    q = nilpotent_quotient(P, args.depth)
    out = _header("nq", {"presentation": P.name, "class": args.depth})
    Q = q.target
    for lvl, names in enumerate(Q.level_gens):
        out.append(f"level {lvl}: " + (" ".join(names) if names else "(empty)"))
    for (y, x), w in sorted(Q.conj_tails.items()):
        out.append(f"conj {Q.gen_names[y]} {Q.gen_names[x]} = {Q.format_elt(w)}")
    for name, img in zip(P.gen_names, q.images):
        out.append(f"image {name} -> {Q.format_elt(img)}")
    return out, 0


def _betti(args):
    P = _load_presentation(args.presentation)
    report = betti(fox_complex(P, None, args.field), args.field)
    out = _header("betti", {"presentation": P.name, "field": args.field.name})
    out.append("betti: " + " ".join(str(b) for b in report.betti))
    return out, 0


def _nov_h(args):
    P = _load_presentation(args.presentation)
    qmap = _quotient_for(P, args.quotient)
    n = qmap.target.nlevels
    chi = parse_mchar(_read(args.char), qmap.target)
    trunc = _trunc(args, n)
    # argparse drops an argument equal to '--', so --sign=-- arrives as []
    sign = "--" if args.sign == [] else args.sign
    if args.sweep:
        patterns = sign_patterns(n)
    elif sign is None:
        patterns = [[1] * n]
    elif set(sign) <= {"+", "-"} and len(sign) == n:
        patterns = [[1 if ch == "+" else -1 for ch in sign]]
    else:
        raise ParseError(f"bad sign pattern {sign!r} "
                         f"(expected one + or - per level, {n} in all)")
    cx = fox_complex(P, qmap, args.field, project=(args.entries == "projected"))
    fr = str(trunc)
    out = _header("nov-h", {
        "presentation": P.name, "field": args.field.name, "frontier": fr,
        "m_max": trunc.m_max, "degree": args.degree,
        "entries": args.entries,
        "pattern": "sweep" if args.sweep else pattern_label(patterns[0]),
    })
    worst = 0
    for signs in patterns:
        rep = nov_cohomology(cx, chi, args.degree, trunc, signs=signs)
        out.extend(rep.describe_lines())
        out.append(f"verdict {rep.pattern} {args.degree} {rep.verdicts[args.degree]} {fr}")
        if rep.verdicts[args.degree] == INCONCLUSIVE:
            worst = 2
    return out, worst


def _theorem_f(args):
    P = _load_presentation(args.presentation)
    qmap = _quotient_for(P, args.quotient)
    chi = parse_mchar(_read(args.char), qmap.target)
    trunc = _trunc(args, qmap.target.nlevels)
    degree = top_degree(P) if args.degree is None else args.degree
    verdict = theorem_f(P, qmap, chi, degree, trunc, field=args.field)
    fr = str(trunc)
    out = _header("theorem-f", {
        "presentation": P.name, "field": args.field.name, "frontier": fr,
        "m_max": trunc.m_max, "degree": degree, "pattern": "sweep",
    })
    for rep in verdict.reports:
        stable = "" if rep.stable is None else f" (stable={rep.stable})"
        out.append(f"pattern {rep.pattern}: H^{degree} {rep.verdicts[degree]}{stable}")
    for rep in verdict.reports:
        out.append(f"verdict {rep.pattern} {degree} {rep.verdicts[degree]} {fr}")
    out.append(f"conclusion: {verdict.conclusion}")
    return out, 0 if verdict.conclusion != INCONCLUSIVE else 2


def _euler(args):
    P = _load_presentation(args.presentation)
    cx = fox_complex(P, None, args.field)
    report = betti(cx, args.field)
    euler_check(cx, [report])
    out = _header("euler", {"presentation": P.name, "field": args.field.name})
    out.append(f"chi(C) = {cx.euler_characteristic()}")
    out.append(f"alternating betti sum = {report.alternating_sum()}")
    out.append("consistent")
    return out, 0


def _parser():
    parser = _Parser(prog="nilnov")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    # options shared by several verbs
    char = argparse.ArgumentParser(add_help=False)
    char.add_argument("--char", "--chi", required=True, help=".mchar file")
    trunc = argparse.ArgumentParser(add_help=False)
    trunc.add_argument("--frontier")
    trunc.add_argument("--mmax", type=int)
    # field_by_name raises ParseError, which argparse does not catch, so a
    # bad name reaches main's error handler
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", default="Q", type=field_by_name,
                       help="coefficient field: Q or F<p>")
    p = sub.add_parser("collect", help="normal form of a word")
    p.add_argument("group")
    p.add_argument("word")
    p.set_defaults(run=_collect)

    p = sub.add_parser("order", help="compare two elements in a lexicographic order")
    p.add_argument("group")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--char", "--chi", help=".mchar file used as primary order rows")
    p.set_defaults(run=_order)

    p = sub.add_parser("fit-char", help="character strictly increasing on a chain")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("chain", help="semicolon-separated lattice points, e.g. '0,1; 1,0; 1,1'")
    p.set_defaults(run=_fit_char)

    p = sub.add_parser("lcs", help="lower central series with isolators")
    p.add_argument("group")
    p.add_argument("--class", dest="depth", type=int, default=3)
    p.set_defaults(run=_lcs)

    p = sub.add_parser("refine", help="free-abelianisation refinement series")
    p.add_argument("group")
    p.set_defaults(run=_refine)

    p = sub.add_parser("ring-mul", parents=[field], help="product of two group-ring elements")
    p.add_argument("group")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(run=_ring_mul)

    p = sub.add_parser("nov-invert", parents=[char, trunc, field],
                       help="truncated inverse, residual-checked (at truncation only with 2+ levels)")
    p.add_argument("element")
    p.add_argument("--group", required=True)
    p.set_defaults(run=_nov_invert)

    p = sub.add_parser("expand", parents=[char, trunc, field],
                       help="expand an iterated fraction expression")
    p.add_argument("expression")
    p.add_argument("--group", required=True)
    p.set_defaults(run=_expand)

    p = sub.add_parser("fox", parents=[field], help="Fox matrices of a presentation")
    p.add_argument("presentation")
    p.add_argument("--quotient", default="free", help="free, self, c1 or c2")
    p.set_defaults(run=_fox)

    p = sub.add_parser("nq", help="torsion-free nilpotent quotient")
    p.add_argument("presentation")
    p.add_argument("--class", dest="depth", type=int, default=1)
    p.set_defaults(run=_nq)

    p = sub.add_parser("betti", parents=[field],
                       help="field Betti numbers of the presentation complex")
    p.add_argument("presentation")
    p.set_defaults(run=_betti)

    p = sub.add_parser("nov-h", parents=[char, trunc, field],
                       help="Novikov cohomology verdicts")
    p.add_argument("presentation")
    p.add_argument("--degree", "-d", type=int, default=2)
    p.add_argument("--quotient", default="c1")
    signs = p.add_mutually_exclusive_group()
    signs.add_argument("--sign", help="sign pattern, one + or - per level, as in --sign=+- "
                       "(the = form also takes patterns that start with -)")
    signs.add_argument("--sweep", action="store_true", help="all 2^n sign patterns")
    p.add_argument("--entries", default="free", choices=["free", "projected"])
    p.set_defaults(run=_nov_h)

    p = sub.add_parser("theorem-f", parents=[char, trunc, field],
                       help="top-degree sign-sweep criterion")
    p.add_argument("presentation")
    p.add_argument("--degree", "-d", type=int,
                   help="the top degree of the presentation complex (the default)")
    p.add_argument("--quotient", default="self")
    p.set_defaults(run=_theorem_f)

    p = sub.add_parser("euler", parents=[field], help="Euler-characteristic consistency check")
    p.add_argument("presentation")
    p.set_defaults(run=_euler)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
        out, code = args.run(args)
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


if __name__ == "__main__":
    sys.exit(main())
