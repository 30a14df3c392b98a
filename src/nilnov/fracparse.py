"""Parenthesized expression grammar over ring-element literals with ^-1.

Builds iterated fractions from text like "(1 - (1 - c)^-1 a)^-1".  The
composition rules cover sums and products in which genuine fractions appear
as deeper-level coefficients or get inverted wholesale; shapes that would
need Ore moves (sums or products of same-level fractions with nontrivial
denominators) raise UnsupportedFraction, since fractions are user-supplied
syntax with no canonical form here.
"""

from fractions import Fraction

from .errors import ParseError, UnsupportedFraction
from .groupring import RingElt, ring_mul
from .iterfrac import Leaf, Node
from .novikov import _split_at_level, frac_from_ring_elt, frac_invert, scalar_leaf


def _tokenize(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _is_rational(tok):
    try:
        Fraction(tok)
        return True
    except ValueError:
        return False


class _Reader:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok


def parse_fraction_expr(text, ring):
    """Parse an expression into an iterated fraction (or Leaf) over `ring`."""
    reader = _Reader(_tokenize(text))
    value = _parse_sum(reader, ring)
    if reader.peek() is not None:
        raise ParseError(f"trailing input at token {reader.peek()!r}")
    if isinstance(value, RingElt):
        return Leaf(value)
    return value


def _parse_sum(reader, ring):
    value = _parse_term(reader, ring)
    while reader.peek() in ("+", "-"):
        op = reader.next()
        rhs = _parse_term(reader, ring)
        if op == "-":
            rhs = _scale(rhs, ring.field.neg(ring.field.one), ring)
        value = _add(value, rhs, ring)
    return value


def _parse_term(reader, ring):
    value = _parse_factor(reader, ring)
    while True:
        tok = reader.peek()
        if tok is None or tok in ("+", "-", ")"):
            return value
        if tok == "*":
            reader.next()
        rhs = _parse_factor(reader, ring)
        value = _mul(value, rhs, ring)


def _parse_factor(reader, ring):
    value = _parse_atom(reader, ring)
    while reader.peek() == "^-1":
        reader.next()
        value = _invert(value, ring)
    return value


def _parse_atom(reader, ring):
    tok = reader.next()
    if tok == "(":
        value = _parse_sum(reader, ring)
        if reader.next() != ")":
            raise ParseError("expected ')'")
        return value
    if _is_rational(tok):
        return ring.monomial(Fraction(tok), ())
    coeff = ring.field.one
    if "*" in tok:
        head, _, rest = tok.partition("*")
        if not _is_rational(head) or not rest:
            raise ParseError(f"bad term token {tok!r}")
        coeff = ring.field.coerce(Fraction(head))
        tok = rest
    word = ring.group.parse_word(tok)
    return ring.monomial(coeff, ring.group.collect(word))


# -- fraction algebra ------------------------------------------------------

def _unleaf(value):
    return value.elem if isinstance(value, Leaf) else value


def _min_level(ring, x):
    group = ring.group
    level = group.nlevels
    for g in x.terms:
        if g:
            level = min(level, group.levels[g[0][0]])
    return level


def _is_scalar(x):
    return all(not g for g in x.terms)


def _central_beyond(group, level):
    """Are all generators deeper than `level` central?"""
    for (y, x), tail in group.conj_tails.items():
        if tail and (group.levels[y] > level or group.levels[x] > level):
            return False
    return True


def _scale(value, coeff, ring):
    value = _unleaf(value)
    if isinstance(value, RingElt):
        return value.scaled(coeff)
    return _scale_frac(value, coeff)


def _scale_frac(frac, coeff):
    if frac.is_leaf():
        return Leaf(frac.elem.scaled(coeff))
    return Node([(_scale_frac(cf, coeff), g) for cf, g in frac.alpha],
                frac.beta, frac.level)


def _invert(value, ring):
    value = _unleaf(value)
    if isinstance(value, RingElt):
        if value.is_zero():
            raise ZeroDivisionError("inverting zero")
        if len(value.terms) == 1:
            (g, cf), = value.terms.items()
            return ring.monomial(ring.field.inv(cf), ring.group.inv(g))
        return frac_invert(value)
    if not value.alpha:
        raise ZeroDivisionError("inverting a zero fraction")
    return Node(value.beta, value.alpha, value.level)


def _mul_frac_central(frac, z, ring):
    """frac * u_z for z a central element deeper than the fraction's level."""
    if not z:
        return frac
    if not _central_beyond(ring.group, min(ring.group.levels[i] for i, _ in z) - 1):
        raise UnsupportedFraction("deep group part is not central")
    return _mul_frac_central_unchecked(frac, z, ring)


def _mul_frac_central_unchecked(frac, z, ring):
    if frac.is_leaf():
        return Leaf(ring_mul(frac.elem, ring.monomial(ring.field.one, z)))
    return Node([(_mul_frac_central_unchecked(cf, z, ring), g) for cf, g in frac.alpha],
                frac.beta, frac.level)


def _conj_frac(frac, g, ring):
    """psi_g(frac) = u_g frac u_g^-1, conjugating every group part."""
    group = ring.group
    ginv = group.inv(g)

    def conj_elt(h):
        return group.mul(g, group.mul(h, ginv))

    if frac.is_leaf():
        return Leaf(ring.from_terms(
            (conj_elt(h), cf) for h, cf in frac.elem.terms.items()))

    def conj_entries(entries):
        out = []
        for cf, h in entries:
            hh = conj_elt(h)
            prefix, suffix = _split_at_level(group, hh, frac.level)
            cf2 = _conj_frac(cf, g, ring)
            if suffix:
                cf2 = _mul_frac_central(cf2, suffix, ring)
            out.append((cf2, prefix))
        return out

    return Node(conj_entries(frac.alpha), conj_entries(frac.beta), frac.level)


def _beta_trivial(frac, ring):
    if len(frac.beta) != 1:
        return False
    coeff, g = frac.beta[0]
    return (not g and coeff.is_leaf() and _is_scalar(coeff.elem)
            and coeff.elem.terms.get((), None) == ring.field.one)


def _frac_level(value, ring):
    if isinstance(value, RingElt):
        return _min_level(ring, value)
    return value.level


def _entries_of(value, level, ring):
    """View a poly/fraction as node entries [(coeff_frac, class)] at `level`."""
    group = ring.group
    if isinstance(value, RingElt):
        entries = []
        classes = {}
        for g in value.support():
            if g and group.levels[g[0][0]] < level:
                raise UnsupportedFraction("term shallower than the node level")
            prefix, suffix = _split_at_level(group, g, level)
            classes.setdefault(prefix, []).append((suffix, value.terms[g]))
        for prefix in sorted(classes, key=group.sort_key):
            entries.append((frac_from_ring_elt(ring.from_terms(classes[prefix])), prefix))
        return entries
    if value.level > level:
        return [(value, ())]
    if value.level == level:
        if _beta_trivial(value, ring):
            return list(value.alpha)
        raise UnsupportedFraction(
            "sum involving a same-level fraction with a nontrivial denominator")
    raise UnsupportedFraction("fraction deeper in the sum than its context allows")


def _add(x, y, ring):
    x, y = _unleaf(x), _unleaf(y)
    if isinstance(x, RingElt) and isinstance(y, RingElt):
        return x + y
    level = min(_frac_level(x, ring), _frac_level(y, ring))
    entries = _entries_of(x, level, ring) + _entries_of(y, level, ring)
    return Node(entries, [(scalar_leaf(ring, 1), ())], level)


def _mul(x, y, ring):
    x, y = _unleaf(x), _unleaf(y)
    if isinstance(x, RingElt) and isinstance(y, RingElt):
        return ring_mul(x, y)
    if isinstance(x, RingElt) and _is_scalar(x):
        return _scale_frac(y, x.terms.get((), ring.field.zero))
    if isinstance(y, RingElt) and _is_scalar(y):
        return _scale_frac(x, y.terms.get((), ring.field.zero))
    if isinstance(x, RingElt):
        result = None
        for g in x.support():
            scaled = _scale_frac(y, x.terms[g])
            piece = _frac_times_word(_conj_frac(scaled, g, ring), g, ring) if g else scaled
            result = piece if result is None else _add(result, piece, ring)
        return result
    if isinstance(y, RingElt):
        result = None
        for g in y.support():
            scaled = _scale_frac(x, y.terms[g])
            piece = _frac_times_word(scaled, g, ring) if g else scaled
            result = piece if result is None else _add(result, piece, ring)
        return result
    # fraction * fraction: supported when the right factor is strictly deeper
    if y.level > x.level and _beta_trivial(x, ring):
        entries = []
        for cf, g in x.alpha:
            prod = _mul(cf, y, ring)
            if isinstance(prod, RingElt):
                prod = Leaf(prod)
            entries.append((prod, g))
        return Node(entries, x.beta, x.level)
    raise UnsupportedFraction("product of two same-level fractions")


def _frac_times_word(frac, g, ring):
    """frac * u_g, folding g into group parts (splitting levels as needed)."""
    group = ring.group
    if frac.is_leaf():
        return Leaf(ring_mul(frac.elem, ring.monomial(ring.field.one, g)))
    if not g:
        return frac
    glevel = group.levels[g[0][0]]
    if glevel > frac.level:
        return _mul_frac_central(frac, g, ring)
    if glevel < frac.level:
        prefix, suffix = _split_at_level(group, g, glevel)
        inner = _frac_times_word(frac, suffix, ring) if suffix else frac
        return Node([(inner, prefix)], [(scalar_leaf(ring, 1), ())], glevel)
    if not _beta_trivial(frac, ring):
        raise UnsupportedFraction("right multiplication into a nontrivial denominator")
    entries = []
    for cf, h in frac.alpha:
        prod = group.mul(h, g)
        prefix, suffix = _split_at_level(group, prod, frac.level)
        if suffix:
            cf = _mul_frac_central(cf, suffix, ring)
        entries.append((cf, prefix))
    return Node(entries, frac.beta, frac.level)
