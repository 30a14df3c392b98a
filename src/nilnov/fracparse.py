"""Iterated fractions from the literal grammar of groupring, with ^-1.

Builds iterated fractions from text like "(1 - (1 - c)^-1 a)^-1".  The
composition rules cover sums and products in which genuine fractions appear
as deeper-level coefficients or get inverted wholesale; shapes that would
need Ore moves (sums or products of same-level fractions with nontrivial
denominators) raise UnsupportedFraction, since fractions are user-supplied
syntax with no canonical form here.
"""

from .errors import UnsupportedFraction
from .groupring import RingElt, RingOps, read_expr, ring_mul
from .iterfrac import (Leaf, Node, frac_invert, level_entries, scalar_leaf,
                       split_at_level)


def parse_fraction_expr(text, ring):
    """Parse an expression into an iterated fraction (or Leaf) over `ring`."""
    value = read_expr(text, FractionOps(ring))
    if isinstance(value, RingElt):
        return Leaf(value)
    return value


class FractionOps(RingOps):
    """Fraction operations for read_expr: values are finite elements or
    Nodes, and ^-1 of anything but a monomial builds a fraction."""

    def neg(self, x):
        return _scale(x, self.ring.field.neg(self.ring.field.one))

    def add(self, x, y):
        return _add(x, y, self.ring)

    def mul(self, x, y):
        return _mul(x, y, self.ring)

    def invert(self, x):
        if isinstance(x, RingElt) and len(x.terms) == 1:
            return super().invert(x)
        return frac_invert(x)


# -- fraction algebra ------------------------------------------------------

def _unleaf(value):
    return value.elem if isinstance(value, Leaf) else value


def _map_leaves(frac, f):
    """frac with f applied to every numerator leaf; denominators are kept."""
    if frac.is_leaf():
        return Leaf(f(frac.elem))
    return Node([(_map_leaves(cf, f), g) for cf, g in frac.alpha], frac.beta, frac.level)


def _scale(value, coeff):
    if isinstance(value, RingElt):
        return value.scaled(coeff)
    return _map_leaves(value, lambda x: x.scaled(coeff))


def _central_beyond(group, level):
    """Are all generators deeper than `level` central?"""
    for (y, x), tail in group.conj_tails.items():
        if tail and (group.levels[y] > level or group.levels[x] > level):
            return False
    return True


def _mul_frac_central(frac, z, ring):
    """frac * u_z for z a central element deeper than the fraction's level."""
    if not z:
        return frac
    if not _central_beyond(ring.group, ring.group.leading_level(z) - 1):
        raise UnsupportedFraction("deep group part is not central")
    u_z = ring.monomial(ring.field.one, z)
    return _map_leaves(frac, lambda x: ring_mul(x, u_z))


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
            prefix, suffix = split_at_level(group, hh, frac.level)
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
    return not g and coeff.is_leaf() and coeff.elem.terms == {(): ring.field.one}


def _frac_level(value, ring):
    if isinstance(value, RingElt):
        group = ring.group
        return min((group.leading_level(g) for g in value.terms), default=group.nlevels)
    return value.level


def _entries_of(value, level, ring):
    """View a poly/fraction as node entries [(coeff_frac, class)] at `level`,
    which is at most the level of `value`."""
    if isinstance(value, RingElt):
        return level_entries(value, level)
    if value.level > level:
        return [(value, ())]
    if _beta_trivial(value, ring):
        return list(value.alpha)
    raise UnsupportedFraction(
        "sum involving a same-level fraction with a nontrivial denominator")


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
    if isinstance(x, RingElt) and x.is_scalar():
        return _scale(y, x.terms.get((), ring.field.zero))
    if isinstance(y, RingElt) and y.is_scalar():
        return _scale(x, y.terms.get((), ring.field.zero))
    if isinstance(x, RingElt):
        result = None
        for g in x.support():
            scaled = _scale(y, x.terms[g])
            piece = _frac_times_word(_conj_frac(scaled, g, ring), g, ring) if g else scaled
            result = piece if result is None else _add(result, piece, ring)
        return result
    if isinstance(y, RingElt):
        result = None
        for g in y.support():
            scaled = _scale(x, y.terms[g])
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
    glevel = group.leading_level(g)
    if glevel > frac.level:
        return _mul_frac_central(frac, g, ring)
    if glevel < frac.level:
        prefix, suffix = split_at_level(group, g, glevel)
        inner = _frac_times_word(frac, suffix, ring) if suffix else frac
        return Node([(inner, prefix)], [(scalar_leaf(ring, 1), ())], glevel)
    if not _beta_trivial(frac, ring):
        raise UnsupportedFraction("right multiplication into a nontrivial denominator")
    entries = []
    for cf, h in frac.alpha:
        prod = group.mul(h, g)
        prefix, suffix = split_at_level(group, prod, frac.level)
        if suffix:
            cf = _mul_frac_central(cf, suffix, ring)
        entries.append((cf, prefix))
    return Node(entries, frac.beta, frac.level)
