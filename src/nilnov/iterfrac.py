"""Iterated fractions: recursive numerator/denominator trees.

A leaf is a finite group-ring element (a RingElt) and expands to itself.
A Node at level i holds numerator and denominator lists of (coefficient,
group part) pairs, where group parts are normal forms supported at level i
and each coefficient is an iterated fraction whose levels are strictly
deeper.  It stands for alpha*beta^-1, each list read as the sum of its
coefficient*u_part.
"""

from .errors import ZeroInverse
from .groupring import RingElt


class Node:
    __slots__ = ("alpha", "beta", "level")

    def __init__(self, alpha, beta, level):
        if not beta:
            raise ValueError("fraction denominator must be nonzero")
        self.alpha = list(alpha)
        self.beta = list(beta)
        self.level = level

    def __repr__(self):
        return f"Node(level={self.level}, |alpha|={len(self.alpha)}, |beta|={len(self.beta)})"


def nodes(frac):
    """Iterate all Node instances of a fraction tree, depth-first."""
    if isinstance(frac, RingElt):
        return
    yield frac
    for coeff, _ in list(frac.alpha) + list(frac.beta):
        yield from nodes(coeff)


def support_vectors(node, group):
    """Distinct level-`node.level` exponent vectors of the node's parts:
    supp(alpha) u supp(beta), or supp(alpha) alone when the denominator is
    one scalar entry at the identity.  Such a node is the finite sum alpha
    over a scalar, and that identity is no term of it."""
    (coeff, part), *rest = node.beta
    finite = not rest and part == () and isinstance(coeff, RingElt) and coeff.is_scalar()
    seen = []
    for _, g in node.alpha if finite else node.alpha + node.beta:
        v = group.level_vector(g, node.level)
        if v not in seen:
            seen.append(v)
    return seen


# -- building iterated fractions ------------------------------------------

def split_at_level(group, g, level):
    """(prefix, rest) with g = rest * prefix, prefix the level-`level`
    syllables of g, for g none of whose syllables is shallower.

    This is the one rule that moves group parts through fractions:
    c*u_g = (c*u_rest)*u_prefix, where rest = p s p^-1 for g = p s (p the
    prefix, s the deeper syllables) is deeper than `level` because every
    term of the series is normal.
    """
    prefix = tuple((i, e) for i, e in g if group.levels[i] == level)
    if len(prefix) == len(g):
        return prefix, ()
    return prefix, group.mul(g, group.inv(prefix))


def level_entries(x, level):
    """Node entries [(coefficient, prefix)] of a finite element none of whose
    terms is shallower than `level`: terms grouped by their level-`level`
    prefix, each group's rest nested by frac_from_ring_elt."""
    group = x.ring.group
    classes = {}
    for g in x.support():
        prefix, rest = split_at_level(group, g, level)
        classes.setdefault(prefix, []).append((rest, x.terms[g]))
    return [(frac_from_ring_elt(x.ring.from_terms(classes[prefix])), prefix)
            for prefix in sorted(classes, key=group.sort_key)]


def frac_from_ring_elt(x):
    """Canonical nested tree of a finite element: one node per level,
    deeper parts becoming coefficient fractions, scalars becoming leaves."""
    if x.is_scalar():
        return x
    level = min(x.ring.group.leading_level(g) for g in x.terms)
    return Node(level_entries(x, level), [(x.ring.one(), ())], level)


def frac_invert(frac):
    """Invert a fraction or finite element; swaps numerator and denominator."""
    if isinstance(frac, RingElt):
        ring = frac.ring
        if frac.is_zero():
            raise ZeroInverse("cannot invert zero")
        if frac.is_scalar():
            return ring.monomial(ring.field.inv(frac.terms[()]), ())
        nested = frac_from_ring_elt(frac)
        return Node([(ring.one(), ())], nested.alpha, nested.level)
    if not frac.alpha:
        raise ZeroInverse("cannot invert a zero fraction")
    return Node(frac.beta, frac.alpha, frac.level)
