"""Iterated fractions: recursive numerator/denominator trees.

A Leaf holds a finite group-ring element and expands to itself.  A Node at
level i holds numerator and denominator lists of (coefficient, group part)
pairs, where group parts are normal forms supported at level i and each
coefficient is an iterated fraction whose levels are strictly deeper.
"""

from .errors import ZeroInverse
from .groupring import RingElt


class Leaf:
    __slots__ = ("elem",)

    def __init__(self, elem):
        self.elem = elem

    def is_leaf(self):
        return True

    def __repr__(self):
        return f"Leaf({self.elem})"


class Node:
    __slots__ = ("alpha", "beta", "level")

    def __init__(self, alpha, beta, level):
        if not beta:
            raise ValueError("fraction denominator must be nonzero")
        self.alpha = list(alpha)
        self.beta = list(beta)
        self.level = level

    def is_leaf(self):
        return False

    def __repr__(self):
        return f"Node(level={self.level}, |alpha|={len(self.alpha)}, |beta|={len(self.beta)})"


def nodes(frac):
    """Iterate all Node instances of a fraction tree, depth-first."""
    if frac.is_leaf():
        return
    yield frac
    for coeff, _ in list(frac.alpha) + list(frac.beta):
        yield from nodes(coeff)


def support_vectors(node, group):
    """Distinct level-`node.level` exponent vectors of supp(alpha) u supp(beta)."""
    seen = []
    for _, g in list(node.alpha) + list(node.beta):
        v = group.level_vector(g, node.level)
        if v not in seen:
            seen.append(v)
    return seen


# -- building iterated fractions ------------------------------------------

def split_at_level(group, g, level):
    """g = prefix * suffix with prefix the level-`level` syllables."""
    prefix = tuple((i, e) for i, e in g if group.levels[i] == level)
    suffix = tuple((i, e) for i, e in g if group.levels[i] > level)
    return prefix, suffix


def scalar_leaf(ring, value):
    return Leaf(ring.monomial(value, ()))


def level_entries(x, level):
    """Node entries [(coefficient, prefix)] of a finite element none of whose
    terms is shallower than `level`: terms grouped by their level-`level`
    syllables, each group's deeper rest nested by frac_from_ring_elt."""
    group = x.ring.group
    classes = {}
    for g in x.support():
        prefix, suffix = split_at_level(group, g, level)
        classes.setdefault(prefix, []).append((suffix, x.terms[g]))
    return [(frac_from_ring_elt(x.ring.from_terms(classes[prefix])), prefix)
            for prefix in sorted(classes, key=group.sort_key)]


def frac_from_ring_elt(x):
    """Canonical nested tree of a finite element: one node per level,
    deeper parts becoming coefficient fractions, scalars becoming leaves."""
    if x.is_scalar():
        return Leaf(x)
    level = min(x.ring.group.leading_level(g) for g in x.terms)
    return Node(level_entries(x, level), [(scalar_leaf(x.ring, x.ring.field.one), ())], level)


def frac_invert(frac):
    """Invert a fraction or finite element; swaps numerator and denominator."""
    if isinstance(frac, RingElt):
        frac = Leaf(frac)
    if frac.is_leaf():
        x = frac.elem
        if x.is_zero():
            raise ZeroInverse("cannot invert zero")
        if x.is_scalar():
            return scalar_leaf(x.ring, x.ring.field.inv(x.terms[()]))
        nested = frac_from_ring_elt(x)
        return Node([(scalar_leaf(x.ring, x.ring.field.one), ())], nested.alpha, nested.level)
    if not frac.alpha:
        raise ZeroInverse("cannot invert a zero fraction")
    return Node(frac.beta, frac.alpha, frac.level)
