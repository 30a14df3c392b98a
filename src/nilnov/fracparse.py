"""Iterated fractions from the literal grammar of groupring, with ^-1.

Builds iterated fractions from text like "(1 - (1 - c)^-1 a)^-1".  A node at
level l stands for A*B^-1 with A = sum a*u_p and B = sum b*u_q, each group
part p, q a normal form of level-l syllables and each coefficient a deeper
fraction.  Every group part is moved by one rule, c*u_g = (c*u_r)*u_p with
g = r*p and p the level-l syllables of g (`iterfrac.split_at_level`), and
with it:

    u_p*c = (u_p c u_p^-1)*u_p                  (left multiplication)
    x*(C D^-1) = (x*C)*D^-1                      (x a numerator, or deeper)
    (A B^-1)*y = A*(y^-1 B)^-1                   (y deeper, or a monomial)
    A B^-1 + y = (A + y*B)*B^-1                  (y a numerator, or deeper)

A numerator is a node with denominator 1 or a finite element.  Everything
else needs an Ore move, since fractions are user-supplied syntax with no
canonical form here: a sum of two same-level fractions with nontrivial
denominators, or a product of two same-level fractions whose left factor
has a nontrivial denominator (and whose right factor is not a monomial).
Those, and only those, raise UnsupportedFraction.
"""

from .errors import UnsupportedFraction
from .groupring import RingElt, RingOps, read_expr, ring_mul
from .iterfrac import Node, frac_invert, split_at_level


def parse_fraction_expr(text, ring):
    """Parse an expression into an iterated fraction over `ring`: a Node,
    or the finite element itself when no fraction is needed."""
    return read_expr(text, FractionOps(ring))


class FractionOps(RingOps):
    """Fraction operations for read_expr: values are finite elements or
    Nodes, and ^-1 of anything but a monomial builds a fraction."""

    def neg(self, x):
        return _scale(x, self.ring.field.neg(self.ring.field.one))

    def add(self, x, y):
        if isinstance(x, RingElt) and isinstance(y, RingElt):
            return x + y
        level = min(self._level(x), self._level(y))
        if self._denominator_at(y, level):
            x, y = y, x
        if not self._denominator_at(x, level):
            return Node(self._entries(x, level) + self._entries(y, level),
                        [(self.ring.one(), ())], level)
        if self._denominator_at(y, level):
            raise UnsupportedFraction(
                "sum of two same-level fractions with nontrivial denominators")
        # A B^-1 + y = (A + y*B)*B^-1
        y_times_b = self.mul(y, Node(x.beta, [(self.ring.one(), ())], level))
        return Node(x.alpha + self._entries(y_times_b, level), x.beta, level)

    def mul(self, x, y):
        ring = self.ring
        if isinstance(x, RingElt) and isinstance(y, RingElt):
            return ring_mul(x, y)
        if isinstance(x, RingElt) and x.is_scalar():
            return _scale(y, x.terms.get((), ring.field.zero))
        if isinstance(y, RingElt) and y.is_scalar():
            return _scale(x, y.terms.get((), ring.field.zero))
        level = min(self._level(x), self._level(y))
        one = [(ring.one(), ())]
        if self._denominator_at(y, level):  # x*(C D^-1) = (x*C)*D^-1
            x_times_c = self.mul(x, Node(y.alpha, one, level))
            return Node(self._entries(x_times_c, level), y.beta, level)
        if self._denominator_at(x, level):  # (A B^-1)*y = A*(y^-1 B)^-1
            if self._level(y) == level and not (isinstance(y, RingElt) and len(y.terms) == 1):
                raise UnsupportedFraction(
                    "product of two same-level fractions whose left factor "
                    "has a nontrivial denominator")
            y_inv_b = self.mul(self.invert(y), Node(x.beta, one, level))
            return Node(x.alpha, self._entries(y_inv_b, level), level)
        # both are numerators at `level`: a*u_p * c*u_q = (a * u_p c u_p^-1)*u_pq
        group = ring.group
        return Node([self._entry(self.mul(a, self._conj(c, p)), group.mul(p, q), level)
                     for a, p in self._entries(x, level)
                     for c, q in self._entries(y, level)], one, level)

    def invert(self, x):
        if isinstance(x, RingElt) and len(x.terms) == 1:
            return super().invert(x)
        return frac_invert(x)

    # -- moving group parts ---------------------------------------------

    def _entry(self, coeff, g, level):
        """coeff*u_g as a node entry at `level`: (coeff*u_rest, prefix)."""
        prefix, rest = split_at_level(self.ring.group, g, level)
        if rest:
            coeff = self.mul(coeff, self.ring.monomial(self.ring.field.one, rest))
        return coeff, prefix

    def _conj(self, frac, g):
        """u_g frac u_g^-1, every conjugated group part moved by _entry."""
        if not g:
            return frac
        group = self.ring.group
        g_inv = group.inv(g)
        if isinstance(frac, RingElt):
            return self.ring.from_terms((group.mul(g, group.mul(h, g_inv)), cf)
                                        for h, cf in frac.terms.items())

        def conj_entries(entries):
            return [self._entry(self._conj(cf, g), group.mul(g, group.mul(h, g_inv)), frac.level)
                    for cf, h in entries]

        return Node(conj_entries(frac.alpha), conj_entries(frac.beta), frac.level)

    # -- levels and entries ---------------------------------------------

    def _level(self, value):
        if isinstance(value, RingElt):
            group = self.ring.group
            return min((group.leading_level(g) for g in value.terms), default=group.nlevels)
        return value.level

    def _denominator_at(self, value, level):
        """Is value a fraction at `level` with a nontrivial denominator?"""
        if isinstance(value, RingElt) or value.level != level:
            return False
        if len(value.beta) != 1:
            return True
        coeff, g = value.beta[0]
        return bool(g) or not (isinstance(coeff, RingElt)
                               and coeff.terms == {(): self.ring.field.one})

    def _entries(self, value, level):
        """A numerator at `level`, or a value deeper than it, as node
        entries [(coefficient, prefix)]."""
        if isinstance(value, RingElt):
            return [self._entry(self.ring.monomial(value.terms[g], ()), g, level)
                    for g in value.support()]
        if value.level > level:
            return [(value, ())]
        return list(value.alpha)


def _scale(value, coeff):
    """value with every numerator leaf scaled by coeff; denominators are kept."""
    if isinstance(value, RingElt):
        return value.scaled(coeff)
    return Node([(_scale(cf, coeff), g) for cf, g in value.alpha], value.beta, value.level)
