"""Truncated elements of the nested Novikov ring, with certified inversion.

A NovSeries is a finite body plus the promise "unspecified terms at or
beyond the frontier".  A term is retained when its degree tuple is inside
the box (every coordinate strictly below the frontier); the lexicographic
order on degree tuples is used whenever a minimal term is needed.  There is
no degree calculus across levels, so nothing is trusted to degree
arithmetic: inversion and expansion verify an explicit residual certificate
and refuse to return unverified results.
"""

import os
from fractions import Fraction

from .charorder import failing_node
from .errors import (CertificateFailure, IncompatibleCharacter,
                     MismatchedCharacter, NoStrictMinimum,
                     TruncationInsufficient, UnsupportedFraction)
from .groupring import RingElt, format_ring_elt, ring_mul
# the fraction builders live in iterfrac; tests also import these two from here
from .iterfrac import frac_invert, scalar_leaf  # noqa: F401

DEFAULT_M_MAX = 64
DEFAULT_FRONTIER_ENTRY = 8


def default_m_max():
    value = os.environ.get("NILNOV_MMAX")
    if not value:
        return DEFAULT_M_MAX
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"NILNOV_MMAX must be an integer, got {value!r}")


class Trunc:
    """Truncation data: frontier degree box and geometric-series cap."""

    def __init__(self, frontier, m_max=None):
        self.frontier = tuple(Fraction(t) for t in frontier)
        self.m_max = m_max if m_max is not None else default_m_max()
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")

    def retains(self, deg):
        return all(d < t for d, t in zip(deg, self.frontier))

    def coarser(self, other):
        return Trunc([min(a, b) for a, b in zip(self.frontier, other.frontier)],
                     min(self.m_max, other.m_max))

    def doubled(self):
        return Trunc([2 * t for t in self.frontier], 2 * self.m_max)

    def widened(self, shift):
        """Frontier raised by max(0, shift_i) per coordinate, same cap."""
        return Trunc([t + max(Fraction(0), s) for t, s in zip(self.frontier, shift)],
                     self.m_max)

    def __eq__(self, other):
        return (isinstance(other, Trunc) and self.frontier == other.frontier
                and self.m_max == other.m_max)

    def __repr__(self):
        return f"Trunc({','.join(str(t) for t in self.frontier)}; m_max={self.m_max})"


class NovContext:
    """Degree bookkeeping: multicharacter, truncation, optional projection.

    With a pc backend the degree of a normal form is chi.deg; with a free
    backend, words are first pushed through `project` (a callable returning
    a normal form in chi's group) and then measured.
    """

    def __init__(self, chi, trunc, project=None):
        if len(trunc.frontier) != chi.group.nlevels:
            raise MismatchedCharacter(
                f"frontier has {len(trunc.frontier)} entries, "
                f"the multicharacter has {chi.group.nlevels} levels")
        self.chi = chi
        self.trunc = trunc
        self.project = project
        self._cache = {}

    def deg(self, g):
        d = self._cache.get(g)
        if d is None:
            d = self.chi.deg(self.project(g) if self.project else g)
            self._cache[g] = d
        return d

    def with_trunc(self, trunc):
        ctx = NovContext(self.chi, trunc, self.project)
        ctx._cache = self._cache
        return ctx

    def compatible(self, other):
        return self.chi.group is other.chi.group and \
            [c.values for c in self.chi.components] == [c.values for c in other.chi.components] and \
            self.project is other.project


class NovSeries:
    """body + O(frontier); `nonneg` records that every retained support
    degree is lexicographically >= 0, the precondition under which
    truncated multiplication is exact below the frontier."""

    __slots__ = ("ctx", "body", "nonneg")

    def __init__(self, ctx, body, nonneg=None):
        self.ctx = ctx
        self.body = body
        if nonneg is None:
            zero = tuple(Fraction(0) for _ in ctx.trunc.frontier)
            nonneg = all(ctx.deg(g) >= zero for g in body.terms)
        self.nonneg = nonneg

    def __repr__(self):
        return format_series(self)


def truncate_elt(ctx, elt):
    trunc = ctx.trunc
    keep = {g: cf for g, cf in elt.terms.items() if trunc.retains(ctx.deg(g))}
    return RingElt(elt.ring, keep)


def series_from_elt(ctx, elt):
    return NovSeries(ctx, truncate_elt(ctx, elt))


def beyond_frontier(ctx, elt):
    """True when every term of elt sits at or beyond the frontier box."""
    return all(not ctx.trunc.retains(ctx.deg(g)) for g in elt.terms)


def nov_mul(x, y):
    if not x.ctx.compatible(y.ctx):
        raise MismatchedCharacter("operands carry different multicharacters")
    ctx = x.ctx.with_trunc(x.ctx.trunc.coarser(y.ctx.trunc))
    prod = ring_mul(x.body, y.body)
    return NovSeries(ctx, truncate_elt(ctx, prod),
                     nonneg=x.nonneg and y.nonneg)


def minimal_term(ctx, elt):
    """(group, coeff, deg) of the unique lex-minimal degree term.

    Raises NoStrictMinimum when the body is empty or the minimum is
    attained more than once.
    """
    best = None
    count = 0
    for g in elt.support():
        d = ctx.deg(g)
        if best is None or d < best[2]:
            best = (g, elt.terms[g], d)
            count = 1
        elif d == best[2]:
            count += 1
    if best is None:
        raise NoStrictMinimum("cannot invert an empty body")
    if count > 1:
        raise NoStrictMinimum(
            f"minimal degree {tuple(map(str, best[2]))} attained {count} times")
    return best


def nov_invert(beta):
    """Certified inverse via the geometric-series decomposition.

    Writes beta = (1 - beta_plus) * beta_0 with beta_0 the unique minimal
    term, accumulates beta_0^-1 * sum beta_plus^m to the truncation, and
    verifies that beta * gamma - 1 has no term inside the frontier box.
    The certificate is mandatory; failures raise TruncationInsufficient.
    """
    ctx = beta.ctx
    body = beta.body
    ring = body.ring
    group, field = ring.group, ring.field
    q, r, _ = minimal_term(ctx, body)
    beta0_inv = ring.monomial(field.inv(r), group.inv(q))
    one = ring.one()
    beta_plus = one - ring_mul(body, beta0_inv)
    # Accumulate the geometric series at a frontier widened by however much
    # multiplying by beta_0^-1 can lower degrees, so that gamma is complete
    # below the stated frontier; gamma itself is not re-truncated (it may
    # carry a band of at-frontier terms, explicit slack from the O-tail).
    deg_inv = ctx.deg(group.inv(q))
    wctx = ctx.with_trunc(ctx.trunc.widened(tuple(-d for d in deg_inv)))
    S = one
    P = one
    for _ in range(ctx.trunc.m_max):
        P = truncate_elt(wctx, ring_mul(P, beta_plus))
        if P.is_zero():
            break
        S = S + P
    gamma = ring_mul(beta0_inv, S)
    # both residuals are checked: elimination multiplies by gamma on either side
    if not beyond_frontier(ctx, ring_mul(body, gamma) - one) or \
            not beyond_frontier(ctx, ring_mul(gamma, body) - one):
        raise TruncationInsufficient(
            "residual of the inversion certificate has terms inside the frontier; "
            "raise m_max or shrink the frontier")
    return NovSeries(ctx, gamma)


def expand(frac, chi, trunc):
    """Expand an iterated fraction into a truncated Novikov series.

    Compatibility of chi with the fraction is checked first; the expansion
    then proceeds deepest level first and verifies
    expand(beta) * result = expand(alpha) up to the frontier at every node.
    """
    node = failing_node(chi, frac)
    if node is not None:
        raise IncompatibleCharacter("multicharacter is not compatible with the fraction",
                                    node=node)
    ring = _leaf_ring(frac)
    if ring is None:
        raise UnsupportedFraction("fraction has no leaves to infer the ring from")
    ctx = NovContext(chi, trunc)
    return _expand_rec(frac, ctx, ring)


def _leaf_ring(frac):
    if frac.is_leaf():
        return frac.elem.ring
    for coeff, _ in list(frac.alpha) + list(frac.beta):
        ring = _leaf_ring(coeff)
        if ring is not None:
            return ring
    return None


def _expand_rec(frac, ctx, ring):
    """Expansion keeps bodies exact between nodes (truncation happens only
    inside the inversions); each node verifies beta*result = alpha up to
    the frontier before returning."""
    if frac.is_leaf():
        return NovSeries(ctx, frac.elem)
    A = _assemble(frac.alpha, ctx, ring)
    B = _assemble(frac.beta, ctx, ring)
    inv = nov_invert(NovSeries(ctx, B))
    body = ring_mul(A, inv.body)
    residual = ring_mul(B, body) - A
    if not beyond_frontier(ctx, residual):
        raise CertificateFailure(
            "node certificate failed: beta*result differs from alpha inside the frontier")
    return NovSeries(ctx, body)


def _assemble(entries, ctx, ring):
    total = ring.zero()
    for coeff, g in entries:
        cs = _expand_rec(coeff, ctx, ring)
        total = total + ring_mul(cs.body, ring.monomial(ring.field.one, g))
    return total


def format_series(ns):
    """Terms in lexicographic degree order with an explicit O(frontier) tail."""
    ctx = ns.ctx
    group = ns.body.ring.group
    tail = "O(" + ",".join(str(t) for t in ctx.trunc.frontier) + ")"
    if ns.body.is_zero():
        return tail
    body = format_ring_elt(ns.body, lambda g: (ctx.deg(g), group.sort_key(g)))
    return f"{body} + {tail}"
