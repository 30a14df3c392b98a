"""Rational characters, multicharacters and lexicographic bi-orders.

A character on level i assigns a rational value to each level-i generator,
defining a homomorphism Q_i/Q_{i+1} -> Q.  A multicharacter is one character
per level.  A LexOrder totally orders the group: each level carries a stack
of character rows (user rows first, then standard-basis tiebreak rows), and
an element is positive when the first nonzero row value at its shallowest
nonzero level is positive.  Rational values can never be injective on a
lattice of rank >= 2, so the tiebreak rows are what make the order total;
they play the role of an irrational perturbation, exactly.
"""

from fractions import Fraction
from math import gcd

from . import iterfrac
from .errors import (Infeasible, MismatchedCharacter, MismatchedGroup, ParseError,
                     UnknownGenerator)
from .fields import QQ, parse_rational
from .groupring import read_indexed, read_lines

LESS, EQUAL, GREATER = -1, 0, 1


class MultiChar:
    """One character per level of a PcGroup's stored central series.

    `components[i]` is the list of chi_i's values on the level-i generators,
    kept in the canonical form of `fields.Rationals`: an int when integral,
    else a reduced Fraction.  Integral characters then give int degrees, and
    an int prints like the equal Fraction.
    """

    def __init__(self, group, components):
        if len(components) != group.nlevels:
            raise MismatchedGroup("component count must equal the series length")
        self.group = group
        self.components = [[QQ.coerce(v) for v in comp] for comp in components]
        for i, values in enumerate(self.components):
            if len(values) != len(group.level_gens[i]):
                raise MismatchedGroup(f"level {i} expects {len(group.level_gens[i])} values")
        # (level, value) per generator index; generators are numbered level by level
        self._weights = [(i, v) for i, comp in enumerate(self.components) for v in comp]

    def deg(self, elt):
        """Degree tuple of a normal form: chi_i applied per level syllable."""
        d = [0] * len(self.components)
        weights = self._weights
        for g, e in elt:
            level, v = weights[g]
            d[level] += v * e
        return tuple(d)

    def with_signs(self, signs):
        """Componentwise sign flip; signs is a list of +1/-1 per level."""
        if len(signs) != len(self.components) or any(s not in (1, -1) for s in signs):
            raise MismatchedCharacter(f"expected one sign +1 or -1 per level "
                                      f"({len(self.components)} in all), got {list(signs)}")
        comps = [[s * v for v in comp]
                 for s, comp in zip(signs, self.components)]
        return MultiChar(self.group, comps)

    def is_zero(self):
        return all(v == 0 for comp in self.components for v in comp)

    def __repr__(self):
        vals = "; ".join(
            " ".join(f"{g}={v}" for g, v in zip(self.group.level_gens[i], comp))
            for i, comp in enumerate(self.components))
        return f"MultiChar({vals})"


class LexOrder:
    """Total bi-invariant order, lexicographic along the stored series."""

    def __init__(self, group, primary_rows=None):
        """primary_rows: dict mapping a level to a list of rational rows.

        Standard basis rows are appended at each level, so the row stack
        always spans and the order is total.
        """
        self.group = group
        primary_rows = primary_rows or {}
        self.rows = []
        for i in range(group.nlevels):
            k = len(group.level_gens[i])
            rows = [list(map(Fraction, r)) for r in primary_rows.get(i, [])]
            for r in rows:
                if len(r) != k:
                    raise MismatchedGroup(f"level {i} rows must have length {k}")
            for j in range(k):
                rows.append([Fraction(1 if t == j else 0) for t in range(k)])
            self.rows.append(rows)

    def vector_key(self, level, vec):
        return tuple(sum((c * x for c, x in zip(row, vec)), Fraction(0))
                     for row in self.rows[level])

    def sign_of(self, elt):
        """-1, 0, +1: position of elt relative to the identity."""
        if not elt:
            return EQUAL
        lvl = self.group.leading_level(elt)
        key = self.vector_key(lvl, self.group.level_vector(elt, lvl))
        for v in key:
            if v > 0:
                return GREATER
            if v < 0:
                return LESS
        raise AssertionError("spanning rows cannot all vanish on a nonzero vector")

    def compare(self, g, h):
        if not isinstance(g, tuple) or not isinstance(h, tuple):
            raise MismatchedGroup("compare expects normal forms")
        return self.sign_of(self.group.mul(self.group.inv(h), g))


# -- feasibility of strict linear inequalities ---------------------------

def _floor(x):
    return x.numerator // x.denominator


def _simplest_in_open(lo, hi):
    """Simplest rational strictly between lo < hi (either may be None);
    solve_strict checks lo < hi, and both recursions keep it."""
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        if hi > 0:
            return Fraction(0)
        return Fraction(_floor(hi) if _floor(hi) < hi else _floor(hi) - 1)
    if hi is None:
        if lo < 0:
            return Fraction(0)
        return Fraction(_floor(lo) + 1)
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -_simplest_in_open(-hi, -lo)
    # now 0 <= lo < hi
    m = _floor(lo)
    if m + 1 < hi:
        return Fraction(m + 1)
    # all candidates share the integer part m; recurse on the reciprocal
    inner = _simplest_in_open(1 / (hi - m), None if lo == m else 1 / (lo - m))
    return m + 1 / inner


def solve_strict(diffs, rank):
    """A rational v with v . d > 0 for every difference vector d.

    Fourier-Motzkin elimination from the last variable down, then
    back-substitution picking the simplest rational inside each interval;
    the result is scaled to the primitive integer vector of the same ray.
    Raises Infeasible when the system has no solution.
    """
    diffs = [list(map(Fraction, d)) for d in diffs]
    systems = [None] * rank
    current = diffs
    for k in range(rank - 1, 0, -1):
        systems[k] = current
        nxt = []
        pos, neg = [], []
        for d in current:
            if all(x == 0 for x in d):
                raise Infeasible("derived constraint 0 > 0")
            if d[k] > 0:
                pos.append(d)
            elif d[k] < 0:
                neg.append(d)
            else:
                nxt.append(d)
        for p in pos:
            for q in neg:
                comb = [(-q[k]) * a + p[k] * b for a, b in zip(p, q)]
                nxt.append(comb)
        current = nxt
    systems[0] = current
    for d in systems[0]:
        if all(x == 0 for x in d):
            raise Infeasible("derived constraint 0 > 0")

    x = [Fraction(0)] * rank
    for k in range(rank):
        lo = hi = None
        for d in systems[k]:
            if d[k] == 0:
                continue
            bound = -sum((d[i] * x[i] for i in range(k)), Fraction(0)) / d[k]
            if d[k] > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None and not lo < hi:
            raise Infeasible("empty interval during back-substitution")
        x[k] = _simplest_in_open(lo, hi)
    # scale to a primitive integer vector
    den = 1
    for v in x:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in x]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return [Fraction(v) for v in ints]


def fit_character(lattice_rank, chain):
    """Rational v with <v, chain[k]> strictly increasing along the chain.

    The chain entries are integer vectors of the given rank; an Infeasible
    error signals that no homomorphism to R realizes the chain.
    """
    if lattice_rank < 1:
        raise MismatchedGroup(f"lattice rank must be at least 1, got {lattice_rank}")
    chain = [list(p) for p in chain]
    for p in chain:
        if len(p) != lattice_rank:
            raise MismatchedGroup("chain entry of wrong rank")
    if len(chain) <= 1:
        return [Fraction(1 if i == 0 else 0) for i in range(lattice_rank)]
    diffs = [[b - a for a, b in zip(p, q)] for p, q in zip(chain, chain[1:])]
    return solve_strict(diffs, lattice_rank)


def fit_multicharacter(fracs, group, order):
    """A multicharacter compatible with every given iterated fraction.

    Works by reverse induction on levels: the sorted supports of all
    level-i nodes yield strict inequalities for chi_i, solved exactly;
    levels without nodes get the zero component.
    """
    per_level = [[] for _ in range(group.nlevels)]
    for f in fracs:
        for node in iterfrac.nodes(f):
            vecs = iterfrac.support_vectors(node, group)
            if len(vecs) >= 2:
                vecs = sorted(vecs, key=lambda v: order.vector_key(node.level, v))
                per_level[node.level].extend(
                    [b - a for a, b in zip(p, q)] for p, q in zip(vecs, vecs[1:]))
    comps = []
    for i in range(group.nlevels):
        k = len(group.level_gens[i])
        if per_level[i]:
            comps.append(solve_strict(per_level[i], k))
        else:
            comps.append([Fraction(0)] * k)
    return MultiChar(group, comps)


def is_compatible(chi, frac, order=None):
    """Does chi strictly preserve the order on every node support of frac?

    With an explicit LexOrder the check is literal strict preservation.
    Without one, the chi-induced order (chi value, then deterministic
    basis tiebreak) is used, under which compatibility is equivalent to
    chi being injective on each node's support.
    """
    return failing_node(chi, frac, order) is None


def failing_node(chi, frac, order=None):
    """First node of frac on which chi is incompatible, or None."""
    for node in iterfrac.nodes(frac):
        vecs = iterfrac.support_vectors(node, chi.group)
        comp = chi.components[node.level]
        values = [sum(c * x for c, x in zip(comp, v)) for v in vecs]
        if order is not None:
            keyed = sorted(zip(vecs, values),
                           key=lambda pair: order.vector_key(node.level, pair[0]))
            if any(not u < w for (_, u), (_, w) in zip(keyed, keyed[1:])):
                return node
        elif len(set(values)) != len(values):
            return node
    return None


# -- .mchar text format ---------------------------------------------------

def parse_mchar(text, group):
    """Parse 'char <i>: <gen>=<rational> ...' lines, at most one per level,
    into a MultiChar; a generator no line assigns reads 0."""
    comps = [[Fraction(0)] * len(group.level_gens[i]) for i in range(group.nlevels)]
    seen = set()
    for ln, _, rest in read_lines(text, ("char",)):
        lvl, body = read_indexed(rest, "char <i>: <gen>=<rational> ...", ln)
        if not 0 <= lvl < group.nlevels:
            raise ParseError(f"level {lvl} out of range", ln)
        if lvl in seen:
            raise ParseError(f"duplicate char line for level {lvl}", ln)
        seen.add(lvl)
        assigned = set()
        for assign in body.split():
            name, _, val = assign.partition("=")
            if not val:
                raise ParseError(f"expected <gen>=<rational>, got {assign!r}", ln)
            if name not in group.index:
                raise UnknownGenerator(f"unknown generator {name!r}", ln)
            if name in assigned:
                raise ParseError(f"generator {name!r} assigned twice", ln)
            assigned.add(name)
            if name not in group.level_gens[lvl]:
                raise ParseError(f"generator {name} is not at level {lvl}", ln)
            comps[lvl][group.level_gens[lvl].index(name)] = parse_rational(val, ln)
    return MultiChar(group, comps)


def format_mchar(chi):
    lines = []
    for i, comp in enumerate(chi.components):
        assigns = " ".join(f"{g}={v}" for g, v in zip(chi.group.level_gens[i], comp))
        lines.append(f"char {i}: {assigns}")
    return "\n".join(lines) + "\n"
