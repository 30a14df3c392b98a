"""Finite presentations, Fox calculus, and low-class nilpotent quotients.

fox_complex builds the chain complex of the presentation 2-complex
0 -> P_2 -> P_1 -> P_0 with d1 = (g_i - 1) and d2 the Fox derivative
matrix, either projected to a quotient PcGroup's group ring or kept as
free-group-ring words (finite representatives of the presented group's
ring elements, with degree data supplied by the quotient map).

nilpotent_quotient computes the torsion-free class-1 or class-2 quotient
by collecting relators in the free class-c group and quotienting the
isolator of their normal closure level by level.  A level lattice of that
isolator that is not saturated is refused, since the induced series would
have a quotient with torsion.
"""

from . import intlinalg
from .errors import ClassUnsupported, MismatchedGroup, ParseError, RelatorNotKilled
from .fields import QQ
from .groupring import FreeGroup, GroupRing, dot, parse_word, read_lines
from .pcgroup import PcGroup, Subgroup, isolator


class Presentation:
    def __init__(self, name, gen_names, relators):
        self.name = name
        self.free_group = FreeGroup(gen_names)
        self.gen_names = list(gen_names)
        self.relators = [self.free_group.collect(r) for r in relators]
        for r in self.relators:
            if not r:
                raise ParseError("trivial relator after free reduction")

    def __repr__(self):
        return f"Presentation({self.name}, gens={self.gen_names}, {len(self.relators)} relators)"


def parse_presentation(text):
    """Parse the .fpg format: at most one 'group <name>' line (the name is G
    without one), one 'gens <gen> ...' line, then 'rel <word>' lines."""
    name = "G"
    gens = None
    relators = []
    for ln, keyword, rest in read_lines(text, ("group", "gens", "rel"), once=("group", "gens")):
        if keyword == "group":
            if len(rest.split()) != 1:
                raise ParseError("expected 'group <name>'", ln)
            name = rest
        elif keyword == "gens":
            gens = rest.split()
            if not gens:
                raise ParseError("gens line lists no generators", ln)
            index = {g: i for i, g in enumerate(gens)}
            if len(index) < len(gens):
                dup = next(g for i, g in enumerate(gens) if index[g] != i)
                raise ParseError(f"generator {dup!r} listed twice", ln)
        elif gens is None:
            raise ParseError("rel before gens", ln)
        else:
            relators.append(parse_word(rest, index, ln))
    if gens is None:
        raise ParseError("missing gens line")
    return Presentation(name, gens, relators)


def fox_derivative(ring, word, gen):
    """d(word)/d(gen) in the free group ring: d(uv) = du + u dv."""
    fg = ring.group
    result = ring.zero()
    prefix = ()
    for g, e in word:
        step = 1 if e > 0 else -1
        for _ in range(abs(e)):
            if g == gen:
                if step > 0:
                    result = result + ring.monomial(ring.field.one, prefix)
                else:
                    result = result + ring.monomial(
                        ring.field.neg(ring.field.one), fg.mul(prefix, ((g, -1),)))
            prefix = fg.mul(prefix, ((g, step),))
    return result


class QuotientMap:
    """Homomorphism of a presentation onto a PcGroup, given on generators."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = list(images)
        if len(self.images) != len(source.gen_names):
            raise RelatorNotKilled("one image per generator required")
        pivots = Subgroup(target, self.images).pivots  # onto iff each pivots[i] starts x_i^1
        if any(i not in pivots or pivots[i][0][1] != 1 for i in range(target.ngens)):
            raise MismatchedGroup("the images do not generate the target: the map is not onto")
        for r in source.relators:
            if self.apply_word(r):
                raise RelatorNotKilled(
                    f"relator {source.free_group.format_elt(r)} does not die")

    def apply_word(self, word):
        """Image of a free word: the product of the images of its letters,
        g^e mapping to the e-th power of the image of g, collected once.
        The power of a one-syllable image x^k is x^(k e), written down
        without `PcGroup.pow`: such images are the common case on the
        free-word degree path, and a `pow` per letter made the median
        operation of the criterion-corpus benchmark 32% slower (2-core VM)."""
        out = []
        for g, e in word:
            img = self.images[g]
            if len(img) > 1:
                out.extend(self.target.pow(img, e))
            else:
                for x, k in img:
                    out.append((x, k * e))
        return self.target.collect(out)

    def apply_elt(self, x, ring):
        """Push a free-group-ring element into the target's group ring."""
        return ring.from_terms((self.apply_word(g), cf) for g, cf in x.terms.items())

    def __repr__(self):
        ims = ", ".join(f"{g}->{self.target.format_elt(i)}"
                        for g, i in zip(self.source.gen_names, self.images))
        return f"QuotientMap({ims})"


class FreeChainComplex:
    """0 -> P_2 -> P_1 -> P_0 over a group ring, from Fox calculus.

    d1 is the length-r1 list of entries (g_i - 1); d2 has one row per
    relator, entries d2[j][i] = dr_j/dg_i.  `projected` tells whether the
    entries live over the quotient PcGroup ring or the free group ring;
    `qmap` is retained either way (it carries the degree data).
    """

    def __init__(self, presentation, ring, d1, d2, qmap, projected):
        self.presentation = presentation
        self.ring = ring
        self.ranks = (1, len(d1), len(d2))
        self.d1 = d1
        self.d2 = d2
        self.qmap = qmap
        self.projected = projected

    def euler_characteristic(self):
        return self.ranks[0] - self.ranks[1] + self.ranks[2]

    def check_composite(self):
        """Every row j of d2 times d1 equals its exact value: zero over the
        quotient ring, r_j - 1 over free words (the Fox fundamental identity)."""
        ring = self.ring
        for j, row in enumerate(self.d2):
            value = ring.zero() if self.projected else (
                ring.monomial(ring.field.one, self.presentation.relators[j]) - ring.one())
            if not (dot(row, self.d1) - value).is_zero():
                raise AssertionError(f"d2 row {j} times d1 is not r_{j} - 1 (zero if projected)")
        return True


def fox_complex(presentation, qmap=None, field=QQ, project=True):
    """Fox chain complex; qmap=None keeps free-group entries.

    With a qmap and project=False, entries stay free-group words while the
    quotient map is carried alongside for degree computations: this is the
    group-ring-faithful mode used by the Novikov homology runner.  The
    qmap must be a quotient map of this presentation.
    """
    P = presentation
    if qmap is not None and qmap.source is not P:
        raise MismatchedGroup("the quotient map is not a map of this presentation")
    fg = P.free_group
    free_ring = GroupRing(fg, field)
    if qmap is None:
        project = False
    d1_free = [free_ring.monomial(field.one, fg.generator(i)) - free_ring.one()
               for i in range(fg.ngens)]
    d2_free = [[fox_derivative(free_ring, r, i) for i in range(fg.ngens)]
               for r in P.relators]
    if project:
        ring = GroupRing(qmap.target, field)
        d1 = [qmap.apply_elt(x, ring) for x in d1_free]
        d2 = [[qmap.apply_elt(x, ring) for x in row] for row in d2_free]
    else:
        ring, d1, d2 = free_ring, d1_free, d2_free
    cx = FreeChainComplex(P, ring, d1, d2, qmap, project)
    cx.check_composite()
    return cx


# -- nilpotent quotients ---------------------------------------------------

def free_class2_group(gen_names):
    """Free class-2 group: level-0 generators plus central commutators.

    The level-1 generator "[y,x]" equals y^-1 x^-1 y x, so the conjugation
    tail of the pair (y, x) is exactly that generator.
    """
    n = len(gen_names)
    comm_names = []
    tails = {}
    for j in range(n):
        for i in range(j):
            comm_names.append(f"[{gen_names[j]},{gen_names[i]}]")
    idx = 0
    for j in range(n):
        for i in range(j):
            tails[(j, i)] = [(n + idx, 1)]
            idx += 1
    return PcGroup("free_class2", [list(gen_names), comm_names] if comm_names else [list(gen_names)], tails)


def free_abelian_group(gen_names):
    return PcGroup("free_abelian", [list(gen_names)], {})


def nilpotent_quotient(presentation, c):
    """Torsion-free class-c quotient (c = 1 or 2) with its QuotientMap.
    The isolator I of the normal closure is normal: in class 2 a root p it
    inserts has p^d in I, so [p, x]^d = [p^d, x] is in I, and so is [p, x]
    (y -> [y, x] is a homomorphism, I's level-1 lattice saturated)."""
    if c not in (1, 2):
        raise ClassUnsupported(f"class {c} not supported (only 1 and 2)")
    P = presentation
    if c == 1:
        F = free_abelian_group(P.gen_names)
    else:
        F = free_class2_group(P.gen_names)
    N = Subgroup(F)
    for r in P.relators:
        N.insert(F.collect(r))
    if not N.is_trivial():
        N.normal_close()
        N = isolator(F, N)
    Q, project = quotient_by_normal(F, N)
    images = [project(F.generator(i)) for i in range(len(P.gen_names))]
    return QuotientMap(P, Q, images)


def quotient_by_normal(F, N):
    """Quotient PcGroup of an adapted pc group by an isolated normal subgroup.

    Returns (Q, project) with project mapping F-normal-forms onto Q-normal
    forms.  Each level is read off one diagonal form U*rows*V = D of the
    level lattice of N: the quotient coordinates of a level vector v are the
    entries of v*V past the rank, the rows of V^-1 past the rank are their
    lifts, and a lift that is a unit vector keeps its source name.  Requires
    every level lattice of N to be saturated; otherwise the induced series
    does not have free quotients and ClassUnsupported is raised.  The
    isolator does not ensure this in class 2: an x with x^d in N[F,F] may
    have no x z (z in [F,F]) with (x z)^d in N.
    """
    levels = []  # (level, columns of V past the rank, lifts, first Q index)
    names = []
    base = 0
    for lvl, gens in enumerate(F.level_gens):
        k = len(gens)
        rows = N.level_lattice(lvl)
        D, _U, V = intlinalg.diagonal_form(rows, len(rows), k)
        rank = sum(1 for i in range(min(len(rows), k)) if D[i][i])
        # the product of the nonzero D_ii is the index of the lattice in its
        # saturation, so the lattice is saturated iff each of them is 1
        if any(D[i][i] != 1 for i in range(rank)):
            raise ClassUnsupported(
                "quotient requires a non-induced central series (unsaturated level lattice)")
        lifts = intlinalg.invert_unimodular(V)[rank:]
        unit_names = {tuple(row): g for row, g in zip(intlinalg.identity(k), gens)}
        names.append([unit_names.get(tuple(row), f"q{lvl}_{j}") for j, row in enumerate(lifts)])
        cols = [[V[i][j] for i in range(k)] for j in range(rank, k)]
        levels.append((lvl, cols, [F.elt_from_level_vector(lvl, row) for row in lifts], base))
        base += k - rank

    def project(x):
        """F normal form -> Q normal form, level by level."""
        word = []
        for lvl, cols, lifts, base in levels:
            vec = F.level_vector(x, lvl)
            coords = [sum(a * b for a, b in zip(vec, col)) for col in cols]
            word.extend((base + j, e) for j, e in enumerate(coords) if e)
            # peel off the lifted part and reduce by N before the next level
            peel = ()
            for lift, e in zip(lifts, coords):
                peel = F.mul(peel, F.pow(lift, e))
            x = N.reduce(F.mul(F.inv(peel), x))
        if x:
            raise AssertionError("projection left an unreduced residue")
        return tuple(word)

    # conjugation tails between the level-0 generators of Q
    tops = levels[0][2]  # their lifts
    tails = {}
    for t in range(len(tops)):
        for s in range(t):
            tail = project(F.comm(tops[t], tops[s]))
            if tail:
                tails[(t, s)] = tail
    # a level left without generators is dropped
    Q = PcGroup(f"{F.name}_quotient", [lvl for lvl in names if lvl] or [[]], tails)
    return Q, project
