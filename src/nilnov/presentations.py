"""Finite presentations, Fox calculus, and low-class nilpotent quotients.

fox_complex builds the chain complex of the presentation 2-complex
0 -> P_2 -> P_1 -> P_0 with d1 = (g_i - 1) and d2 the Fox derivative
matrix, either projected to a quotient PcGroup's group ring or kept as
free-group-ring words (finite representatives of the presented group's
ring elements, with degree data supplied by the quotient map).

nilpotent_quotient computes the torsion-free class-1 or class-2 quotient
by collecting relators in the free class-c group and quotienting the
saturated relation lattices level by level.
"""

from . import intlinalg
from .errors import ClassUnsupported, ParseError, RelatorNotKilled
from .fields import QQ
from .groupring import FreeGroup, GroupRing, parse_word, ring_mul
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

    def free_ring(self, field=QQ):
        return GroupRing(self.free_group, field)

    def __repr__(self):
        return f"Presentation({self.name}, gens={self.gen_names}, {len(self.relators)} relators)"


def parse_presentation(text):
    """Parse the .fpg format: group/gens/rel lines, '#' comments."""
    name = "G"
    gens = None
    relators = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "group":
            if len(parts) != 2:
                raise ParseError("expected 'group <name>'", ln)
            name = parts[1]
        elif parts[0] == "gens":
            if gens is not None:
                raise ParseError("duplicate gens line", ln)
            if len(parts) < 2:
                raise ParseError("gens line lists no generators", ln)
            gens = parts[1:]
            index = {g: i for i, g in enumerate(gens)}
        elif parts[0] == "rel":
            if gens is None:
                raise ParseError("rel before gens", ln)
            relators.append(parse_word(" ".join(parts[1:]), index, ln))
        else:
            raise ParseError(f"unrecognized line {line!r}", ln)
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
    """Generator-wise map of a presentation onto a PcGroup."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = list(images)
        if len(self.images) != len(source.gen_names):
            raise RelatorNotKilled("one image per generator required")
        for r in source.relators:
            if self.apply_word(r):
                raise RelatorNotKilled(
                    f"relator {source.free_group.format_elt(r)} does not die")

    def apply_word(self, word):
        out = []
        for g, e in word:
            img = self.images[g]
            for gg, ee in img:
                out.append((gg, ee * e))
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
        """d1 . d2 == 0 (projected) resp. the Fox identity (free entries)."""
        P = self.presentation
        if self.projected:
            for row in self.d2:
                total = self.ring.zero()
                for i, entry in enumerate(row):
                    total = total + ring_mul(entry, self.d1[i])
                if not total.is_zero():
                    raise AssertionError("d1 . d2 != 0 after projection")
        else:
            for j, row in enumerate(self.d2):
                total = self.ring.zero()
                for i, entry in enumerate(row):
                    total = total + ring_mul(entry, self.d1[i])
                rhs = self.ring.monomial(self.ring.field.one, P.relators[j]) - self.ring.one()
                if not (total - rhs).is_zero():
                    raise AssertionError("Fox fundamental identity failed")
        return True


def fox_complex(presentation, qmap=None, field=QQ, project=True):
    """Fox chain complex; qmap=None (or "free") keeps free-group entries.

    With a qmap and project=False, entries stay free-group words while the
    quotient map is carried alongside for degree computations: this is the
    group-ring-faithful mode used by the Novikov homology runner.
    """
    P = presentation
    fg = P.free_group
    free_ring = GroupRing(fg, field)
    if qmap in (None, "free"):
        qmap_obj, project = None, False
    else:
        qmap_obj = qmap
    if project and qmap_obj is None:
        raise ValueError("projection requires a quotient map")
    d1_free = [free_ring.monomial(field.one, fg.generator(i)) - free_ring.one()
               for i in range(fg.ngens)]
    d2_free = [[fox_derivative(free_ring, r, i) for i in range(fg.ngens)]
               for r in P.relators]
    if project:
        ring = GroupRing(qmap_obj.target, field)
        d1 = [qmap_obj.apply_elt(x, ring) for x in d1_free]
        d2 = [[qmap_obj.apply_elt(x, ring) for x in row] for row in d2_free]
        cx = FreeChainComplex(P, ring, d1, d2, qmap_obj, True)
    else:
        cx = FreeChainComplex(P, free_ring, d1_free, d2_free, qmap_obj, False)
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
    """Torsion-free class-c quotient (c = 1 or 2) with its QuotientMap."""
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
        N.normal_close()
    Q, project = quotient_by_normal(F, N)
    images = [project(F.generator(i)) for i in range(len(P.gen_names))]
    return QuotientMap(P, Q, images)


def quotient_by_normal(F, N):
    """Quotient PcGroup of an adapted pc group by an isolated normal subgroup.

    Returns (Q, project) with project mapping F-normal-forms onto Q-normal
    forms.  Requires every level lattice of N to be saturated (guaranteed
    for class <= 2 by the isolator); otherwise the induced series does not
    have free quotients and ClassUnsupported is raised.
    """
    level_data = []
    for lvl in range(F.nlevels):
        k = len(F.level_gens[lvl])
        rows = N.level_lattice(lvl)
        rank = intlinalg.lattice_rank(rows, k) if rows else 0
        if rows:
            sat = intlinalg.saturate_rows(rows, k)
            if intlinalg.lattice_rank(sat, k) != rank or not _same_lattice(rows, sat, k):
                raise ClassUnsupported(
                    "quotient requires a non-induced central series (unsaturated level lattice)")
        D, _U, V = intlinalg.smith_normal_form(rows, len(rows), k) if rows else ([], [], intlinalg.identity(k))
        Vinv = intlinalg.invert_unimodular(V)
        level_data.append({"k": k, "rank": rank, "V": V, "Vinv": Vinv})

    def proj_vec(lvl, vec):
        data = level_data[lvl]
        out = [0] * data["k"]
        V = data["V"]
        for j in range(data["k"]):
            out[j] = sum(vec[i] * V[i][j] for i in range(data["k"]))
        return out[data["rank"]:]

    def lift_vec(lvl, coords):
        data = level_data[lvl]
        full = [0] * data["rank"] + list(coords)
        Vinv = data["Vinv"]
        return [sum(full[i] * Vinv[i][j] for i in range(data["k"])) for j in range(data["k"])]

    # quotient generator names, inheriting source names when lifts match
    new_levels = []
    lifts = []  # per level: list of F-elements generating the quotient coords
    for lvl in range(F.nlevels):
        data = level_data[lvl]
        names = []
        level_lifts = []
        for j in range(data["k"] - data["rank"]):
            lift = lift_vec(lvl, [1 if t == j else 0 for t in range(data["k"] - data["rank"])])
            level_lifts.append(F.elt_from_level_vector(lvl, lift))
            source = None
            for i, nm in enumerate(F.level_gens[lvl]):
                if lift == [1 if t == i else 0 for t in range(data["k"])]:
                    source = nm
                    break
            names.append(source if source is not None else f"q{lvl}_{j}")
        new_levels.append(names)
        lifts.append(level_lifts)

    # drop empty trailing levels
    while len(new_levels) > 1 and not new_levels[-1]:
        new_levels.pop()
        lifts.pop()
    if not new_levels[0]:
        new_levels = [[]]
        lifts = [[]]

    nlv = len(new_levels)

    def project(x):
        """F normal form -> Q normal form, level by level."""
        word = []
        rem = x
        for lvl in range(nlv):
            coords = proj_vec(lvl, F.level_vector(rem, lvl))
            base = sum(len(new_levels[t]) for t in range(lvl))
            for j, e in enumerate(coords):
                if e:
                    word.append((base + j, e))
            # peel off the lifted part and reduce by N before the next level
            peel = ()
            for j, e in enumerate(coords):
                if e:
                    peel = F.mul(peel, F.pow(lifts[lvl][j], e))
            rem = N.reduce(F.mul(F.inv(peel), rem))
        if N.reduce(rem):
            raise AssertionError("projection left an unreduced residue")
        return word

    # conjugation tails between new level-0 generators (class-2 case)
    tails = {}
    if nlv == 2:
        base1 = len(new_levels[0])
        for t in range(len(new_levels[0])):
            for s in range(t):
                w = F.comm(lifts[0][t], lifts[0][s])
                if not w:
                    continue
                coords = proj_vec(1, F.level_vector(N.reduce(w), 1))
                tail = [(base1 + j, e) for j, e in enumerate(coords) if e]
                if tail:
                    tails[(t, s)] = tail
    name = f"{F.name}_quotient"
    Q = PcGroup(name, new_levels, tails)

    def project_collect(x):
        return Q.collect(project(x))

    return Q, project_collect


def _same_lattice(rows_a, rows_b, n):
    return all(intlinalg.member_of_lattice(rows_b, r) for r in rows_a) and \
        all(intlinalg.member_of_lattice(rows_a, r) for r in rows_b)
