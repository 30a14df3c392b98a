"""Polycyclic presentations adapted to a central series.

A PcGroup stores named generators partitioned into levels and conjugation
relations y*x = x*y*w where x comes before y in the generator order and the
tail w uses only strictly deeper generators.  There are no power relations,
so every group here is torsion-free and the level-i generators freely span
the successive quotient Q_i/Q_{i+1}.

Elements are normal forms: tuples of (generator index, nonzero exponent)
with strictly increasing indices.  Collection from the left computes them.

When every tail is central (no tail uses a generator that occurs in a
relation with a nonempty tail; class <= 2, as for H3 and the class-2
quotients of nq), the product of two normal forms has a closed form and
`mul` computes it without collecting; see `PcGroup.mul`.  `collect` folds
any word into its normal form by the same rule, letter by letter.  Any
other group collects by the generic loop and multiplies by collection.
"""

from . import intlinalg
from .errors import AdaptationError, ClassUnsupported, ParseError, UnknownGenerator
from .groupring import WordSyntax, parse_word, read_indexed, read_lines

Elt = tuple  # ((gen_index, exponent), ...) in normal form

IDENTITY: Elt = ()


class PcGroup(WordSyntax):
    def __init__(self, name, level_names, conj_tails):
        """level_names: list of lists of generator names, by level.
        conj_tails: dict (y_index, x_index) -> word (list of (gen, exp))
        meaning y*x = x*y*w, for x earlier than y in the flat order.
        """
        self.name = name
        self.gen_names = [g for lvl in level_names for g in lvl]
        if len(set(self.gen_names)) != len(self.gen_names):
            raise ParseError("duplicate generator name")
        self.index = {g: i for i, g in enumerate(self.gen_names)}
        self.levels = []
        self.level_gens = [list(lvl) for lvl in level_names]
        for lvl_i, lvl in enumerate(level_names):
            self.levels.extend([lvl_i] * len(lvl))
        self.nlevels = len(level_names)
        self.ngens = len(self.gen_names)
        self._validate_tails(conj_tails)
        self.conj_tails = {k: list(v) for k, v in conj_tails.items()}
        # a generator in no relation with a nonempty tail is central; a tail
        # of central generators conjugates in closed form, any other tail
        # goes through _phi_image
        touched = set()
        for (y, x), w in conj_tails.items():
            if w:
                touched.update((y, x))
        self._noncentral = {pair for pair, w in conj_tails.items()
                            if any(g in touched for g, _ in w)}
        self._phi = {}  # (z, m, sign, k) -> phi_m^{sign 2^k}(z), see _phi_image
        # with every tail central, _tails_by_x[i] lists (j, normal form of
        # the tail of conj j i) for the nontrivial tails, and mul uses its
        # closed form
        self._tails_by_x = None
        if not self._noncentral:
            self._tails_by_x = [[] for _ in range(self.ngens)]
            for (y, x), w in conj_tails.items():
                w = self.collect(w)
                if w:
                    self._tails_by_x[x].append((y, w))

    # -- construction helpers -------------------------------------------

    def _validate_tails(self, conj_tails):
        for (y, x), w in conj_tails.items():
            if not (0 <= x < self.ngens and 0 <= y < self.ngens):
                raise UnknownGenerator(f"bad generator index in relation ({y},{x})")
            if x >= y:
                raise ParseError("conjugation relation must list the later generator first")
            ly = self.levels[y]
            for g, e in w:
                if e == 0:
                    raise ParseError("zero exponent in relation tail")
                if self.levels[g] <= ly:
                    raise AdaptationError(
                        f"tail generator {self.gen_names[g]} of conj "
                        f"{self.gen_names[y]} {self.gen_names[x]} is not strictly deeper")

    # -- collection ------------------------------------------------------

    def _conj_syllable(self, z, t, m, e):
        """Syllables of m^{-e} z^t m^{e} = phi_m^e(z)^t, for z after m.

        phi_m(x) = m^-1 x m is the conjugation automorphism.  A tail w of
        central generators gives the closed form z^t w^{e t}.  Otherwise
        phi_m^e(z) composes the memoised images phi_m^{+-2^k} of the set
        bits of |e|, and its t-th power is taken by binary powering.  Every
        image uses only generators after m, so the recursion through
        collect ends.
        """
        if (z, m) not in self._noncentral:
            return [(z, t)] + [(g, eg * e * t) for g, eg in self.conj_tails.get((z, m), ())]
        sign = 1 if e > 0 else -1
        image = ((z, 1),)
        bits, k = abs(e), 0
        while bits:
            if bits & 1:
                image = self._apply_phi(image, m, sign, k)
            bits >>= 1
            k += 1
        return self.pow(image, t)

    def _apply_phi(self, word, m, sign, k):
        """Normal form of phi_m^{sign 2^k}(w) for a word w in generators
        after m: the product of the t-th powers of its syllables' images."""
        out = []
        for z, t in word:
            if (z, m) in self._noncentral:
                out.extend(self.pow(self._phi_image(z, m, sign, k), t))
            else:
                out.extend(self._conj_syllable(z, t, m, sign << k))
        return self.collect(out)

    def _phi_image(self, z, m, sign, k):
        """Normal form of phi_m^{sign 2^k}(z) for a non-central tail.

        phi^{2^k} applies phi^{2^(k-1)} twice, and phi(z) = z w gives
        phi^-1(z) = z phi^-1(w)^-1.  Only these power-of-two images are
        memoised, so the cache holds at most ngens^2 * 2 * b entries, where
        b is the bit length of the largest conjugating exponent seen.
        """
        key = (z, m, sign, k)
        image = self._phi.get(key)
        if image is None:
            tail = self.conj_tails[(z, m)]
            if k:
                image = self._apply_phi(self._phi_image(z, m, sign, k - 1), m, sign, k - 1)
            elif sign == 1:
                image = self.collect([(z, 1)] + tail)
            else:
                image = self.collect([(z, 1)] + list(self.inv(self._apply_phi(tail, m, -1, 0))))
            self._phi[key] = image
        return image

    def collect(self, word):
        """Normal form of a word (iterable of (gen_index, exponent)).

        With every tail central the word is folded letter by letter into an
        exponent vector v: appending g_i^y to the normal form with exponents
        v moves g_i^y left past each g_j^(v_j), j > i, which leaves the
        central w_(j,i)^(v_j y); so v_i gains y and v gains v_j y w_(j,i) for
        each row (j, w_(j,i)) of i.  This is the rule of `mul`, exact for any
        word.  Any other group collects from the left: the least generator
        is moved to the front, conjugating the syllables it passes.
        """
        rows = self._tails_by_x
        if rows is not None:
            v = [0] * self.ngens
            for i, y in word:
                # no j in a row is central and tails touch only central
                # generators, so v[j] is the sum of g_j's exponents so far
                for j, w in rows[i]:
                    x = v[j]
                    if x:
                        xy = x * y
                        for g, t in w:
                            v[g] += xy * t
                v[i] += y
            return tuple([(g, e) for g, e in enumerate(v) if e])
        syls = [(g, e) for g, e in word if e]
        out = []
        while syls:
            m = min(g for g, _ in syls)
            e_total = 0
            rest = []
            for g, e in syls:
                if g == m:
                    if rest and e:
                        new_rest = []
                        for z, t in rest:
                            new_rest.extend(self._conj_syllable(z, t, m, e))
                        rest = new_rest
                    e_total += e
                else:
                    rest.append((g, e))
            if e_total:
                out.append((m, e_total))
            syls = rest
        return tuple(out)

    def mul(self, a, b):
        """Product of two normal forms.

        With every tail central, a = prod g_j^{x_j} and b = prod g_i^{y_i}
        multiply to the exponent vector x + y + sum_{i<j} x_j y_i w_(j,i),
        where w_(j,i) is the exponent vector of the tail of conj j i: moving
        g_i^{y_i} left past g_j^{x_j} leaves w_(j,i)^{x_j y_i}, and a central
        tail commutes with everything, so the tails only add up.  This is
        exact, not an approximation of collection.  Any other group
        collects the concatenation.
        """
        rows = self._tails_by_x
        if rows is None:
            return self.collect(list(a) + list(b))
        if not a:
            return b
        if not b:
            return a
        v = [0] * self.ngens
        for g, x in a:
            v[g] = x
        for i, y in b:
            # v[j] is still x_j here: b's letters come in increasing order,
            # and tails only touch central generators, which have no row
            for j, w in rows[i]:
                x = v[j]
                if x:
                    xy = x * y
                    for g, t in w:
                        v[g] += xy * t
            v[i] += y
        return tuple([(g, e) for g, e in enumerate(v) if e])

    def inv(self, a):
        return self.collect([(g, -e) for g, e in reversed(a)])

    def pow(self, a, n):
        if n == 0:
            return IDENTITY
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = IDENTITY
        base = a
        while True:
            if n & 1:
                result = self.mul(result, base)
            n >>= 1
            if not n:
                return result
            base = self.mul(base, base)

    def comm(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        return self.collect(list(self.inv(a)) + list(self.inv(b)) + list(a) + list(b))

    def conj(self, a, t):
        """t^-1 a t."""
        return self.collect(list(self.inv(t)) + list(a) + list(t))

    # -- coordinates -----------------------------------------------------

    def leading_level(self, elt):
        return self.levels[elt[0][0]] if elt else self.nlevels

    def level_vector(self, elt, level):
        names = self.level_gens[level]
        if not names:
            return []
        base = self.index[names[0]]
        v = [0] * len(names)
        for g, e in elt:
            if self.levels[g] == level:
                v[g - base] = e
        return v

    def elt_from_level_vector(self, level, vec):
        names = self.level_gens[level]
        if not names:
            return ()
        base = self.index[names[0]]
        return tuple((base + i, e) for i, e in enumerate(vec) if e)

    def __repr__(self):
        return f"PcGroup({self.name}, {self.ngens} gens, {self.nlevels} levels)"

    def sort_key(self, elt):
        """Deterministic total order on normal forms, for stable printing."""
        return tuple((g, e) for g, e in elt)


def parse_pc(text):
    """Parse the .pcg format (grammar in the package README): one 'pcgroup'
    line, 'level <i>: <gen> ...' lines in order of i, and 'conj' lines."""
    name = None
    level_names = []
    conj_src = []
    for ln, keyword, rest in read_lines(text, ("pcgroup", "level", "conj"), once=("pcgroup",)):
        if keyword == "pcgroup":
            if len(rest.split()) != 1:
                raise ParseError("expected 'pcgroup <name>'", ln)
            name = rest
        elif keyword == "level":
            idx, gens = read_indexed(rest, "level <i>: <gen> ...", ln)
            if idx != len(level_names):
                raise ParseError(f"levels must appear in order; got {idx}", ln)
            if not gens.split():
                raise ParseError(f"level {idx} lists no generators", ln)
            level_names.append(gens.split())
        else:
            conj_src.append((ln, rest))
    if name is None:
        raise ParseError("missing 'pcgroup <name>' header")
    if not level_names:
        raise ParseError("no generator levels declared")

    index = {g: i for i, g in enumerate(sum(level_names, []))}
    tails = {}
    for ln, rest in conj_src:
        head, equals, tail = rest.partition("=")
        parts = head.split()
        if not equals or len(parts) != 2:
            raise ParseError("expected 'conj <y> <x> = <word>'", ln)
        yname, xname = parts
        for nm in (yname, xname):
            if nm not in index:
                raise UnknownGenerator(f"unknown generator {nm!r}", ln)
        y, x = index[yname], index[xname]
        if x >= y:
            raise ParseError(f"'conj {yname} {xname}': {xname} must come earlier", ln)
        if (y, x) in tails:
            raise ParseError(f"duplicate relation for ({yname},{xname})", ln)
        tails[(y, x)] = parse_word(tail, index, ln)
    return PcGroup(name, level_names, tails)


class Subgroup:
    """Echelon ("induced polycyclic") generating sequence for a subgroup.

    pivots maps a leading generator index to an element with positive
    leading exponent.  After close() the sequence is closed under pivot
    commutators, so reduce-based membership is exact.
    """

    def __init__(self, group, gens=()):
        self.G = group
        self.pivots = {}
        for g in gens:
            self.insert(g)
        if gens:
            self.close()

    @classmethod
    def whole(cls, group):
        s = cls(group)
        for i in range(group.ngens):
            s.pivots[i] = group.generator(i)
        return s

    @classmethod
    def trivial(cls, group):
        return cls(group)

    def copy(self):
        s = Subgroup(self.G)
        s.pivots = dict(self.pivots)
        return s

    def pivot_list(self):
        return [self.pivots[g] for g in sorted(self.pivots)]

    def is_trivial(self):
        return not self.pivots

    def insert(self, x):
        G = self.G
        while x:
            g, e = x[0]
            p = self.pivots.get(g)
            if p is None:
                self.pivots[g] = x if e > 0 else G.inv(x)
                return
            d = p[0][1]
            q = e // d
            x = G.mul(G.pow(p, -q), x)
            if x and x[0][0] == g:
                # 0 < new leading exponent < d: Euclid swap
                self.pivots[g] = x
                x = p

    def reduce(self, x):
        return self.reduce_with_coeffs(x)[0]

    def reduce_with_coeffs(self, x):
        """Reduce x, recording pivot exponents: x = prod pivots^q * residual.

        Returns (residual, {leading_gen: q}).  Coefficients are exact in the
        sense that x equals the left-ordered product of pivots^q times the
        residual in the order reductions were applied.
        """
        G = self.G
        coeffs = {}
        while x:
            g, e = x[0]
            p = self.pivots.get(g)
            if p is None or e % p[0][1]:
                return x, coeffs
            q = e // p[0][1]
            coeffs[g] = coeffs.get(g, 0) + q
            x = G.mul(G.pow(p, -q), x)
        return x, coeffs

    def contains(self, x):
        return not self.reduce(x)

    def close(self):
        """Close under pivot commutators (subgroup closure)."""
        G = self.G
        changed = True
        while changed:
            changed = False
            piv = self.pivot_list()
            for i in range(len(piv)):
                for j in range(i + 1, len(piv)):
                    c = G.comm(piv[i], piv[j])
                    if c and not self.contains(c):
                        self.insert(c)
                        changed = True

    def normal_close(self):
        """Close under conjugation by all group generators."""
        G = self.G
        self.close()
        changed = True
        while changed:
            changed = False
            for p in self.pivot_list():
                for i in range(G.ngens):
                    t = G.generator(i)
                    for c in (G.conj(p, t), G.conj(p, G.inv(t))):
                        if not self.contains(c):
                            self.insert(c)
                            changed = True
            if changed:
                self.close()

    def level_lattice(self, level):
        """Rows spanning the image of (self cap Q_level) in Q_level/Q_level+1."""
        rows = []
        for g in sorted(self.pivots):
            p = self.pivots[g]
            if self.G.levels[g] == level:
                rows.append(self.G.level_vector(p, level))
        return rows

    def describe(self):
        return [self.G.format_elt(p) for p in self.pivot_list()]


class LowerCentralSeries:
    def __init__(self, group, gammas, isolators, class_exceeded):
        self.group = group
        self.gammas = gammas
        self.isolators = isolators
        self.class_exceeded = class_exceeded


def lower_central_series(group, c):
    """gamma_0 = G, gamma_{i+1} = [G, gamma_i], with isolators, for i <= c."""
    if c < 1:
        raise ClassUnsupported("class bound must be >= 1")
    gammas = [Subgroup.whole(group)]
    exceeded = False
    for _ in range(c):
        prev = gammas[-1]
        if prev.is_trivial():
            exceeded = True
            gammas.append(Subgroup.trivial(group))
            continue
        nxt = Subgroup(group)
        for i in range(group.ngens):
            gen = group.generator(i)
            for p in prev.pivot_list():
                t = group.comm(gen, p)
                if t:
                    nxt.insert(t)
        nxt.normal_close()
        gammas.append(nxt)
    isolators = [isolator(group, g) for g in gammas]
    return LowerCentralSeries(group, gammas, isolators, exceeded)


def isolator(group, sub):
    """Isolator {g : g^n in sub} by level-wise lattice saturation.

    Saturates each level lattice and certifies every candidate root g by an
    exact membership check of g^d before accepting it; root corrections at
    deeper levels are solved linearly (exact for class <= 2 presentations).
    The level lattices of the result need not be saturated: x^d may be the
    product of an element of sub and a deeper element of infinite order
    modulo sub, and then x times any deeper element stays outside it.
    """
    I = sub.copy()
    I.close()
    changed = True
    while changed:
        changed = False
        for level in range(group.nlevels - 1, -1, -1):
            piv = [p for g, p in sorted(I.pivots.items()) if group.levels[g] == level]
            if not piv:
                continue
            rows = [group.level_vector(p, level) for p in piv]
            n = len(group.level_gens[level])
            for v in intlinalg.saturate_rows(rows, n):
                # v lies in the saturation, so some multiple lies in the
                # lattice; d == 1 means v is already a member
                d, coeffs = intlinalg.minimal_multiple_in_lattice(rows, v)
                if d == 1:
                    continue
                h = IDENTITY
                for p, cf in zip(piv, coeffs):
                    h = group.mul(h, group.pow(p, cf))
                g = _root_correct(group, I, group.elt_from_level_vector(level, v), d, h, level)
                if g is not None and not I.contains(g):
                    I.insert(g)
                    I.close()
                    changed = True
    return I


def _root_correct(group, sub, g, d, h, level):
    """Adjust g by deeper corrections so that g^d * h^-1 reduces into sub."""
    for j in range(level + 1, group.nlevels):
        resid = sub.reduce(group.mul(group.inv(group.pow(g, d)), h))
        if not resid:
            return g
        if group.leading_level(resid) < j:
            return None
        r = group.level_vector(resid, j)
        if not any(r):
            continue
        rows = sub.level_lattice(j)
        n = len(group.level_gens[j])
        y = intlinalg.solve_mod_lattice(d, [-x for x in r], rows, n)
        if y is None:
            return None
        g = group.mul(g, group.elt_from_level_vector(j, y))
    resid = sub.reduce(group.mul(group.inv(group.pow(g, d)), h))
    return g if not resid else None


class RefinementSeries:
    def __init__(self, group, terms):
        self.group = group
        self.terms = terms  # [whole, ..., trivial], each a Subgroup


def free_abelianization_refine(group):
    """Characteristic series with free abelian successive quotients.

    Iterates the kernel of K -> K^ab tensor Q, computed by integer normal
    forms on the commutator-relation exponents of the induced presentation.
    """
    terms = [Subgroup.whole(group)]
    guard = 0
    while not terms[-1].is_trivial():
        K = terms[-1]
        piv = K.pivot_list()
        order = sorted(K.pivots)
        pos = {g: i for i, g in enumerate(order)}
        rel_rows = []
        comms = []
        for i in range(len(piv)):
            for j in range(i + 1, len(piv)):
                c = group.comm(piv[j], piv[i])
                if not c:
                    continue
                comms.append(c)
                resid, coeffs = K.reduce_with_coeffs(c)
                if resid:
                    raise AssertionError("commutator escaped its subgroup")
                row = [0] * len(piv)
                for g, q in coeffs.items():
                    row[pos[g]] = q
                rel_rows.append(row)
        nxt = Subgroup(group)
        for row in intlinalg.saturate_rows(rel_rows, len(piv)):
            x = IDENTITY
            for k, e in enumerate(row):
                if e:
                    x = group.mul(x, group.pow(piv[k], e))
            nxt.insert(x)
        for c in comms:
            nxt.insert(c)
        if not nxt.is_trivial():
            nxt.normal_close()
        terms.append(nxt)
        guard += 1
        if guard > group.ngens + 1:
            raise AssertionError("refinement failed to terminate")
    return RefinementSeries(group, terms)
