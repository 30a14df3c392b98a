"""Polycyclic presentations adapted to a central series.

A PcGroup stores named generators partitioned into levels and conjugation
relations y*x = x*y*w where x comes before y in the generator order and the
tail w uses only strictly deeper generators.  There are no power relations,
so every group here is torsion-free and the level-i generators freely span
the successive quotient Q_i/Q_{i+1}.

Elements are normal forms: tuples of (generator index, nonzero exponent)
with strictly increasing indices.  Collection from the left computes them.
"""

from . import intlinalg
from .errors import AdaptationError, ClassUnsupported, ParseError, UnknownGenerator
from .groupring import parse_word

Elt = tuple  # ((gen_index, exponent), ...) in normal form

IDENTITY: Elt = ()


def _inv_letters(letters):
    return [(g, -s) for g, s in reversed(letters)]


class PcGroup:
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
        # positive conjugation letters: pos[(y,x)] = letters of x^-1 y x
        self._pos = {}
        for (y, x), w in conj_tails.items():
            self._pos[(y, x)] = [(y, 1)] + self._expand(w)
        self._neg = self._build_neg_tables()
        self.conj_tails = {k: list(v) for k, v in conj_tails.items()}
        # central generators (no relation with a nonempty tail touches them)
        # enable the closed-form syllable conjugation used by collect
        touched = set()
        for (y, x), w in conj_tails.items():
            if w:
                touched.add(y)
                touched.add(x)
        self._central = set(range(self.ngens)) - touched
        self._central_tail = {
            pair: all(g in self._central for g, _ in w)
            for pair, w in conj_tails.items()
        }

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

    @staticmethod
    def _expand(word):
        letters = []
        for g, e in word:
            s = 1 if e > 0 else -1
            letters.extend([(g, s)] * abs(e))
        return letters

    def _build_neg_tables(self):
        """neg[(y,x)] = letters of x y x^-1, from deepest y upward."""
        neg = {}

        def psi(x, letters):
            out = []
            for z, t in letters:
                base = neg.get((z, x))
                if base is None:
                    base = [(z, 1)]
                out.extend(base if t == 1 else _inv_letters(base))
            return out

        pairs = sorted(self._pos, key=lambda p: (-self.levels[p[0]], -p[0]))
        for (y, x) in pairs:
            w_pos = self._pos[(y, x)][1:]
            neg[(y, x)] = [(y, 1)] + psi(x, _inv_letters(w_pos))
        return neg

    # -- collection ------------------------------------------------------

    def _conj_letter(self, letter, m, s):
        """letters of m^{-s} * letter * m^{s}; letter's gen is > m."""
        z, t = letter
        table = self._pos if s == 1 else self._neg
        base = table.get((z, m))
        if base is None:
            return [letter]
        return list(base) if t == 1 else _inv_letters(base)

    def _conj_syllable(self, z, t, m, e):
        """Syllables of m^{-e} z^t m^{e}.

        Central tails give the closed form z^t w^{e t}; otherwise fall back
        to letter-by-letter conjugation (exponentially slower, but only
        non-adapted-to-class-2 presentations reach it).
        """
        pair = (z, m)
        if pair not in self._pos or not any(e2 for _, e2 in self.conj_tails[pair]):
            return [(z, t)]
        if self._central_tail.get(pair):
            out = [(z, t)]
            for g, eg in self.conj_tails[pair]:
                out.append((g, eg * e * t))
            return out
        letters = [(z, 1 if t > 0 else -1)] * abs(t)
        step = 1 if e > 0 else -1
        for _ in range(abs(e)):
            nxt = []
            for letter in letters:
                nxt.extend(self._conj_letter(letter, m, step))
            letters = nxt
        return letters

    def collect(self, word):
        """Normal form of a word (iterable of (gen_index, exponent))."""
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
        return self.collect(list(a) + list(b))

    def inv(self, a):
        return self.collect([(g, -e) for g, e in reversed(a)])

    def pow(self, a, n):
        if n == 0:
            return IDENTITY
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = IDENTITY
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def comm(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        return self.collect(list(self.inv(a)) + list(self.inv(b)) + list(a) + list(b))

    def conj(self, a, t):
        """t^-1 a t."""
        return self.collect(list(self.inv(t)) + list(a) + list(t))

    def generator(self, i):
        return ((i, 1),)

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

    # -- text ------------------------------------------------------------

    def parse_word(self, text):
        return parse_word(text, self.index)

    def format_elt(self, elt):
        if not elt:
            return "1"
        parts = []
        for g, e in elt:
            parts.append(self.gen_names[g] if e == 1 else f"{self.gen_names[g]}^{e}")
        return " ".join(parts)

    def __repr__(self):
        return f"PcGroup({self.name}, {self.ngens} gens, {self.nlevels} levels)"

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)

    def sort_key(self, elt):
        """Deterministic total order on normal forms, for stable printing."""
        return tuple((g, e) for g, e in elt)


def parse_pc(text):
    """Parse the .pcg format; see the package README for the grammar."""
    name = None
    level_names = []
    conj_src = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("pcgroup"):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected 'pcgroup <name>'", ln)
            name = parts[1]
        elif line.startswith("level"):
            head, _, gens = line.partition(":")
            parts = head.split()
            if len(parts) != 2 or not gens.strip():
                raise ParseError("expected 'level <i>: <gen> ...'", ln)
            try:
                idx = int(parts[1])
            except ValueError:
                raise ParseError(f"bad level index {parts[1]!r}", ln)
            if idx != len(level_names):
                raise ParseError(f"levels must appear in order; got {idx}", ln)
            level_names.append(gens.split())
        elif line.startswith("conj"):
            conj_src.append((ln, line))
        else:
            raise ParseError(f"unrecognized line {line!r}", ln)
    if name is None:
        raise ParseError("missing 'pcgroup <name>' header")
    if not level_names:
        raise ParseError("no generator levels declared")

    flat = [g for lvl in level_names for g in lvl]
    index = {g: i for i, g in enumerate(flat)}
    tails = {}
    for ln, line in conj_src:
        head, _, tail = line.partition("=")
        parts = head.split()
        if len(parts) != 3:
            raise ParseError("expected 'conj <y> <x> = <word>'", ln)
        _, yname, xname = parts
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
        changed = False
        while x:
            g, e = x[0]
            p = self.pivots.get(g)
            if p is None:
                self.pivots[g] = x if e > 0 else G.inv(x)
                return True
            d = p[0][1]
            q = e // d
            x = G.mul(G.pow(p, -q), x)
            if not x:
                return changed
            if x[0][0] == g:
                # 0 < new leading exponent < d: Euclid swap
                self.pivots[g] = x
                x = p
                changed = True
        return changed

    def reduce(self, x):
        G = self.G
        while x:
            g, e = x[0]
            p = self.pivots.get(g)
            if p is None:
                return x
            d = p[0][1]
            if e % d:
                return x
            x = G.mul(G.pow(p, -(e // d)), x)
        return x

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

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.G is other.G and self.pivots == other.pivots


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
        if nxt.is_trivial():
            if gammas[-1].is_trivial():
                exceeded = True
        gammas.append(nxt)
    isolators = [isolator(group, g) for g in gammas]
    return LowerCentralSeries(group, gammas, isolators, exceeded)


def isolator(group, sub):
    """Isolator {g : g^n in sub} by level-wise lattice saturation.

    Saturates each level lattice and certifies every candidate root g by an
    exact membership check of g^d before accepting it; root corrections at
    deeper levels are solved linearly (exact for class <= 2 presentations).
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
                if intlinalg.member_of_lattice(rows, v):
                    continue
                dm = intlinalg.minimal_multiple_in_lattice(rows, v)
                if dm is None:
                    continue
                d, coeffs = dm
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

    def __len__(self):
        return len(self.terms)


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
