"""Sparse group-ring arithmetic over exact fields, for two group backends.

The pc backend multiplies group parts by collection; the free backend (words
in a finitely generated free group) multiplies by concatenation with free
reduction.  Free words are finite representatives of elements of any group
the free group maps onto, which is how the homology module computes over a
presented group without normal forms.
"""

from .errors import MismatchedField, MismatchedGroup, ParseError, UnknownGenerator
from .fields import parse_rational


def parse_word(text, index, line=None):
    """Space-separated tokens 'g' or 'g^<int>' ('1' is skipped) as a list of
    (generator index, exponent); `index` maps names to indices and `line`
    goes into the error message."""
    word = []
    for tok in text.split():
        if tok == "1":
            continue
        name, caret, etxt = tok.partition("^")
        try:
            e = int(etxt) if caret else 1
        except ValueError:
            raise ParseError(f"bad exponent in token {tok!r}", line)
        if name not in index:
            raise UnknownGenerator(f"unknown generator {name!r}", line)
        word.append((index[name], e))
    return word


class FreeGroup:
    """Free group on named generators; elements are reduced syllable tuples."""

    def __init__(self, names):
        self.gen_names = list(names)
        self.index = {g: i for i, g in enumerate(self.gen_names)}
        self.ngens = len(self.gen_names)
        self.name = "F(" + " ".join(names) + ")"

    def collect(self, word):
        """Free reduction into syllable normal form."""
        out = []
        for g, e in word:
            if e == 0:
                continue
            if out and out[-1][0] == g:
                e2 = out[-1][1] + e
                out.pop()
                if e2:
                    out.append((g, e2))
            else:
                out.append((g, e))
        return tuple(out)

    def mul(self, a, b):
        return self.collect(list(a) + list(b))

    def inv(self, a):
        return tuple((g, -e) for g, e in reversed(a))

    def generator(self, i):
        return ((i, 1),)

    def exponent_sums(self, a):
        v = [0] * self.ngens
        for g, e in a:
            v[g] += e
        return v

    def parse_word(self, text):
        return parse_word(text, self.index)

    def format_elt(self, elt):
        if not elt:
            return "1"
        return " ".join(self.gen_names[g] if e == 1 else f"{self.gen_names[g]}^{e}"
                        for g, e in elt)

    def sort_key(self, elt):
        return (len(elt), elt)

    def __repr__(self):
        return self.name


class GroupRing:
    def __init__(self, group, field):
        self.group = group
        self.field = field

    def zero(self):
        return RingElt(self, {})

    def one(self):
        return RingElt(self, {(): self.field.one})

    def monomial(self, coeff, g):
        coeff = self.field.coerce(coeff)
        if self.field.is_zero(coeff):
            return self.zero()
        return RingElt(self, {g: coeff})

    def from_terms(self, terms):
        clean = {}
        for g, coeff in terms:
            coeff = self.field.coerce(coeff)
            if g in clean:
                coeff = self.field.add(clean[g], coeff)
            clean[g] = coeff
        clean = {g: cf for g, cf in clean.items() if not self.field.is_zero(cf)}
        return RingElt(self, clean)

    def parse(self, text):
        return parse_ring_elt(text, self)

    def __eq__(self, other):
        return (isinstance(other, GroupRing) and other.group is self.group
                and other.field == self.field)

    def __hash__(self):
        return hash((id(self.group), self.field))

    def __repr__(self):
        return f"{self.field}[{self.group.name}]"


class RingElt:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _check(self, other):
        if self.ring.group is not other.ring.group:
            raise MismatchedGroup("elements of different groups")
        if self.ring.field != other.ring.field:
            raise MismatchedField("elements over different fields")

    def __add__(self, other):
        self._check(other)
        field = self.ring.field
        terms = dict(self.terms)
        for g, cf in other.terms.items():
            s = field.add(terms.get(g, field.zero), cf)
            if field.is_zero(s):
                terms.pop(g, None)
            else:
                terms[g] = s
        return RingElt(self.ring, terms)

    def __neg__(self):
        field = self.ring.field
        return RingElt(self.ring, {g: field.neg(cf) for g, cf in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return ring_mul(self, other)

    def scaled(self, coeff):
        field = self.ring.field
        coeff = field.coerce(coeff)
        if field.is_zero(coeff):
            return self.ring.zero()
        return RingElt(self.ring, {g: field.mul(coeff, cf) for g, cf in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def support(self):
        return sorted(self.terms, key=self.ring.group.sort_key)

    def __eq__(self, other):
        return (isinstance(other, RingElt) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return format_ring_elt(self)


def ring_mul(x, y):
    """Bilinear product; group parts composed in the backend group."""
    x._check(y)
    ring = x.ring
    group, field = ring.group, ring.field
    terms = {}
    for g, cg in x.terms.items():
        for h, ch in y.terms.items():
            k = group.mul(g, h)
            c = field.mul(cg, ch)
            if k in terms:
                c = field.add(terms[k], c)
            if field.is_zero(c):
                terms.pop(k, None)
            else:
                terms[k] = c
    return RingElt(ring, terms)


def augment(x):
    """Sum of coefficients: the augmentation kG -> k."""
    field = x.ring.field
    total = field.zero
    for cf in x.terms.values():
        total = field.add(total, cf)
    return total


def deg_tuple(chi, g):
    """Degree tuple of a normal form g against the multicharacter chi."""
    return chi.deg(g)


def format_ring_elt(x, order_key=None):
    if not x.terms:
        return "0"
    group, field = x.ring.group, x.ring.field
    keys = sorted(x.terms, key=order_key or group.sort_key)
    parts = []
    for g in keys:
        cf = x.terms[g]
        word = group.format_elt(g)
        mag = field.fmt(cf)
        neg = mag.startswith("-")
        if neg:
            mag = mag[1:]
        if word == "1":
            body = mag
        elif mag == "1":
            body = word
        else:
            body = f"{mag}*{word}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def parse_ring_elt(text, ring):
    """Parse '<coeff>*<word> + ...'; words may be unnormalized and are collected."""
    toks = text.split()
    if not toks:
        return ring.zero()
    terms = []
    sign = 1
    cur = []

    def flush(cur, sign):
        if not cur:
            raise ParseError("empty term in ring element")
        coeff = ring.field.one
        word_toks = list(cur)
        first = word_toks[0]
        if "*" in first:
            ctxt, _, rest = first.partition("*")
            coeff = ring.field.coerce(parse_rational(ctxt))
            word_toks[0] = rest
            if not rest:
                word_toks.pop(0)
        else:
            try:
                coeff = ring.field.coerce(parse_rational(first))
                word_toks.pop(0)
            except ValueError:
                if first.startswith("-"):
                    # a sign glued to a word token, as the printer emits
                    sign = -sign
                    word_toks[0] = first[1:]
        word = []
        for tok in word_toks:
            word.extend(ring.group.parse_word(tok))
        g = ring.group.collect(word)
        if sign < 0:
            coeff = ring.field.neg(coeff)
        terms.append((g, coeff))

    for tok in toks:
        if tok in ("+", "-"):
            if cur:
                flush(cur, sign)
                cur = []
                sign = 1
            if tok == "-":
                sign = -sign
            continue
        cur.append(tok)
    if cur:
        flush(cur, sign)
    return ring.from_terms(terms)
