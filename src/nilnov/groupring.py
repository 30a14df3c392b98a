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
        return read_expr(text, RingOps(self))

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

    def is_scalar(self):
        """Supported on the identity alone (zero included)."""
        return self.terms.keys() <= {()}

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


# -- literals ----------------------------------------------------------------
#
# Ring-element literals and iterated-fraction expressions share one grammar:
#
#     sum    := ['-'] term (('+' | '-') term)*
#     term   := factor (['*'] factor)*        a '*' token only after a rational
#     factor := atom ('^-1')*
#     atom   := '(' sum ')' | rational | [rational '*'] word
#
# Tokens are separated by whitespace and parentheses.  A rational starts
# with a digit; a word is one token of ring.group's word syntax ('a',
# 'a^-2'); '2*a' is one atom, the monomial 2a, so '2*a ^-1' is (2a)^-1.
# A '-' glued to the front of a token ('-a', '-2*a') is a unary minus.
# read_expr builds the value with the algebra it is handed: RingOps for
# plain literals, fracparse.FractionOps for iterated fractions.

_PUNCT = ("(", ")", "+", "-", "*", "^-1")


def _tokenize(text):
    """Tokens of a literal; a glued unary minus becomes its own '-' token,
    and may only start a sum."""
    toks = []
    for chunk in text.replace("(", " ( ").replace(")", " ) ").split():
        if chunk[0] == "-" and chunk != "-":
            if toks and toks[-1] != "(":
                raise ParseError(f"a minus sign glued to {chunk[1:]!r} may only start a sum")
            toks.append("-")
            chunk = chunk[1:]
        toks.append(chunk)
    return toks


def _is_rational(tok):
    return tok[0].isdigit() and "*" not in tok


def read_expr(text, ops):
    """Read `text` by the literal grammar, building values with `ops`."""
    reader = _Reader(_tokenize(text), ops)
    if not reader.toks:
        raise ParseError("empty expression (write 0 for zero)")
    value = reader.sum()
    if reader.peek() is not None:
        raise ParseError(f"unexpected {reader.peek()!r}")
    return value


class _Reader:
    """Recursive descent over a token list: sum -> term -> factor -> atom."""

    def __init__(self, toks, ops):
        self.toks = toks
        self.ops = ops
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def sum(self):
        negate = self.peek() == "-"
        if negate:
            self.pos += 1
        value = self.term()
        if negate:
            value = self.ops.neg(value)
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            value = self.ops.add(value, rhs if op == "+" else self.ops.neg(rhs))
        return value

    def term(self):
        value = self.factor()
        while self.peek() not in (None, "+", "-", ")"):
            if self.peek() == "*":
                if not _is_rational(self.toks[self.pos - 1]):
                    raise ParseError("'*' may only follow a rational coefficient")
                self.pos += 1
            value = self.ops.mul(value, self.factor())
        return value

    def factor(self):
        value = self.atom()
        while self.peek() == "^-1":
            self.pos += 1
            value = self.ops.invert(value)
        return value

    def atom(self):
        tok = self.next()
        if tok == "(":
            value = self.sum()
            if self.peek() != ")":
                raise ParseError("missing ')'")
            self.pos += 1
            return value
        if tok in _PUNCT:
            raise ParseError(f"unexpected {tok!r}")
        ring = self.ops.ring
        if _is_rational(tok):
            return ring.monomial(parse_rational(tok), ())
        coeff, star, word = tok.rpartition("*")
        if star and not (coeff and _is_rational(coeff) and word):
            raise ParseError(f"bad term {tok!r} (expected <rational>*<word>)")
        g = ring.group.collect(ring.group.parse_word(word))
        return ring.monomial(parse_rational(coeff) if star else ring.field.one, g)


class RingOps:
    """Group-ring operations for read_expr; ^-1 inverts only monomials."""

    def __init__(self, ring):
        self.ring = ring

    def neg(self, x):
        return -x

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return ring_mul(x, y)

    def invert(self, x):
        if len(x.terms) != 1:
            raise ParseError(f"^-1 in a ring literal needs a monomial, not {x}")
        (g, cf), = x.terms.items()
        return self.ring.monomial(self.ring.field.inv(cf), self.ring.group.inv(g))
