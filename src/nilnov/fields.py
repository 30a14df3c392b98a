"""Exact coefficient fields: the rationals and prime fields F_p.

A field object does the arithmetic; coefficients are stored in canonical
form: for Q an int when integral, else a reduced Fraction; for F_p an int
in [0, p).  Integers keep the common integral case off Fraction's slow
arithmetic, and since an int and the equal Fraction compare, hash and print
alike, the mixed form changes no result or output.
"""

from fractions import Fraction

from .errors import ParseError


def _canonical(q):
    """A Fraction as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


class Rationals:
    name = "Q"

    def coerce(self, x):
        return x if type(x) is int else _canonical(Fraction(x))

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        c = a + b
        return c if type(c) is int else _canonical(c)

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int else _canonical(c)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return _canonical(1 / Fraction(a))

    def is_zero(self, a):
        return a == 0

    def fmt(self, a):
        return str(a)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ParseError(f"{x} has no value in {self.name}: "
                                 f"its denominator is divisible by {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def fmt(self, a):
        return str(a % self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = Rationals()


def GF(p):
    return PrimeField(p)


def field_by_name(name):
    """The field named 'Q' or 'F<p>' for a prime p."""
    if name in ("Q", "QQ", "q"):
        return QQ
    if name[:1] in ("F", "f") and name[1:].isdigit():
        try:
            return PrimeField(int(name[1:]))
        except ValueError as e:
            raise ParseError(f"field {name!r}: {e}")
    raise ParseError(f"unknown field {name!r} (use Q or F<p> for a prime p)")


def rank(rows, field):
    """Rank of a dense matrix over an exact field, by Gaussian elimination."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return 0
    ncols = len(mat[0])
    rk = 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(mat)) if not field.is_zero(mat[i][col])), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        inv = field.inv(mat[rk][col])
        mat[rk] = [field.mul(inv, x) for x in mat[rk]]
        for i in range(len(mat)):
            if i != rk and not field.is_zero(mat[i][col]):
                f = mat[i][col]
                mat[i] = [field.add(x, field.neg(field.mul(f, y)))
                          for x, y in zip(mat[i], mat[rk])]
        rk += 1
    return rk


def parse_rational(tok, line=None):
    """'p/q' or integer literal -> Fraction; ParseError, naming `line` when
    given, when the token is malformed or its denominator is zero."""
    try:
        return Fraction(tok)
    except ValueError:
        raise ParseError(f"bad rational {tok!r}", line)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {tok!r}", line)
