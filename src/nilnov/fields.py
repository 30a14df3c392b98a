"""Exact coefficient fields: the rationals and prime fields F_p.

A field object does the arithmetic; coefficients are stored in canonical
form (reduced Fraction for Q, an int in [0, p) for F_p).
"""

from fractions import Fraction

from .errors import ParseError


class Rationals:
    name = "Q"
    characteristic = 0

    def coerce(self, x):
        return Fraction(x)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

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
    characteristic = None

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.characteristic = p

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


def parse_rational(tok):
    """'p/q' or integer literal -> Fraction; ParseError when the token is
    malformed or its denominator is zero."""
    try:
        return Fraction(tok)
    except ValueError:
        raise ParseError(f"bad rational {tok!r}")
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {tok!r}")
