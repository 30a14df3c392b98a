"""Reference mathematics for checking nilnov's outputs, sharing no code with it.

Everything here works on plain data: a word is a sequence of
(generator name, exponent) pairs, a group-ring element is a dict from words
(or group elements) to Fractions, and a verdict is a string.  Nothing is
imported from nilnov, so a fault in nilnov cannot hide behind the same
fault here.

Three oracles:

* Heisenberg triple arithmetic: H3 as triples with
  (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y'), where a=(0,1,0), b=(1,0,0),
  c=(0,0,1) realises b*a = a*b*c.  Used to check that a truncated inverse
  multiplies to 1, and an expansion to its numerator, below the frontier.
* The Magnus embedding of the free nilpotent group F23 of class 3 on a, b:
  a -> 1+X, b -> 1+Y in Z<X,Y> modulo degree >= 4.  Its kernel on the free
  group is the fourth term of the lower central series, so it is faithful
  on F23 and decides equality of a word and its normal form.
* Known verdicts of the criterion corpus, and the Euler identity
  sum (-1)^d h^d = 1 - #generators + #relators of the presentation complex.
"""

from fractions import Fraction


class Mismatch(AssertionError):
    """An output of the program disagrees with the reference mathematics."""


# -- Heisenberg group H3 ----------------------------------------------------

HEIS_BASIS = {"a": (0, 1, 0), "b": (1, 0, 0), "c": (0, 0, 1)}


def heis_mul(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])


def heis_pow(p, n):
    """(x,y,z)^n = (n x, n y, n z + n(n-1)/2 x y), for every integer n."""
    x, y, z = p
    return (n * x, n * y, n * z + n * (n - 1) // 2 * x * y)


def heis_word(word):
    acc = (0, 0, 0)
    for name, e in word:
        acc = heis_mul(acc, heis_pow(HEIS_BASIS[name], e))
    return acc


def heis_element(terms):
    """{word: coeff} -> {triple: Fraction}, merging words equal in H3."""
    out = {}
    for word, cf in terms.items():
        t = heis_word(word)
        out[t] = out.get(t, 0) + Fraction(cf)
    return {t: cf for t, cf in out.items() if cf}


def heis_product(x, y):
    out = {}
    for s, cs in x.items():
        for t, ct in y.items():
            k = heis_mul(s, t)
            out[k] = out.get(k, 0) + cs * ct
    return {k: cf for k, cf in out.items() if cf}


def heis_sub(x, y):
    out = dict(x)
    for t, cf in y.items():
        out[t] = out.get(t, 0) - cf
    return {t: cf for t, cf in out.items() if cf}


def heis_degree(t, chi):
    """Degree tuple of a triple under chi = {"a": .., "b": .., "c": ..}:
    the level-0 character on the (a, b) exponents, then the c coordinate."""
    x, y, z = t
    return (chi["b"] * x + chi["a"] * y, chi["c"] * z)


def _inside(t, chi, frontier):
    return all(d < f for d, f in zip(heis_degree(t, chi), frontier))


def _no_term_inside(resid, chi, frontier, what):
    bad = sorted(t for t in resid if _inside(t, chi, frontier))
    if bad:
        raise Mismatch(f"{what} has {len(bad)} term(s) inside the frontier "
                       f"{tuple(frontier)}, e.g. {bad[0]} with coefficient {resid[bad[0]]}")


def check_inverse(beta, gamma, chi, frontier):
    """beta*gamma - 1 and gamma*beta - 1 have no term strictly inside the
    frontier.  beta and gamma are {triple: Fraction}."""
    one = {(0, 0, 0): Fraction(1)}
    _no_term_inside(heis_sub(heis_product(beta, gamma), one), chi, frontier,
                    "beta*gamma - 1")
    _no_term_inside(heis_sub(heis_product(gamma, beta), one), chi, frontier,
                    "gamma*beta - 1")


def check_multiplies_back(denominator, result, numerator, chi, frontier):
    """denominator*result - numerator and result*denominator - numerator
    have no term strictly inside the frontier (the denominator is central
    times a unit in the expansions this is used for, so both sides hold)."""
    _no_term_inside(heis_sub(heis_product(denominator, result), numerator),
                    chi, frontier, "denominator*result - numerator")
    _no_term_inside(heis_sub(heis_product(result, denominator), numerator),
                    chi, frontier, "result*denominator - numerator")


# -- Magnus embedding of F23 ---------------------------------------------------

MAGNUS_DEGREE = 3  # polynomials are kept modulo degree >= 4


def mag_mul(p, q):
    out = {}
    for u, cu in p.items():
        for v, cv in q.items():
            if len(u) + len(v) <= MAGNUS_DEGREE:
                k = u + v
                out[k] = out.get(k, 0) + cu * cv
    return {k: c for k, c in out.items() if c}


def _binom(n, k):
    """Generalised binomial coefficient n(n-1)...(n-k+1)/k! for any integer n."""
    num, den = 1, 1
    for i in range(k):
        num *= n - i
        den *= i + 1
    return num // den


def mag_pow(p, n):
    """(1 + u)^n = sum_k C(n, k) u^k, exact for every integer n because u
    has no constant term and so u^4 vanishes modulo degree 4."""
    if p.get((), 0) != 1:
        raise ValueError("Magnus images have constant term 1")
    u = {k: c for k, c in p.items() if k}
    out = {(): 1}
    power = {(): 1}
    for k in range(1, MAGNUS_DEGREE + 1):
        power = mag_mul(power, u)
        for w, c in power.items():
            out[w] = out.get(w, 0) + _binom(n, k) * c
    return {k: c for k, c in out.items() if c}


def _magnus_images():
    a = {(): 1, ("X",): 1}
    b = {(): 1, ("Y",): 1}

    def comm(x, y):  # [x, y] = x^-1 y^-1 x y
        return mag_mul(mag_mul(mag_pow(x, -1), mag_pow(y, -1)), mag_mul(x, y))

    c = comm(b, a)   # b*a = a*b*c
    d = comm(c, a)   # c*a = a*c*d
    e = comm(c, b)   # c*b = b*c*e
    return {"a": a, "b": b, "c": c, "d": d, "e": e}


F23_ORDER = ("a", "b", "c", "d", "e")
F23_IMAGES = _magnus_images()


def magnus_word(word):
    acc = {(): 1}
    for name, e in word:
        acc = mag_mul(acc, mag_pow(F23_IMAGES[name], e))
    return acc


def check_collected(word, normal_form):
    """normal_form is a normal form of F23 (generator indices strictly
    increasing in the order a b c d e, exponents nonzero) equal to word."""
    idx = [F23_ORDER.index(name) for name, _ in normal_form]
    if any(i >= j for i, j in zip(idx, idx[1:])):
        raise Mismatch(f"normal form {normal_form} is not in generator order")
    if any(e == 0 for _, e in normal_form):
        raise Mismatch(f"normal form {normal_form} has a zero exponent")
    if magnus_word(word) != magnus_word(normal_form):
        raise Mismatch(f"normal form {normal_form} differs from the collected word "
                       "under the Magnus embedding")


# -- criterion corpus -------------------------------------------------------

CD_DROP = "cd-drop-certified-at-truncation"
VANISHES = "vanishes-at-truncation"


def presentation_counts(fpg_text):
    """(#generators, #relators) of a .fpg presentation, read independently."""
    gens, rels = 0, 0
    for raw in fpg_text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts and parts[0] == "gens":
            gens = len(parts) - 1
        elif parts and parts[0] == "rel":
            rels += 1
    return gens, rels


def check_cd_drop(name, conclusion):
    """Z^2 and the mapping torus of F2 have kernels Z resp. F2, of
    cohomological dimension 1 < 2, so the sweep must certify the drop."""
    if conclusion != CD_DROP:
        raise Mismatch(f"{name}: conclusion {conclusion!r}, expected {CD_DROP!r}")


def check_one_sided(name, sides):
    """sides: [(pattern, verdict, stable)] for the two signs of a character
    on BS(1,2).  Its Sigma^1 invariant is one-sided, so exactly one sign
    vanishes stably and the other does not vanish."""
    stable_vanishing = [p for p, v, s in sides if v == VANISHES and s]
    vanishing = [p for p, v, _ in sides if v == VANISHES]
    if len(sides) != 2 or len(stable_vanishing) != 1 or len(vanishing) != 1:
        raise Mismatch(f"{name}: expected exactly one stably vanishing sign, got {sides}")


def check_euler(name, h, counts):
    """h: {degree: dimension or None}.  When every degree is determined the
    alternating sum equals 1 - #generators + #relators."""
    if len(h) < 3 or any(v is None for v in h.values()):
        return
    gens, rels = counts
    total = sum((-1) ** d * v for d, v in h.items())
    if total != 1 - gens + rels:
        raise Mismatch(f"{name}: alternating sum {total} of {h}, "
                       f"expected {1 - gens + rels}")
