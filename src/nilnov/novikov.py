"""Truncated elements of the nested Novikov ring, with certified inversion.

A NovSeries is a finite body plus the promise "unspecified terms at or
beyond the frontier".  A term is retained when its degree tuple is inside
the box (every coordinate strictly below the frontier); the lexicographic
order on degree tuples is used whenever a minimal term is needed.  Degrees
and frontier entries are ints when integral (else reduced Fractions).

Degree arithmetic is trusted in two places.  chi_0 is a homomorphism, so
the level-0 degree of a product is the sum of its factors' level-0
degrees, and products skip every pair whose sum reaches the level-0
frontier (such a term would be truncated anyway).  Over a one-level
quotient the same holds letter by letter, so NovContext reads a free
word's degree off its letters without projecting the word.  And
G_l/G_{l+1} is central in G/G_{l+1}, so for a right factor h in G_l the
levels <= l add:
deg_i(gh) = deg_i(g) + deg_i(h) for i <= l; nov_invert keys its series
sweep by 0 to n such levels.  Deeper levels need not add (a product picks
up cross terms of shallower exponents) and are never used otherwise.
Neither fact changes a term inside the frontier box; inversion and
expansion verify an explicit residual certificate and raise when it
fails.  With two or more levels a passing certificate does not prove every
term inside the box: a term dropped beyond it can come back inside, where
no residual sees it (see nov_invert and _expand_rec), so both results then
hold at truncation only.
"""

import heapq
from itertools import accumulate, repeat

from .charorder import failing_node
from .errors import (CertificateFailure, IncompatibleCharacter,
                     MismatchedCharacter, MismatchedGroup, NoStrictMinimum,
                     TruncationInsufficient)
from .fields import QQ
from .groupring import RingElt, add_into, format_ring_elt, ring_mul

DEFAULT_M_MAX = 64
DEFAULT_FRONTIER_ENTRY = 8


class Trunc:
    """Truncation data: frontier degree box and geometric-series cap.

    Every frontier entry must be positive: the box must retain the identity,
    or every residual certificate would pass without checking anything.
    m_max must be an int, and not a bool: the series loop stops when a
    chain length equals it.
    """

    def __init__(self, frontier, m_max=None):
        self.frontier = tuple(QQ.coerce(t) for t in frontier)
        if any(t <= 0 for t in self.frontier):
            raise ValueError("frontier entries must be positive")
        self.m_max = DEFAULT_M_MAX if m_max is None else m_max
        if type(self.m_max) is not int:
            raise ValueError(f"m_max must be an int, got {self.m_max!r}")
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")

    def retains(self, deg):
        for d, t in zip(deg, self.frontier):
            if d >= t:
                return False
        return True

    def doubled(self):
        return Trunc([2 * t for t in self.frontier], 2 * self.m_max)

    def widened(self, shift):
        """Frontier raised by max(0, shift_i) per coordinate, same cap."""
        return Trunc([t + max(0, s) for t, s in zip(self.frontier, shift)],
                     self.m_max)

    def __str__(self):
        """The frontier as headers, verdict lines and O(...) tails print it."""
        return ",".join(str(t) for t in self.frontier)

    def __repr__(self):
        return f"Trunc({self}; m_max={self.m_max})"


class NovContext:
    """Degree bookkeeping: multicharacter, truncation, optional projection.

    With a pc backend the degree of a normal form is chi.deg; with a free
    backend, words are first pushed through `project` (a homomorphism from
    free words to normal forms in chi's group) and then measured.

    When chi's group has one level it is free abelian (a single level has
    no tails), so chi_0 after the projection is a homomorphism on free
    words: the degree of a word is the sum of e * chi_0(project(x)) over
    its letters x^e, and each letter is projected once per context.  The
    sum equals chi.deg(project(w)) in value, hash and printed form, though
    it may be a Fraction where chi.deg gives an int.  With more levels
    every word is projected.
    """

    def __init__(self, chi, trunc, project=None):
        if len(trunc.frontier) != chi.group.nlevels:
            raise MismatchedCharacter(
                f"frontier has {len(trunc.frontier)} entries, "
                f"the multicharacter has {chi.group.nlevels} levels")
        self.chi = chi
        self.trunc = trunc
        self.project = project
        self._cache = {}
        # letter -> chi_0 of its image, when degrees are read off letters
        self._letters = {} if project and chi.group.nlevels == 1 else None

    def deg(self, g):
        d = self._cache.get(g)
        if d is None:
            letters = self._letters
            if letters is None:
                d = self.chi.deg(self.project(g) if self.project else g)
            else:
                total = 0
                for x, e in g:
                    v = letters.get(x)
                    if v is None:
                        v = letters[x] = self.chi.deg(self.project(((x, 1),)))[0]
                    total += e * v
                d = (total,)
            self._cache[g] = d
        return d

    def with_trunc(self, trunc):
        ctx = NovContext(self.chi, trunc, self.project)
        ctx._cache = self._cache
        ctx._letters = self._letters
        return ctx


class NovSeries:
    """body + O(frontier).  A series that nov_invert returns also carries
    its right residual gamma*beta - 1 (see nov_invert); on every other
    series `residual` is None."""

    __slots__ = ("ctx", "body", "residual")

    def __init__(self, ctx, body):
        self.ctx = ctx
        self.body = body
        self.residual = None

    def __repr__(self):
        return format_series(self)


def _check_group(ctx, elt):
    """Without a projection, elt must live over the multicharacter's group."""
    if ctx.project is None and elt.ring.group is not ctx.chi.group:
        raise MismatchedGroup("the element does not live over the multicharacter's group")


def truncate_elt(ctx, elt):
    trunc = ctx.trunc
    keep = {g: cf for g, cf in elt.terms.items() if trunc.retains(ctx.deg(g))}
    return RingElt(elt.ring, keep)


def _by_level0(ctx, y):
    """y's terms as (deg_0, group element, coefficient), by deg_0."""
    return sorted(((ctx.deg(h)[0], h, ch) for h, ch in y.terms.items()), key=lambda t: t[0])


def _product_below(ctx, x, y, ys=None, terms=None):
    """x*y without the term pairs whose level-0 degree reaches the frontier.

    chi_0 is a homomorphism on G/G_1, and so on free words through the
    projection, hence deg_0(gh) = deg_0(g) + deg_0(h).  With y's terms
    sorted by deg_0, the pairs for a term g of x stop at the first h with
    deg_0(g) + deg_0(h) >= F_0: every later product lies beyond the frontier.
    Each group element inside the box keeps all its pairs, so on the terms
    the frontier retains the result equals ring_mul(x, y).

    A caller that multiplies by y more than once passes ys = _by_level0(ctx,
    y), sorted once.  Given a term dict `terms`, the pairs are added into it
    and the result owns it: the result is then terms + x*y.
    """
    x._check(y)
    ring = x.ring
    group, field = ring.group, ring.field
    deg = ctx.deg
    f0 = ctx.trunc.frontier[0]
    if ys is None:
        ys = _by_level0(ctx, y)
    if terms is None:
        terms = {}
    for g, cg in x.terms.items():
        room = f0 - deg(g)[0]
        for d, h, ch in ys:
            if d >= room:
                break
            k = group.mul(g, h)
            c = field.mul(cg, ch)
            old = terms.get(k)
            if old is not None:
                c = field.add(old, c)
                if field.is_zero(c):
                    del terms[k]
                    continue
            terms[k] = c  # a product of nonzero coefficients is nonzero
    return RingElt(ring, terms)


def series_from_elt(ctx, elt):
    _check_group(ctx, elt)
    return NovSeries(ctx, truncate_elt(ctx, elt))


def beyond_frontier(ctx, elt):
    """True when every term of elt sits at or beyond the frontier box."""
    return all(not ctx.trunc.retains(ctx.deg(g)) for g in elt.terms)


def least_inside(ctx, elt):
    """The lex-minimal degree of elt's terms inside the frontier box, or
    None when elt is beyond the frontier."""
    return min(filter(ctx.trunc.retains, map(ctx.deg, elt.terms)), default=None)


def widened_context(ctx, elts):
    """ctx with its frontier raised by the negative degree depth of the
    terms of elts: multiplying by one of them may lower degrees by that
    much, and a product must still be complete below the frontier of ctx."""
    degs = [ctx.deg(g) for elt in elts for g in elt.terms]
    depth = [-min((d[i] for d in degs), default=0) for i in range(len(ctx.trunc.frontier))]
    return ctx.with_trunc(ctx.trunc.widened(depth))


def format_degree(deg):
    """A degree tuple as it appears in obstructions, e.g. (-1,0)."""
    return "(" + ",".join(str(x) for x in deg) + ")"


def minimal_term(ctx, elt):
    """(group, coeff, deg) of the unique lex-minimal degree term.

    Raises NoStrictMinimum when the body is empty or the minimum is
    attained more than once.
    """
    best = None
    count = 0
    for g, c in elt.terms.items():
        d = ctx.deg(g)
        if best is None or d < best[2]:
            best = (g, c, d)
            count = 1
        elif d == best[2]:
            count += 1
    if best is None:
        raise NoStrictMinimum("cannot invert an empty body")
    if count > 1:
        raise NoStrictMinimum(
            f"minimal degree {format_degree(best[2])} attained {count} times")
    return best


def _image(ctx, g):
    """g as an element of the multicharacter's group."""
    return ctx.project(g) if ctx.project else g


def _sweep_key(ctx, beta_plus):
    """The number of leading degree levels, 0 to n, that key the series
    sweep of nov_invert; 0 sweeps chain by chain.

    For a term h of beta_plus of lex-positive degree let l(h) be its first
    level of nonzero degree.  If each h lies in G_l(h), right multiplication
    by h adds degrees on levels <= l(h), so the degree cut after L = max l(h)
    rises strictly with every factor: the key is L + 1 levels.  Every
    element lies in G_0; membership in a deeper G_l is read on the projected
    element when the context projects.  A term of non-positive degree makes
    the key 0 levels; its powers may still leave the box through cross
    terms.  When _check_divergence proves that they do not, it raises
    NoStrictMinimum.
    """
    group = ctx.chi.group
    levels, nested, non_positive, images = [0], True, [], {}
    for h in beta_plus.terms:
        d = ctx.deg(h)
        level = next((i for i, x in enumerate(d) if x), None)
        if level != 0:
            images[h] = _image(ctx, h)
        if level is None or d[level] < 0:
            non_positive.append(h)
            nested = False
        else:
            levels.append(level)
            nested = nested and (level == 0 or group.leading_level(images[h]) >= level)
    if non_positive:
        _check_divergence(ctx, images, non_positive)
    return max(levels) + 1 if nested else 0


def _check_divergence(ctx, images, non_positive):
    """Raise NoStrictMinimum for the first term h of non_positive that keeps
    the chain-by-chain series inside the box through m_max factors.

    No term of beta_plus has negative level-0 degree (beta_0 is minimal and
    chi_0 a homomorphism), so the level-0-degree-0 part of beta_plus^m is
    Z^m, Z the level-0-degree-0 part of beta_plus (`images` maps its terms
    to chi's group); each h is in Z.  Z lies in G_l, l its least leading
    level (l < n: a term g q^-1 with image 1 would tie the body term g with
    beta_0 = r q, which minimal_term refuses), and the level-l exponent
    vector v is a homomorphism there.  If h is the only term of Z maximising
    <v(h), v(.)>, and v(h) != 0, then c^m h^m (c the coefficient of h) is
    the unique term of Z^m maximising it: nothing cancels it.  When h^k is
    inside the box for every k <= m_max + 1, the series keeps c^k h^k at
    every chain length k <= m_max and beta*gamma - 1 keeps
    -c^(m_max+1) h^(m_max+1), so the certificate would fail after m_max
    factors.  Otherwise nothing is proved for h.
    """
    group = ctx.chi.group
    level = min(map(group.leading_level, images.values()))
    vectors = {g: group.level_vector(x, level) for g, x in images.items()}
    for h in non_positive:
        v = vectors[h]
        weights = sorted(sum(a * b for a, b in zip(v, w)) for w in vectors.values())
        top = sum(a * a for a in v)
        if top == 0 or weights[-1] != top or (len(weights) > 1 and weights[-2] == top):
            continue
        powers = accumulate(repeat(images[h], ctx.trunc.m_max + 1), group.mul)
        if all(ctx.trunc.retains(ctx.chi.deg(x)) for x in powers):
            raise NoStrictMinimum(
                f"beta_plus term of degree {format_degree(ctx.deg(h))} is not positive")


def _geometric_sum(wctx, beta_plus, cut, m_max):
    """(S, D): S = sum beta_plus^m truncated to wctx, keyed by a term's
    first `cut` degree levels (_sweep_key); with cut 0 each bucket is one
    chain.  None when a bucket with a non-empty key reaches a chain of
    m_max factors.

    D = S*beta_plus - (S - 1) below wctx's level-0 frontier, the part of
    S*beta_plus that S lacks.  Every term of S but 1 comes from a popped
    bucket's product with beta_plus, so D is what truncation drops from
    those products plus the products of the buckets that end a chain at
    m_max, accumulated as they are formed.  Each product is untruncated
    below the level-0 frontier: _product_below skips only pairs beyond it.

    S, D and the pending buckets are term dicts that the sweep owns: each
    popped bucket and each product term is added into them in place, so no
    pop copies S.  beta_plus is sorted by level-0 degree once, and one pass
    over each product files a term the truncation keeps into the pending
    bucket of its key and any other term into D.  With one or more levels
    popped keys rise strictly and a term has one key, so the buckets are
    disjoint and S takes each by dict.update; with zero, chains overlap and
    a bucket is added into S."""
    ring = beta_plus.ring
    field = ring.field
    deg = wctx.deg
    ys = _by_level0(wctx, beta_plus)
    start = (0,) * cut
    pending = {start: ring.one().terms}  # key -> pending terms
    longest = {start: 0}  # key -> longest chain among its terms
    heap = [start]
    S, D = {}, {}
    while heap:
        key = heapq.heappop(heap)
        bucket, chain = pending.pop(key), longest.pop(key)
        if not bucket:
            continue
        if chain == m_max and cut:
            return None
        if cut:
            S.update(bucket)
        else:
            add_into(field, S, bucket)
        product = _product_below(wctx, RingElt(ring, bucket), beta_plus, ys)
        if chain == m_max:
            add_into(field, D, product.terms)
            continue
        kept = truncate_elt(wctx, product).terms
        for g, c in product.terms.items():
            if g in kept:
                k = deg(g)[:cut]
                into = pending.get(k)
                if into is None:
                    into = pending[k] = {}
                    longest[k] = chain + 1
                    heapq.heappush(heap, k)
                elif longest[k] <= chain:
                    longest[k] = chain + 1
            else:
                into = D
            old = into.get(g)
            if old is not None:
                c = field.add(old, c)
                if field.is_zero(c):
                    del into[g]
                    continue
            into[g] = c
    return RingElt(ring, S), RingElt(ring, D)


def nov_invert(beta):
    """Certified inverse via the geometric-series decomposition.

    Writes beta = (1 - beta_plus) * beta_0 with beta_0 = r*q the unique
    minimal term, accumulates gamma = beta_0^-1 * S with S = sum beta_plus^m
    to the truncation, and verifies that neither beta*gamma - 1 nor
    gamma*beta - 1 has a term inside the frontier box.  The certificate is
    mandatory; failures raise TruncationInsufficient, naming the side and
    its lex-minimal degree inside the box.

    beta_plus = 1 - beta * beta_0^-1 exactly, so the residuals need no
    product with beta or gamma:

        beta*gamma - 1 = S - 1 - beta_plus*S
        gamma*beta - 1 = q^-1 (S - 1 - S*beta_plus) q

    and the sweep has formed S*beta_plus already: S - 1 - S*beta_plus = -D
    (_geometric_sum).  Conjugation keeps level-0 degrees, and every pair a
    product skips has level-0 degree at or past the frontier, so inside the
    box both residuals equal the products they replace.  The returned
    series carries gamma*beta - 1, on its terms of level-0 degree below the
    frontier, as `residual`; _expand_rec checks a node from it.

    S is summed by one sweep (B. H. Neumann's construction).  Pending terms
    wait in buckets; the least key is popped, added to S and pushed once,
    times beta_plus and truncated, each product term joining the bucket of
    its key: its first 0 to n degree levels, as many as _sweep_key finds
    additive.  With one or more, every push raises the key, a bucket is
    complete when popped, and each term of S is multiplied once.  With
    zero, bucket m + 1 is trunc(P_m * beta_plus), chain by chain.  m_max
    caps the beta_plus factors in a chain: a chain of m_max is summed and
    not pushed, and a sweep whose buckets mix chain lengths is redone with
    zero levels as soon as one reaches m_max.

    With two or more levels the inverse holds at truncation only.  The
    sweep drops terms beyond its widened box, and a factor that lowers
    deeper levels can carry such a term back inside the box, where neither
    residual sees the gap.  Over H3 with chi = (a=1 b=1; c=1), the inverse
    of b + b a at frontier 4,4 misses a^4 b^-1, of degree (3,0): b^-1 times
    the dropped a^4 c^4, of degree (4,4).
    """
    ctx = beta.ctx
    body = beta.body
    _check_group(ctx, body)
    ring = body.ring
    group, field = ring.group, ring.field
    q, r, _ = minimal_term(ctx, body)
    q_inv = group.inv(q)
    beta0_inv = ring.monomial(field.inv(r), q_inv)
    one = ring.one()
    beta_plus = one - ring_mul(body, beta0_inv)
    cut = _sweep_key(ctx, beta_plus)
    # Accumulate the geometric series at a frontier widened by however much
    # multiplying by beta_0^-1 can lower degrees, so that gamma is complete
    # below the stated frontier; gamma itself is not re-truncated (it may
    # carry a band of at-frontier terms, explicit slack from the O-tail).
    wctx = widened_context(ctx, [beta0_inv])
    m_max = ctx.trunc.m_max
    swept = _geometric_sum(wctx, beta_plus, cut, m_max)
    if swept is None:
        swept = _geometric_sum(wctx, beta_plus, 0, m_max)
    S, D = swept
    f0 = ctx.trunc.frontier[0]
    right = RingElt(ring, {group.mul(group.mul(q_inv, g), q): field.neg(c)
                           for g, c in D.terms.items() if ctx.deg(g)[0] < f0})
    # both residuals are checked: elimination multiplies by gamma on either
    # side.  The pairs of -beta_plus*S are added into a copy of S - 1, so
    # they cancel against S as the product forms, without multiplying S by
    # the identity and without a second dict of beta_plus*S.
    left = _product_below(ctx, -beta_plus, S, terms=(S - one).terms)
    for side, residual in (("beta*gamma - 1", left), ("gamma*beta - 1", right)):
        degree = least_inside(ctx, residual)
        if degree is not None:
            raise TruncationInsufficient(
                "residual of the inversion certificate has terms inside the frontier; "
                f"least in {side}: degree {format_degree(degree)}; "
                "raise m_max or shrink the frontier")
    gamma = NovSeries(ctx, ring_mul(beta0_inv, S))
    gamma.residual = right
    return gamma


def expand(frac, chi, trunc):
    """Expand an iterated fraction into a truncated Novikov series.

    Compatibility of chi with the fraction is checked first; the expansion
    then proceeds deepest level first and verifies
    result * expand(beta) = expand(alpha) up to the frontier at every node.
    """
    node = failing_node(chi, frac)
    if node is not None:
        raise IncompatibleCharacter("multicharacter is not compatible with the fraction",
                                    node=node)
    ring = _leaf_ring(frac)
    ctx = NovContext(chi, trunc)
    return _expand_rec(frac, ctx, ring)


def _leaf_ring(frac):
    """The ring of the leaves, read down the first denominator entries
    (a Node's denominator is never empty)."""
    while not isinstance(frac, RingElt):
        frac = frac.beta[0][0]
    return frac.ring


def _expand_rec(frac, ctx, ring):
    """A node is alpha*beta^-1.  Bodies stay exact between nodes, and
    truncation happens only inside the inversions: beta is inverted at the
    frontier widened by alpha's negative degree depth, and each node
    verifies result*beta = alpha up to the frontier before returning.  With
    result = alpha*gamma, result*beta - alpha = alpha*(gamma*beta - 1), so
    the check multiplies alpha by the residual that nov_invert returns; the
    widening keeps that residual complete for every pair whose product can
    fall inside the box.

    That check reads alpha and beta as expanded to the frontier.  A nested
    node inside beta is truncated there too, and an inverse that lowers
    deeper-level degrees can bring its dropped terms inside the box, which
    no check sees: through nested multi-level nodes the result holds at
    truncation only."""
    if isinstance(frac, RingElt):
        return NovSeries(ctx, frac)
    A = _assemble(frac.alpha, ctx, ring)
    B = _assemble(frac.beta, ctx, ring)
    inv = nov_invert(NovSeries(widened_context(ctx, [A]), B))
    degree = least_inside(ctx, _product_below(ctx, A, inv.residual))
    if degree is not None:
        raise CertificateFailure(
            "node certificate failed: result*beta differs from alpha inside the frontier; "
            f"residual degree {format_degree(degree)} inside the frontier")
    return NovSeries(ctx, ring_mul(A, inv.body))


def _assemble(entries, ctx, ring):
    total = ring.zero()
    for coeff, g in entries:
        cs = _expand_rec(coeff, ctx, ring)
        total = total + ring_mul(cs.body, ring.monomial(ring.field.one, g))
    return total


def format_series(ns):
    """Terms in lexicographic degree order with an explicit O(frontier) tail."""
    ctx = ns.ctx
    group = ns.body.ring.group
    tail = f"O({ctx.trunc})"
    if ns.body.is_zero():
        return tail
    body = format_ring_elt(ns.body, lambda g: (ctx.deg(g), group.sort_key(g)))
    return f"{body} + {tail}"
