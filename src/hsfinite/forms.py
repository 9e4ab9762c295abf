"""Binary forms over the rationals.

A binary form is a homogeneous polynomial in x and y.  Coefficients are exact
rationals and ``coeffs[i]`` multiplies ``x^i * y^(degree - i)``, so the tuple
length pins the degree even when leading entries vanish (forms divisible by
y).  The zero form is the empty tuple, project-wide; ``is_zero`` also
holds for an all-zero tuple built directly.

Root data over the algebraic closure is computed without ever materializing a
root: squarefree decomposition (Yun's algorithm, valid in characteristic 0)
delivers the multiplicity structure, and only *rational* roots are ever
extracted as points, from the same squarefree layers.  Yun's loop ends as
soon as the degree not yet in a layer decides the last one, so a power of
one linear form costs a single gcd, and a pass that finds no layer divides
nothing.

The form operations are thin wrappers over one kernel of integer
coefficient-list operations, beside the 2x2 matrices of linear changes.
Products, substitutions (``_substitution``, homogeneous Horner in
O(degree^2), shared with the witness search in ``catalog``), division,
gcds (``_form_gcd``) and squarefree decomposition run on integer lists,
Euclid as Brown's primitive remainder sequence, and ``_RootData`` reads an
integer list.  Integers and ``Fraction`` values meet in two places:
``_scaled`` turns exact scalars into an integer list over a common
denominator, refusing any value that is not an ``int`` or a ``Fraction``
(``_exact``), and ``_form_of`` builds the form of an integer list over a
denominator, sharing one ``Fraction`` per integer in [-256, 256].  Text
has one reader, ``_parse_list``, which gives an integer list over the lcm
of the ``num/den`` terms' denominators; ``parse_form`` is ``_form_of`` of
it, and ``ideals.parse_ideal_text`` and ``catalog.normal_forms`` keep it.
The printer ``_format_list`` writes an integer list over a denominator,
reducing each coefficient by a gcd; ``format_form`` is ``_format_list`` of
``_scaled``, and ``ideals`` prints its generators and the ``NotArtinian``
common factor with it.  So no command builds a form or a ``Fraction``.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InhomogeneousInput, ParseError, SingularChange, parse_natural


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form in x and y; ``coeffs[i]`` is the coefficient of
    x^i*y^(d - i), d being the degree."""

    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self):
        return format_form(self)


ZERO = BinaryForm(())


# one immutable Fraction serves each small integer: no command builds a form, but the
# generic benchmark reads every sample's: without this it peaked at 33 MB RSS, not 30
_SMALL = {n: Fraction(n) for n in range(-256, 257)}


def _rational(n, den=1):
    """The Fraction n / den for ints n and den != 0, shared from ``_SMALL``
    when it is an integer in [-256, 256]."""
    if n % den:
        return Fraction(n, den)
    n //= den
    q = _SMALL.get(n)
    return Fraction(n) if q is None else q


def _form_of(p, den) -> BinaryForm:
    """The form with coefficients p[i] / den, for an integer list p and an
    int den != 0: the one builder of a form from integers."""
    if not any(p):
        return ZERO
    return BinaryForm(tuple(_rational(v, den) for v in p))


def _exact(c):
    """c, when it is an int or a Fraction; any other value is refused."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError("coefficient %r is not an int or a Fraction" % (c,))


def _scaled(coeffs):
    """(ints, den): a list of ints and Fractions times its common
    denominator den; a value of any other type is a TypeError."""
    den = math.lcm(*(_exact(c).denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def binary_form(coeffs) -> BinaryForm:
    """Build a form from ascending x-power coefficients, ints and Fractions,
    normalizing the all-zero vector to the canonical zero form."""
    return _form_of(*_scaled(tuple(coeffs)))


def multiply(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Product form; degrees add and the integer lists convolve."""
    if f.is_zero or g.is_zero:
        return ZERO
    p, den_f = _scaled(f.coeffs)
    q, den_g = _scaled(g.coeffs)
    return _form_of(_convolve(p, q), den_f * den_g)


def monic(f: BinaryForm) -> BinaryForm:
    """Scale so the first nonzero coefficient from the x^d end equals 1."""
    if f.is_zero:
        raise ValueError("the zero form has no monic normalization")
    return _monic_form(_scaled(f.coeffs)[0])


@dataclass(frozen=True)
class LinearChange:
    """Invertible substitution x -> a*x + b*y, y -> c*x + d*y.  Entries are
    kept as given, ints and Fractions, with any int subclass made a plain
    int, so that each prints as a number."""

    a: int | Fraction
    b: int | Fraction
    c: int | Fraction
    d: int | Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            value = _exact(getattr(self, name))
            if isinstance(value, int):  # a bool becomes the int it stands for
                object.__setattr__(self, name, int(value))
        if self.determinant == 0:
            raise SingularChange("substitution matrix has determinant 0")

    @property
    def determinant(self) -> int | Fraction:
        return self.a * self.d - self.b * self.c

    def matrix(self):
        return ((self.a, self.b), (self.c, self.d))


# ---------------------------------------------------------------------------
# 2x2 matrices as nested tuples of ints.  A projective map matters only up
# to a nonzero scalar, so no entry is divided: points are primitive integer
# pairs, inverses are adjugates, and ``_primitive_key`` fixes the scale.
# ---------------------------------------------------------------------------


def _mat_mul(m1, m2):
    return (
        (m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0],
         m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
        (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0],
         m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]),
    )


def _adjugate(m):
    """The inverse of m times its determinant."""
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def _basis_matrix(p1, p2, p3):
    """Columns on p1 and p2 that sum to a point on p3, or None unless the
    three points are distinct.  The columns are scaled by the Cramer
    numerators of p3 in the basis p1, p2."""
    det = p1[0] * p2[1] - p1[1] * p2[0]
    if det == 0:
        return None
    lam = p3[0] * p2[1] - p3[1] * p2[0]
    mu = p1[0] * p3[1] - p1[1] * p3[0]
    if lam == 0 or mu == 0:
        return None
    return ((lam * p1[0], mu * p2[0]), (lam * p1[1], mu * p2[1]))


def _point_map_matrix(ps, qs):
    """The projective map sending three points to three points, up to a
    nonzero scalar, or None."""
    P = _basis_matrix(*ps)
    Q = _basis_matrix(*qs)
    if P is None or Q is None:
        return None
    return _mat_mul(Q, _adjugate(P))


def _normalize_point(uv):
    """The projective point of a nonzero pair, as (1, t) or (0, 1)."""
    u, v = Fraction(uv[0]), Fraction(uv[1])
    if u != 0:
        return (Fraction(1), v / u)
    if v == 0:
        raise ValueError("(0, 0) is not a projective point")
    return (Fraction(0), Fraction(1))


def _primitive_point(u, v):
    """The projective point of a nonzero integer pair as the primitive pair
    with its first nonzero entry positive."""
    g = math.gcd(u, v)
    if u < 0 or (u == 0 and v < 0):
        g = -g
    return (u // g, v // g)


def _point_order(p, q):
    """-1, 0 or 1 as the point p sorts before, with or after q, both
    primitive pairs of ``_primitive_point`` or points of
    ``_normalize_point``: in the order of their ``_normalize_point`` forms,
    (0, 1) first, then (u, v) by v / u, compared by cross-multiplying."""
    if not (p[0] and q[0]):
        return (p[0] != 0) - (q[0] != 0)
    diff = p[1] * q[0] - q[1] * p[0]
    return (diff > 0) - (diff < 0)


_point_key = functools.cmp_to_key(_point_order)


def _primitive_key(matrix) -> tuple:
    """The entries (a, b, c, d) of a nonzero integer matrix divided by their
    gcd, first nonzero one positive: equal for matrices equal up to scale."""
    (a, b), (c, d) = matrix
    g = math.gcd(a, b, c, d)
    if (a or b or c or d) < 0:
        g = -g
    return (a // g, b // g, c // g, d // g)


def substitute(f: BinaryForm, change: LinearChange) -> BinaryForm:
    """f(a*x + b*y, c*x + d*y): same degree, exact coefficients, by the
    integer kernel ``_substitution``: with ``den`` the common denominator of
    the matrix, f is scaled to an integer list, mapped by the integer matrix
    ``den * change``, and its scale and den^degree are divided out at the
    end."""
    if f.is_zero:
        return ZERO
    entries, den = _scaled((change.a, change.b, change.c, change.d))
    p, scale_f = _scaled(f.coeffs)
    return _form_of(_substitution(*entries)(p), scale_f * den ** f.degree)


def _substitution(a, b, c, d):
    """The map p(x, y) -> p(a*x + b*y, c*x + d*y) on integer coefficient
    lists, by homogeneous Horner: with X = a*x + b*y and Y = c*x + d*y,
    acc <- acc * X + p[i] * Y^(deg - i) for i = deg down to 0, which is
    O(deg^2) per list.  The powers of Y are built once and shared by every
    list mapped; each step, a product by the two-term X plus a multiple of
    a power of Y, is one comprehension."""
    pow_y = [[1]]

    def image(p):
        deg = len(p) - 1
        while len(pow_y) <= deg:
            last = pow_y[-1]
            pow_y.append([d * u + c * v for u, v in zip(last + [0], [0] + last)])
        acc = [p[-1]]
        for i in range(deg - 1, -1, -1):
            q = p[i]
            acc = [b * u + a * v + q * w
                   for u, v, w in zip(acc + [0], [0] + acc, pow_y[deg - i])]
        return acc

    return image


# ---------------------------------------------------------------------------
# The polynomial kernel over integer coefficient lists, ascending powers.  A
# form dehomogenizes to f(x, 1), whose list is exactly f.coeffs times the
# common denominator that ``_scaled`` clears.
#
# Division, Euclid and Yun run on integer lists.  A rational list is scaled
# to its primitive part (content 1, positive lead), which has the same
# roots and the same divisors up to constants.  Gauss's lemma makes a
# product of primitive lists primitive, so a primitive q that divides an
# integer list p over Q leaves an integer quotient: ``_divide`` then meets
# only exact integer divisions.  Euclid is the primitive polynomial
# remainder sequence (Brown, J. ACM 18, 1971): the pseudo-remainder of
# lead(q)^(deg p - deg q + 1) * p by q is an integer list, and dividing it
# by its content keeps the coefficients from growing along the sequence.
# A large input to Euclid is first tested for a constant gcd modulo a
# prime, where no coefficient grows at all.  Rationals return only at the
# boundary, in the monic results.
# ---------------------------------------------------------------------------


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _deg(p):
    return len(p) - 1


def _addmul(acc, c, p, shift=0):
    """acc[shift + k] += c * p[k] in place, skipping the zero entries of p."""
    for k, v in enumerate(p, shift):
        if v:
            acc[k] += c * v


def _convolve(p, q):
    """Product of two integer lists, length kept in full."""
    out = [0] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        if u:
            _addmul(out, u, q, i)
    return out


def _primitive(p):
    """A nonzero integer list divided by its content, with positive lead."""
    g = math.gcd(*p)
    if p[-1] < 0:
        g = -g
    return p if g == 1 else [c // g for c in p]


def _divide(p, q):
    """(quotient, remainder) of integer lists p by q, trimmed q, or None when
    a quotient coefficient is not an integer."""
    r = list(p)
    n = len(q)
    lead = q[-1]
    quo = [0] * max(len(r) - n + 1, 0)
    for shift in range(len(r) - n, -1, -1):
        c, m = divmod(r[shift + n - 1], lead)
        if m:
            return None
        if c:
            quo[shift] = c
            _addmul(r, -c, q, shift)
    return quo, _trim(r[:n - 1])


def _exact_quotient(p, q):
    """p / q for integer lists when q divides p over the integers, else
    None.  For a primitive q this is division over Q (Gauss's lemma)."""
    result = _divide(p, q)
    if result is None or result[1]:
        return None
    return result[0]


def _monic_form(p) -> BinaryForm:
    """The monic form of a nonzero integer list: p divided by its last
    nonzero entry."""
    return _form_of(p, next(c for c in reversed(p) if c))


def _deriv(p):
    return _trim([i * c for i, c in enumerate(p)][1:])


def _minus_deriv(d, c):
    """d - c' for integer lists."""
    out = list(d) + [0] * (len(c) - 1 - len(d))
    for i in range(1, len(c)):
        out[i - 1] -= i * c[i]
    return _trim(out)


# The prime 2^61 - 1, and the degree and lead width past which ``_gcd``
# first tries to prove a constant gcd modulo it: below both, the remainder
# sequence is faster than the reduction.  Reading only the lead keeps the
# gate at one int operation on the many small gcds.
_MODULUS = 2 ** 61 - 1
_MODULAR_DEGREE = 16
_MODULAR_BITS = 64


def _coprime_mod(p, q):
    """Is gcd(p mod m, q mod m) a nonzero constant, m = ``_MODULUS``?
    Euclid over Z/m for trimmed integer lists p and q."""
    m = _MODULUS
    a = _trim([c % m for c in p])
    b = _trim([c % m for c in q])
    while b:
        if len(b) == 1:
            return True
        inv = pow(b[-1], -1, m)
        b = [c * inv % m for c in b]  # monic
        n = len(b) - 1
        for shift in range(len(a) - 1 - n, -1, -1):
            c = a[shift + n]
            if c:
                for k in range(n):
                    a[shift + k] = (a[shift + k] - c * b[k]) % m
        a, b = b, _trim(a[:n])
    return False


def _gcd(p, q):
    """Primitive gcd of two nonzero trimmed integer lists, by the primitive
    remainder sequence: each member is divided by its content.

    When the longer list has degree above ``_MODULAR_DEGREE`` or a lead
    wider than ``_MODULAR_BITS`` bits, and the prime m = ``_MODULUS``
    divides neither lead, the gcd is first computed modulo m
    (Brown, J. ACM 18, 1971).  The primitive gcd g of p and q over Z has a
    lead dividing both leads, so g keeps its degree mod m, and g mod m
    divides both reductions: a constant gcd mod m makes g constant, and
    [1] is returned.  Otherwise the remainder sequence decides, so the size
    gate only chooses which path is tried first."""
    if len(p) < len(q):
        p, q = q, p
    if ((_deg(p) > _MODULAR_DEGREE or p[-1].bit_length() > _MODULAR_BITS)
            and p[-1] % _MODULUS and q[-1] % _MODULUS and _coprime_mod(p, q)):
        return [1]
    while True:
        q = _primitive(q)
        if len(q) == 1:
            return q
        power = q[-1] ** (len(p) - len(q) + 1)
        _, r = _divide([power * c for c in p], q)
        if not r:
            return q
        p, q = q, r


def _squarefree(p):
    """Yun's squarefree decomposition of a primitive integer list: list of
    (primitive squarefree layer, mult) with p = prod layer^mult, by
    increasing mult.  Every gcd is primitive and divides exactly, so every
    quotient stays an integer list.

    Pass i starts from c, the product of the distinct roots of multiplicity
    i or more, and ``left``, the degree of p not yet in a layer, which is
    the sum of those roots' multiplicities.  Each of the deg c roots has
    multiplicity at least i, so two cases end the loop with c the last
    layer: a linear c is one root of multiplicity ``left``, and
    ``left == i * deg c`` (where d = 0) makes every multiplicity exactly i.  At
    i = 1, ``left`` = deg p > deg c, so a power of one linear form ends it
    before p' / g is computed for d.  A squarefree p, whose gcd with p' is
    constant, is its one layer at once; a large one is proved so by
    ``_gcd``'s modular test.  A pass whose gcd(c, d) is constant holds no
    root of multiplicity i and divides nothing."""
    if _deg(p) < 1:
        return []
    # the common linear and quadratic inputs need no gcd: a*x^2 + b*x + c
    # is a square exactly when b^2 = 4ac, the square of 2a*x + b up to scale
    if _deg(p) == 1:
        return [(p, 1)]
    if _deg(p) == 2:
        c, b, a = p
        return [(_primitive([b, 2 * a]), 2)] if b * b == 4 * a * c else [(p, 1)]
    dp = _deriv(p)
    g = _gcd(p, dp)
    if len(g) == 1:
        return [(p, 1)]
    c = _exact_quotient(p, g)
    out = []
    left = _deg(p)
    i = 1
    while _deg(c) > 1 and left != i * _deg(c):
        d = _minus_deriv(_exact_quotient(dp, g) if i == 1 else d, c)
        s = _gcd(c, d)
        if _deg(s) > 0:
            out.append((s, i))
            left -= i * _deg(s)
            c = _exact_quotient(c, s)
            d = _exact_quotient(d, s)
        i += 1
    out.append((c, left // _deg(c)))
    return out


def _form_gcd(p, q):
    """Primitive gcd of two nonzero integer coefficient lists of forms:
    Euclid on the dehomogenizations at y = 1, then the shared valuation at
    [1:0] as trailing zeros."""
    core_p = _trim(list(p))
    core_q = _trim(list(q))
    shared_y = min(len(p) - len(core_p), len(q) - len(core_q))
    return _gcd(core_p, core_q) + [0] * shared_y


def gcd_forms(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic GCD of two forms, by ``_form_gcd``.  gcd(f, 0) = monic f."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero forms is undefined")
    if f.is_zero:
        return monic(g)
    if g.is_zero:
        return monic(f)
    return _monic_form(_form_gcd(_scaled(f.coeffs)[0], _scaled(g.coeffs)[0]))


# ---------------------------------------------------------------------------
# Root data from one squarefree decomposition.  A Yun layer is squarefree,
# so its rational roots are simple: a linear layer is read off, a quadratic
# one takes an integer square root of its discriminant, and a higher one is
# solved modulo a small prime, Newton-lifted p-adically and checked exactly
# (Loos, SIAM J. Comput. 12, 1983).  No integer is ever factored.
# ---------------------------------------------------------------------------


def _primes():
    """2, 3, 5, 7, ... by trial division, generated on demand."""
    n = 2
    while True:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            yield n
        n += 1


def _horner(q, r, m):
    """q(r) mod m."""
    v = 0
    for c in reversed(q):
        v = (v * r + c) % m
    return v


def _lifted_roots(q):
    """Rational roots of a squarefree primitive integer list q of degree at
    least 3 with q[0] != 0.

    A root a/b in lowest terms has b | q[-1] and a | q[0], so t = q[-1]*a/b
    is an integer with |t| <= |q[0]*q[-1]|.  Modulo a prime p not dividing
    q[-1] it reduces to a root r of q; when every such r is simple, r lifts
    uniquely to each modulus p^k, so t is q[-1]*r mod M in the symmetric
    range once M > 2|q[0]*q[-1]|.  Each candidate is kept only if it is an
    exact root.
    """
    lead = q[-1]
    dq = _deriv(q)
    for p in _primes():
        if lead % p:
            reduced = [c % p for c in q]
            residues = [r for r in range(p) if _horner(reduced, r, p) == 0]
            if all(_horner(dq, r, p) for r in residues):
                break
    bound = 2 * abs(q[0] * lead)
    roots = []
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner(q, r, m) * pow(_horner(dq, r, m), -1, m)) % m
        t = lead * r % m
        if t > m // 2:
            t -= m
        # lead^n * q(t / lead), in integers
        acc, power = lead, 1
        for c in reversed(q[:-1]):
            power *= lead
            acc = acc * t + c * power
        if acc == 0:
            roots.append(_primitive_point(t, lead))
    return roots


def _layer_roots(q):
    """Rational roots t of a squarefree primitive integer list of positive
    degree, each as the point (t : 1) of ``_primitive_point``."""
    roots = []
    if q[0] == 0:  # x divides a squarefree layer at most once
        roots.append((0, 1))
        q = q[1:]
    if len(q) == 2:
        roots.append(_primitive_point(-q[0], q[1]))
    elif len(q) == 3:
        c, b, a = q
        disc = b * b - 4 * a * c
        s = math.isqrt(disc) if disc > 0 else 0
        if s and s * s == disc:
            roots += [_primitive_point(-b - s, 2 * a),
                      _primitive_point(-b + s, 2 * a)]
    elif len(q) > 3:
        roots += _lifted_roots(q)
    return roots


class _RootData:
    """The roots of a nonzero form, given as a coefficient list of ints
    (any nonzero multiple of the form), from one squarefree decomposition of
    f(x, 1): the multiplicity partition at once, the rational points when
    first asked for.

    ``partition`` lists the multiplicities of the roots on the projective
    line over the algebraic closure, nonincreasing and summing to the
    degree; the point [1:0] contributes the y-adic valuation.  ``points``
    holds ((u, v), multiplicity) pairs, the points primitive integer pairs
    of ``_primitive_point``, sorted by ``_point_key``; irrational roots are
    counted in the partition but never computed.
    """

    def __init__(self, p):
        core = _trim(list(p))
        if not core:
            raise ValueError("zero form has no roots")
        self.y_valuation = len(p) - len(core)
        self.layers = _squarefree(_primitive(core))
        parts = [mult for layer, mult in self.layers for _ in range(_deg(layer))]
        if self.y_valuation:
            parts.append(self.y_valuation)
        parts.sort(reverse=True)
        assert sum(parts) == _deg(p)
        self.partition = tuple(parts)

    @functools.cached_property
    def points(self) -> list:
        pts = []
        if self.y_valuation:
            pts.append(((1, 0), self.y_valuation))
        for layer, mult in self.layers:
            pts.extend((point, mult) for point in _layer_roots(layer))
        return sorted(pts, key=lambda pm: _point_key(pm[0]))


def multiplicity_partition(f: BinaryForm) -> tuple:
    """Root multiplicities of f over the algebraic closure; see _RootData."""
    return _RootData(_scaled(f.coeffs)[0]).partition


def rational_root_points(f: BinaryForm) -> list:
    """Rational projective roots of f with multiplicities, the points
    normalized to (1, t) or (0, 1); see _RootData."""
    points = _RootData(_scaled(f.coeffs)[0]).points
    return [(_normalize_point(p), mult) for p, mult in points]


# ---------------------------------------------------------------------------
# Text format.  Grammar (whitespace between tokens is ignored, '*' is
# optional, and nat is a run of the ASCII digits 0-9):
#     poly  := ['-'] term (('+'|'-') term)*
#     term  := coeff ['*' mono] | mono
#     coeff := nat ['/' nat]
#     mono  := 'x' ['^' nat] ['*' 'y' ['^' nat]] | 'y' ['^' nat]
# ``_TERM`` reads one signed term.  Its parts are all optional and taken
# greedily, so it reads what one token of lookahead would: a '*' is read
# only before a variable the grammar allows next, and any token left unread
# fails the next term, which must start with its sign.
# ---------------------------------------------------------------------------

# Largest exponent the parser accepts, checked before any list is allocated.
MAX_EXPONENT = 1000

_TERM = re.compile(r"""\s*(?P<sign>[-+]?)\s*
    (?:(?P<num>[0-9]+)(?:\s*/\s*(?P<den>[0-9]+))?\s*(?:\*(?=\s*[xy]))?\s*)?
    (?:(?P<x>x)(?:\s*\^\s*(?P<xp>[0-9]+))?\s*(?:\*(?=\s*y))?\s*)?
    (?:(?P<y>y)(?:\s*\^\s*(?P<yp>[0-9]+))?)?\s*""", re.VERBOSE)


def _fail(what, pos, text):
    raise ParseError("expected %s at position %d in %r" % (what, pos, text))


# A run of at most this many digits is read by int() at once: no int-string
# limit the interpreter accepts is lower (``sys.set_int_max_str_digits``
# refuses one below 640), and ``_TERM`` admits only the ASCII digits 0-9.
_SHORT_DIGITS = 640


def _number(digits, m, group):
    """The number of the digit run of ``_TERM``'s match m in ``group``."""
    if len(digits) <= _SHORT_DIGITS:
        return int(digits)
    return parse_natural(digits, "the number at position %d" % m.start(group))


def parse_form(text: str) -> BinaryForm:
    """Parse polynomial text into a binary form, rejecting inhomogeneous input."""
    return _form_of(*_parse_list(text))


def _parse_list(text: str) -> tuple:
    """(ints, den): the coefficient list of polynomial text, as
    ``BinaryForm.coeffs`` orders it, times den > 0, the lcm of the
    denominators of its nonzero ``num/den`` terms; ints is empty when every
    term's coefficient is zero."""
    terms = []
    common = 1
    pos = 0
    while not terms or pos < len(text):
        m = _TERM.match(text, pos)
        sign, num, den, x, xp, y, yp = m.groups()
        if terms and not sign:
            _fail("'+', '-' or end of input", m.start("sign"), text)
        if sign == "+" and not terms:
            _fail("a coefficient or variable", m.start("sign"), text)
        if not (num or x or y):
            _fail("a coefficient or variable", m.end(), text)
        num = _number(num, m, "num") if num else 1
        den = _number(den, m, "den") if den else 1
        if den == 0:
            _fail("a nonzero denominator", m.start("den"), text)
        xp = _number(xp, m, "xp") if xp else 1 if x else 0
        yp = _number(yp, m, "yp") if yp else 1 if y else 0
        if max(xp, yp) > MAX_EXPONENT:
            _fail("an exponent of at most %d" % MAX_EXPONENT, m.start("sign"), text)
        if den != 1 and num:
            common = math.lcm(common, den)
        terms.append((-num if sign == "-" else num, den, xp, yp))
        pos = m.end()
    degrees = {xp + yp for num, _, xp, yp in terms if num}
    if len(degrees) > 1:
        raise InhomogeneousInput(
            "terms of degrees %s in %r" % (sorted(degrees), text))
    if not degrees:
        return [], 1
    cs = [0] * (degrees.pop() + 1)
    for num, den, xp, _ in terms:
        if num:
            cs[xp] += num * (common // den)
    return cs, common


def format_form(f: BinaryForm) -> str:
    """Canonical printer: terms in decreasing x-power, coefficients in lowest
    terms, '-' folded into the separators (never '+ -')."""
    if f.is_zero:
        return "0"
    return _format_list(*_scaled(f.coeffs))


def _format_list(p, den) -> str:
    """``format_form`` of the form with coefficients p[i] / den, for an
    integer list p and an int den > 0, with no ``Fraction`` built; the
    empty string when every entry of p is zero."""
    d = len(p) - 1
    chunks = []
    for i in range(d, -1, -1):
        v = p[i]
        if not v:
            continue
        pieces = []
        mag = abs(v)
        j = d - i
        if mag != den or (i == 0 and j == 0):  # mag == den is a coefficient of +-1
            g = math.gcd(mag, den)
            pieces.append(str(mag // g) if g == den else "%d/%d" % (mag // g, den // g))
        if i >= 1:
            pieces.append("x" if i == 1 else "x^%d" % i)
        if j >= 1:
            pieces.append("y" if j == 1 else "y^%d" % j)
        body = "*".join(pieces)
        if not chunks:
            chunks.append(body if v > 0 else "-" + body)
        else:
            chunks.append((" + " if v > 0 else " - ") + body)
    return "".join(chunks)
