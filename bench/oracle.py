"""Independent exact arithmetic for checking the program's outputs.

Nothing here imports ``hsfinite``: the benchmark generates transformed
ideals and re-checks every ``Isomorphic`` witness with this code, so a fault
in the program's own substitution or row reduction cannot hide itself.

A form is a tuple of ``Fraction`` coefficients where entry ``i`` multiplies
``x^i * y^(degree - i)``, the program's text convention.  An ideal is a pair
``(generators, truncation)``; the truncation ``D`` adjoins every form of
degree ``D`` and above.
"""

from __future__ import annotations

from fractions import Fraction


def parse_form(text):
    """Parse ``c*x^i*y^j`` terms joined by ``+`` and ``-`` into a form."""
    terms = {}
    for chunk in text.replace(" ", "").replace("-", "+-").split("+"):
        if not chunk:
            continue
        coeff = Fraction(-1 if chunk.startswith("-") else 1)
        xp = yp = 0
        for factor in chunk.lstrip("-").split("*"):
            var, _, power = factor.partition("^")
            if var == "x":
                xp += int(power or 1)
            elif var == "y":
                yp += int(power or 1)
            else:
                coeff *= Fraction(factor)
        terms[(xp, yp)] = terms.get((xp, yp), 0) + coeff
    degrees = {xp + yp for xp, yp in terms}
    if len(degrees) != 1:
        raise ValueError("not a nonzero homogeneous form: %r" % text)
    degree = degrees.pop()
    coeffs = [Fraction(0)] * (degree + 1)
    for (xp, _), coeff in terms.items():
        coeffs[xp] += coeff
    return tuple(coeffs)


def parse_ideal(text):
    generators = []
    truncation = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("truncate:"):
            truncation = int(line[len("truncate:"):])
        elif line:
            generators.append(parse_form(line))
    return tuple(generators), truncation


def format_form(form):
    degree = len(form) - 1
    chunks = []
    for i in range(degree, -1, -1):
        c = form[i]
        if c == 0:
            continue
        pieces = [] if abs(c) == 1 else [str(abs(c))]
        if i:
            pieces.append("x^%d" % i)
        if degree - i:
            pieces.append("y^%d" % (degree - i))
        sign = "-" if c < 0 else "+"
        chunks.append("%s %s" % (sign, "*".join(pieces)))
    text = " ".join(chunks)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def format_ideal(ideal):
    generators, truncation = ideal
    lines = [format_form(g) for g in generators]
    if truncation is not None:
        lines.append("truncate: %d" % truncation)
    return "\n".join(lines) + "\n"


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def substitute(form, matrix):
    """form(a*x + b*y, c*x + d*y) for matrix ((a, b), (c, d))."""
    (a, b), (c, d) = matrix
    degree = len(form) - 1
    image_x, image_y = [b, a], [d, c]
    pow_x, pow_y = [[Fraction(1)]], [[Fraction(1)]]
    for _ in range(degree):
        pow_x.append(_mul(pow_x[-1], image_x))
        pow_y.append(_mul(pow_y[-1], image_y))
    out = [Fraction(0)] * (degree + 1)
    for i, coeff in enumerate(form):
        if coeff:
            for k, v in enumerate(_mul(pow_x[i], pow_y[degree - i])):
                out[k] += coeff * v
    return tuple(out)


def substitute_ideal(ideal, matrix):
    generators, truncation = ideal
    return tuple(substitute(g, matrix) for g in generators), truncation


def _component_rows(ideal, degree):
    generators, truncation = ideal
    if truncation is not None and degree >= truncation:
        return [[Fraction(int(i == j)) for j in range(degree + 1)]
                for i in range(degree + 1)]
    rows = []
    for g in generators:
        shift_max = degree - (len(g) - 1)
        for shift in range(shift_max + 1):
            row = [Fraction(0)] * (degree + 1)
            row[shift:shift + len(g)] = g
            rows.append(row)
    return rows


def _echelon(rows):
    """Reduced basis as {pivot column: row with 1 at the pivot}."""
    basis = {}
    for row in rows:
        row = _reduce(basis, row)
        pivot = next((j for j, c in enumerate(row) if c), None)
        if pivot is None:
            continue
        inv = 1 / row[pivot]
        row = [c * inv for c in row]
        for col, other in basis.items():
            f = other[pivot]
            if f:
                basis[col] = [u - f * v for u, v in zip(other, row)]
        basis[pivot] = row
    return basis


def _reduce(basis, row):
    row = list(row)
    for col, brow in basis.items():
        f = row[col]
        if f:
            row = [u - f * v for u, v in zip(row, brow)]
    return row


def _top_degree(ideal):
    """Every benchmark ideal carries a truncation, which bounds the degrees
    that need checking; without one this oracle has no proof of equality."""
    truncation = ideal[1]
    if truncation is None:
        raise ValueError("the oracle needs a truncation degree")
    return truncation


def hilbert_samuel(ideal):
    """t_d = d + 1 - dim I_d until it reaches 0."""
    seq = []
    for degree in range(_top_degree(ideal) + 1):
        t = degree + 1 - len(_echelon(_component_rows(ideal, degree)))
        if t == 0:
            return tuple(seq)
        seq.append(t)
    raise AssertionError("component at the truncation degree is not full")


def equal_ideals(left, right):
    """Componentwise span equality up to the degree where both are full."""
    top = max(_top_degree(left), _top_degree(right))
    for degree in range(top + 1):
        basis = _echelon(_component_rows(left, degree))
        other = _component_rows(right, degree)
        if len(_echelon(other)) != len(basis):
            return False
        if any(any(_reduce(basis, row)) for row in other):
            return False
    return True


def witness_holds(left, right, matrix):
    """Does the substitution ``matrix`` carry ``left`` onto ``right``?"""
    (a, b), (c, d) = matrix
    if a * d - b * c == 0:
        return False
    return equal_ideals(substitute_ideal(left, matrix), right)
