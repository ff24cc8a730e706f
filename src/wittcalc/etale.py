"""Etale algebras over Q and their trace forms.

Two component presentations: a monic squarefree polynomial (the quotient
algebra Q[x]/(f)) and a multiquadratic datum (the algebra generated by
square roots of independent square classes).  The multiquadratic shape is
also allowed over the formal backend, where it is produced by twisting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import fields
from .errors import DegreeOutOfRange, InvalidInput, UnsupportedBackend
from .fields import FieldDescriptor, SquareClass, canonicalize, rationals
from .witt import DiagonalForm, GramMatrix, diagonalize, gram

DEGREE_CAP = 12

# ---------------------------------------------------------------------------
# dense polynomials over Q, constant coefficient first


def poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_deg(c) -> int:
    return len(c) - 1


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_mod(a, m):
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = poly_deg(m)
    while poly_deg(a) >= dm and poly_trim(a):
        lead = a[-1]
        shift = poly_deg(a) - dm
        for i, x in enumerate(m):
            a[shift + i] -= lead * x
        poly_trim(a)
    return a


def poly_gcd(a, b):
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        lead = b[-1]
        mb = [x / lead for x in b]
        a, b = b, poly_mod(a, mb)
        b = poly_trim(b)
    return a


def poly_deriv(c):
    return poly_trim([i * x for i, x in enumerate(c)][1:])


def is_squarefree(f) -> bool:
    g = poly_gcd(f, poly_deriv(f))
    return poly_deg(g) == 0


def power_sums(f, count: int) -> list[Fraction]:
    """p_0..p_{count-1} for the roots of monic f, by Newton's identities."""
    n = poly_deg(f)
    c = list(f)  # c[i] is the coefficient of x^i, c[n] = 1
    p = [Fraction(n)]
    for k in range(1, count):
        s = Fraction(0)
        for i in range(1, min(k - 1, n) + 1):
            s += c[n - i] * p[k - i]
        if k <= n:
            s += k * c[n - k]
        p.append(-s)
    return p


# ---------------------------------------------------------------------------
# components


@dataclass(frozen=True)
class Poly:
    """Component Q[x]/(f) for a monic squarefree f (constant-first coeffs)."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        c = poly_trim(list(self.coeffs))
        if len(c) != len(self.coeffs) or poly_deg(c) < 1:
            raise InvalidInput("polynomial component must have positive degree")
        if c[-1] != 1:
            raise InvalidInput("polynomial component must be monic")
        if poly_deg(c) > DEGREE_CAP:
            raise DegreeOutOfRange(f"component degree exceeds cap {DEGREE_CAP}")
        if not is_squarefree(c):
            raise InvalidInput("polynomial component must be squarefree")

    @property
    def degree(self) -> int:
        return poly_deg(self.coeffs)


@dataclass(frozen=True)
class Multiquadratic:
    """Component generated by square roots of independent square classes."""

    field: FieldDescriptor
    classes: tuple[SquareClass, ...]

    def __post_init__(self) -> None:
        if 2 ** len(self.classes) > 2**DEGREE_CAP:
            raise DegreeOutOfRange("multiquadratic component too large")
        if not fields.f2_independent(self.classes):
            raise InvalidInput("multiquadratic classes are not F2-independent")

    @property
    def degree(self) -> int:
        return 2 ** len(self.classes)


def poly_component(raw_coeffs) -> Poly:
    return Poly(tuple(Fraction(x) for x in raw_coeffs))


def multiquadratic(raw_classes, field: FieldDescriptor | None = None) -> Multiquadratic:
    field = field or rationals()
    return Multiquadratic(field, tuple(canonicalize(r, field) for r in raw_classes))


@dataclass(frozen=True)
class EtaleAlgebra:
    field: FieldDescriptor
    components: tuple

    def __post_init__(self) -> None:
        for comp in self.components:
            if isinstance(comp, Poly):
                if self.field.kind != fields.RATIONALS:
                    raise UnsupportedBackend("polynomial components live over Q")
            elif isinstance(comp, Multiquadratic):
                if comp.field != self.field:
                    raise InvalidInput("component over a different backend")
            else:
                raise InvalidInput(f"unknown component {comp!r}")

    @property
    def degree(self) -> int:
        return sum(c.degree for c in self.components)


def etale(components, field: FieldDescriptor | None = None) -> EtaleAlgebra:
    return EtaleAlgebra(field or rationals(), tuple(components))


@dataclass(frozen=True)
class QuadraticPair:
    """A base algebra with polynomial components and a unit delta in each,
    presenting the quadratic layer K_i[y]/(y^2 - delta_i)."""

    base: EtaleAlgebra
    deltas: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.deltas) != len(self.base.components):
            raise InvalidInput("one delta per base component required")
        for comp, delta in zip(self.base.components, self.deltas):
            if not isinstance(comp, Poly):
                raise InvalidInput("quadratic pairs need polynomial base components")
            d = poly_trim(list(delta))
            if not d:
                raise InvalidInput("delta must be nonzero")
            if poly_deg(poly_gcd(list(comp.coeffs), d)) != 0:
                raise InvalidInput("delta must be a unit in the base component")


def quadratic_pair(base: EtaleAlgebra, raw_deltas) -> QuadraticPair:
    return QuadraticPair(
        base, tuple(tuple(Fraction(x) for x in d) for d in raw_deltas)
    )


# ---------------------------------------------------------------------------
# trace forms


def _poly_trace_block(comp: Poly) -> list[list[Fraction]]:
    n = comp.degree
    p = power_sums(list(comp.coeffs), 2 * n - 1)
    return [[p[i + j] for j in range(n)] for i in range(n)]


def _mq_diag_classes(comp: Multiquadratic) -> list[SquareClass]:
    """Diagonal entries 2^r * prod_{j in S} d_j of the multiquadratic trace
    form, as square classes (the 2^r collapses to its parity)."""
    field = comp.field
    r = len(comp.classes)
    two = canonicalize(2, field) if r % 2 else fields.trivial_class(field)
    out = []
    for mask in itertools.product((0, 1), repeat=r):
        cls = two
        for bit, d in zip(mask, comp.classes):
            if bit:
                cls = cls * d
        out.append(cls)
    return out


def trace_gram(e: EtaleAlgebra) -> GramMatrix:
    """Block-diagonal Gram matrix of (x, y) -> Tr(xy) on the standard bases."""
    if e.field.kind != fields.RATIONALS:
        raise UnsupportedBackend("explicit Gram matrices are rational-only")
    blocks: list[list[list[Fraction]]] = []
    for comp in e.components:
        if isinstance(comp, Poly):
            blocks.append(_poly_trace_block(comp))
        else:
            r = len(comp.classes)
            scale = Fraction(2**r)
            diag = []
            for mask in itertools.product((0, 1), repeat=r):
                v = scale
                for bit, d in zip(mask, comp.classes):
                    if bit:
                        v *= d.data
                diag.append(v)
            blocks.append(
                [
                    [diag[i] if i == j else Fraction(0) for j in range(len(diag))]
                    for i in range(len(diag))
                ]
            )
    n = sum(len(b) for b in blocks)
    m = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                m[off + i][off + j] = v
        off += len(b)
    return gram(e.field, m)


def trace_form(e: EtaleAlgebra) -> DiagonalForm:
    """Diagonalized trace form of the algebra."""
    entries: list[SquareClass] = []
    for comp in e.components:
        if isinstance(comp, Poly):
            block = gram(e.field, _poly_trace_block(comp))
            entries.extend(diagonalize(block).entries)
        else:
            entries.extend(_mq_diag_classes(comp))
    return DiagonalForm(e.field, tuple(entries))


def _tr_element(f, g, p) -> Fraction:
    """Trace of multiplication by g on Q[x]/(f); p = power sums of f."""
    g = poly_mod(list(g), list(f))
    return sum((c * p[i] for i, c in enumerate(g)), Fraction(0))


def quadratic_layer_trace_form(pair: QuadraticPair) -> DiagonalForm:
    """Trace form of the quadratic layer L over Q, on the bases {x^a, x^a y}.

    Mixed traces vanish; the even part doubles the base pairing and the odd
    part doubles the delta-twisted pairing Tr(x^{a+b} delta).
    """
    entries: list[SquareClass] = []
    for comp, delta in zip(pair.base.components, pair.deltas):
        f = list(comp.coeffs)
        n = comp.degree
        p = power_sums(f, 2 * n - 1 + max(0, poly_deg(list(delta))))
        even = [[2 * p[a + b] for b in range(n)] for a in range(n)]
        odd = []
        for a in range(n):
            row = []
            for b in range(n):
                mono = [Fraction(0)] * (a + b) + [Fraction(1)]
                row.append(2 * _tr_element(f, poly_mul(mono, list(delta)), p))
            odd.append(row)
        for block in (even, odd):
            entries.extend(diagonalize(gram(pair.base.field, block)).entries)
    return DiagonalForm(pair.base.field, tuple(entries))


# ---------------------------------------------------------------------------
# JSON


def component_to_json(comp):
    if isinstance(comp, Poly):
        return {
            "type": "poly",
            "coeffs": [
                c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
                for c in comp.coeffs
            ],
        }
    return {
        "type": "multiquadratic",
        "classes": [fields.sq_to_json(c) for c in comp.classes],
    }


def etale_to_json(e: EtaleAlgebra):
    return [component_to_json(c) for c in e.components]


def component_from_json(obj, field: FieldDescriptor):
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidInput(f"bad component payload {obj!r}")
    if obj["type"] == "poly":
        return poly_component(fields.json_rationals(obj["coeffs"], "coeffs"))
    if obj["type"] == "multiquadratic":
        classes = fields.json_checked(obj["classes"], list, "classes")
        return Multiquadratic(field, tuple(fields.sq_from_json(c, field) for c in classes))
    raise InvalidInput(f"unknown component type {obj['type']!r}")


def etale_from_json(obj, field: FieldDescriptor) -> EtaleAlgebra:
    comps = fields.json_checked(obj, list, "algebra")
    return EtaleAlgebra(field, tuple(component_from_json(c, field) for c in comps))


def pair_to_json(pair: QuadraticPair):
    return {
        "base": etale_to_json(pair.base),
        "deltas": [
            [
                c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
                for c in d
            ]
            for d in pair.deltas
        ],
    }


def pair_from_json(obj) -> QuadraticPair:
    obj = fields.json_checked(obj, dict, "pair")
    base = etale_from_json(obj["base"], rationals())
    deltas = fields.json_checked(obj["deltas"], list, "deltas")
    return quadratic_pair(base, [fields.json_rationals(d, "delta") for d in deltas])
