"""Etale algebras over Q and their trace forms.

Two component presentations: a monic squarefree polynomial (the quotient
algebra Q[x]/(f)) and a multiquadratic datum (the algebra generated by
square roots of independent square classes).  The multiquadratic shape is
also allowed over the formal backend, where it is produced by twisting.
"""

from __future__ import annotations

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


def _hankel_blocks(comp: Poly, *deltas) -> list[list[list[Fraction]]]:
    """The pairings (x^a, x^b) -> Tr(x^(a+b) delta) on Q[x]/(f), one n x n
    block per delta.  Tr(x^k) is the power sum p_k of the roots for every k,
    k >= deg f included, so Tr(x^k delta) = sum_j delta_j p_(k+j) and nothing
    is reduced mod f."""
    n = comp.degree
    p = power_sums(list(comp.coeffs), 2 * n - 1 + max(poly_deg(d) for d in deltas))
    blocks = []
    for delta in deltas:
        h = [sum(c * p[k + j] for j, c in enumerate(delta)) for k in range(2 * n - 1)]
        blocks.append([h[a : a + n] for a in range(n)])
    return blocks


def _subset_products(one, xs) -> list:
    """one * prod_{j in S} xs_j for the subsets S, in itertools.product
    order of their indicator vectors."""
    out = [one]
    for x in xs:
        out = [y for o in out for y in (o, o * x)]
    return out


def _mq_diag_classes(comp: Multiquadratic) -> list[SquareClass]:
    """Diagonal entries 2^r * prod_{j in S} d_j of the multiquadratic trace
    form, as square classes (the 2^r collapses to its parity)."""
    field = comp.field
    two = canonicalize(2, field) if len(comp.classes) % 2 else fields.trivial_class(field)
    return _subset_products(two, comp.classes)


def trace_gram(e: EtaleAlgebra) -> GramMatrix:
    """Block-diagonal Gram matrix of (x, y) -> Tr(xy) on the standard bases."""
    if e.field.kind != fields.RATIONALS:
        raise UnsupportedBackend("explicit Gram matrices are rational-only")
    m = [[Fraction(0)] * e.degree for _ in range(e.degree)]
    off = 0
    for comp in e.components:
        if isinstance(comp, Poly):
            (block,) = _hankel_blocks(comp, (1,))
            for i, row in enumerate(block):
                m[off + i][off : off + comp.degree] = row
        else:
            diag = _subset_products(Fraction(comp.degree), [d.data for d in comp.classes])
            for i, v in enumerate(diag):
                m[off + i][off + i] = v
        off += comp.degree
    return gram(e.field, m)


def trace_form(e: EtaleAlgebra) -> DiagonalForm:
    """Diagonalized trace form of the algebra."""
    entries: list[SquareClass] = []
    for comp in e.components:
        if isinstance(comp, Poly):
            (block,) = _hankel_blocks(comp, (1,))
            entries.extend(diagonalize(gram(e.field, block)).entries)
        else:
            entries.extend(_mq_diag_classes(comp))
    return DiagonalForm(e.field, tuple(entries))


def quadratic_layer_trace_form(pair: QuadraticPair) -> DiagonalForm:
    """Trace form of the quadratic layer L over Q, on the bases {x^a, x^a y}.

    Mixed traces vanish; the even part doubles the base pairing and the odd
    part doubles the delta-twisted pairing Tr(x^{a+b} delta).
    """
    entries: list[SquareClass] = []
    for comp, delta in zip(pair.base.components, pair.deltas):
        for block in _hankel_blocks(comp, (2,), [2 * c for c in delta]):
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
