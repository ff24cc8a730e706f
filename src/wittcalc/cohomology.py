"""Mod-2 Galois cohomology as a symbol algebra.

Classes are F2-sets of symbols whose factors are basis square classes
(-1 and the primes over Q; -1 and the t_i over the formal backend).  A
symbol is stored as the sorted tuple of its factors' payloads
(``SquareClass.data``); ``CohClass.symbols`` builds the Symbol view only
when it is read.  ``coh_sum`` builds every class from symbols in normal
form, which is canonical over the formal, real and finite backends; over Q
vanishing is decided semantically (Hilbert symbols in degree 2, the real
place in every degree from 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, prod

from . import fields
from .errors import (
    BackendMismatch,
    DegreeOutOfRange,
    UnsupportedBackend,
    ZeroElement,
    ZeroFactor,
)
from .fields import FieldDescriptor, SquareClass, canonicalize
from .witt import (
    DiagonalForm,
    PfisterPresentation,
    lambda_combination,
    pfister,
    witt_add,
    witt_mul,
)


@dataclass(frozen=True)
class Symbol:
    field: FieldDescriptor
    factors: tuple[SquareClass, ...]  # sorted basis classes, square-reduced


@dataclass(frozen=True)
class CohClass:
    field: FieldDescriptor
    degree: int
    data: frozenset  # normal-form symbols, as sorted tuples of basis payloads

    @property
    def symbols(self) -> frozenset:
        """The Symbol view of ``data``, built on each read."""
        return frozenset(
            Symbol(self.field, tuple(SquareClass(self.field, p) for p in s)) for s in self.data
        )

    def is_presented_zero(self) -> bool:
        return not self.data


def coh_zero(field: FieldDescriptor, degree: int) -> CohClass:
    return CohClass(field, degree, frozenset())


def coh_unit(field: FieldDescriptor) -> CohClass:
    return CohClass(field, 0, frozenset({()}))


def _normal_form(bs: set, pad, degree: int) -> tuple:
    """The distinct basis payloads ``bs`` (with or without -1, which pads them
    anyway), padded with ``pad``, the payload of -1, up to ``degree``, sorted."""
    return tuple(sorted([*bs, *[pad] * (degree - len(bs))]))


def padded_symbol(field: FieldDescriptor, classes, degree: int) -> Symbol:
    """The Symbol view of the normal form of the distinct basis classes ``classes``."""
    s = _normal_form({c.data for c in classes}, fields.payload_units(field)[1], degree)
    return Symbol(field, tuple(SquareClass(field, p) for p in s))


def coh_sum(field: FieldDescriptor, degree: int, products) -> CohClass:
    """The degree-``degree`` class of the sum of the symbols (b_1)...(b_n),
    one per iterable of basis payloads in ``products``, in normal form:
    (b)(b) = (b)(-1), padding with (-1), equal symbols cancelling in pairs,
    and H^n(F_p) = 0 for n >= 2."""
    if field.kind == fields.FINITE and degree >= 2:
        return coh_zero(field, degree)
    pad = fields.payload_units(field)[1]
    symbols: set = set()
    for bs in products:
        symbols ^= {_normal_form(set(bs), pad, degree)}
    return CohClass(field, degree, frozenset(symbols))


def _canonical(field: FieldDescriptor, factors) -> list[SquareClass]:
    """The square classes of the field elements ``factors``, refusing 0."""
    try:
        return [canonicalize(f, field) for f in factors]
    except ZeroElement as exc:
        raise ZeroFactor("symbol factor is zero") from exc


def symbol_sum(field: FieldDescriptor, degree: int, symbols) -> CohClass:
    """The sum of the symbols (a_1)...(a_n), one per list of field elements
    in ``symbols``: each is expanded multilinearly over the backend's basis
    (``fields.payload_basis``) and the products are summed by ``coh_sum``."""
    basis = fields.payload_basis(field)
    symbols = [[basis(c.data) for c in _canonical(field, factors)] for factors in symbols]
    products = (itertools.product(*factors) for factors in symbols)
    return coh_sum(field, degree, itertools.chain.from_iterable(products))


def symbol_normalize(raw_factors, field: FieldDescriptor) -> CohClass:
    """Normal form of the symbol (a_1)...(a_n)."""
    factors = list(raw_factors)
    return symbol_sum(field, len(factors), [factors])


def coh_add(a: CohClass, b: CohClass) -> CohClass:
    if a.field != b.field:
        raise BackendMismatch("cohomology classes over different backends")
    if a.degree != b.degree:
        raise DegreeOutOfRange("cannot add classes of different degrees")
    return CohClass(a.field, a.degree, a.data ^ b.data)


def cup(a: CohClass, b: CohClass) -> CohClass:
    if a.field != b.field:
        raise BackendMismatch("cohomology classes over different backends")
    products = (sa + sb for sa in a.data for sb in b.data)
    return coh_sum(a.field, a.degree + b.degree, products)


def is_zero(c: CohClass) -> bool:
    """Backend-specific vanishing decision."""
    field = c.field
    if field.kind in (fields.FORMAL, fields.REALS, fields.FINITE):
        return c.is_presented_zero()
    if field.kind != fields.RATIONALS:
        # Q((t_1))...((t_g)) needs residue classes
        raise UnsupportedBackend(f"is_zero is not implemented over {field}")
    if c.degree <= 1:
        return c.is_presented_zero()
    if c.degree == 2:
        # the finite places, from the primes that hilbert_places has proved
        for v in fields.hilbert_places(p for s in c.data for p in s):
            if prod(fields._hilbert_at_prime(a, b, v) for a, b in c.data) != 1:
                return False
    # the real place, and all of H^n(Q) for n >= 3, which injects into
    # H^n(R): a normal-form symbol restricts to the generator iff all its
    # factors are -1, the only negative basis payload
    return sum(all(p < 0 for p in s) for s in c.data) % 2 == 0


def e_map(p: PfisterPresentation) -> CohClass:
    """Image of a Pfister combination under e_n: <<a_1,...,a_n>> -> (a_1)...(a_n).
    The factors of every term are checked, as PfisterPresentation.to_witt
    checks them, before the terms of even coefficient are dropped."""
    terms = [(coeff, _canonical(p.field, gens)) for coeff, gens in p.terms]
    return symbol_sum(p.field, p.degree, [gens for coeff, gens in terms if coeff % 2])


def sw(q: DiagonalForm, d: int) -> CohClass:
    """d-th Stiefel-Whitney class: sum of (a_{i_1})...(a_{i_d}) over subsets.

    A normal-form symbol of degree j is the set of its basis classes other
    than -1, kept as a bitmask, so cup with a basis class (b) is mask union:
    (b)(b) = (b)(-1), and (-1) only adds padding, which coh_sum puts back
    (and coh_sum gives 0 over F_p in degrees >= 2).
    """
    if not 0 <= d <= q.dim:
        raise DegreeOutOfRange(f"sw degree {d} out of range for dim {q.dim}")
    field = q.field
    basis, m1 = fields.payload_basis(field), fields.payload_units(field)[1]
    bits: dict = {}  # basis payload other than -1 -> bit
    rows: list[set] = [{0}] + [set() for _ in range(d)]
    for idx, a in enumerate(q.entries):
        items = [0 if f == m1 else 1 << bits.setdefault(f, len(bits)) for f in basis(a.data)]
        for j in range(min(d, idx + 1), 0, -1):
            tgt = rows[j]
            for it in items:
                for m in rows[j - 1]:
                    mm = m | it
                    if mm in tgt:
                        tgt.remove(mm)
                    else:
                        tgt.add(mm)
    classes = list(bits)
    return coh_sum(field, d, ([c for i, c in enumerate(classes) if m >> i & 1] for m in rows[d]))


def sw_mod(q: DiagonalForm, d: int) -> CohClass:
    """Modified Stiefel-Whitney class: sw_d, plus (2).sw_{d-1} for even d."""
    out = sw(q, d)
    if d >= 2 and d % 2 == 0:
        two = symbol_normalize([canonicalize(2, q.field)], q.field)
        out = coh_add(out, cup(two, sw(q, d - 1)))
    return out


def sw_lift(n: int, d: int) -> list[int]:
    """Coefficients c_l with sw_d = e_d o (sum c_l lambda^l) on rank-n forms."""
    if not 0 <= d <= n:
        raise DegreeOutOfRange(f"degree {d} out of range for rank {n}")
    return [(-1) ** l * comb(n - l, d - l) for l in range(d + 1)]


@dataclass(frozen=True)
class ModSwLiftRecipe:
    """Lift of the modified Stiefel-Whitney class to lambda-power combinations.

    ``plain`` are integer coefficients on lambda^0..lambda^d; ``two_scaled``
    (even d only) are coefficients on <<2>>.lambda^0..<<2>>.lambda^{d-1}.
    """

    n: int
    d: int
    plain: tuple[int, ...]
    two_scaled: tuple[int, ...] | None

    def apply(self, q: DiagonalForm):
        out = lambda_combination(q, self.plain)
        if self.two_scaled is not None:
            two = pfister(q.field, [canonicalize(2, q.field)])
            if two.data:  # <<2>> = 0 where 2 is a square, as over R((t_1))...((t_g))
                out = witt_add(out, witt_mul(two, lambda_combination(q, self.two_scaled)))
        return out


def sw_mod_lift(n: int, d: int) -> ModSwLiftRecipe:
    if not 0 <= d <= n:
        raise DegreeOutOfRange(f"degree {d} out of range for rank {n}")
    plain = tuple(sw_lift(n, d))
    if d == 0 or d % 2:
        return ModSwLiftRecipe(n, d, plain, None)
    two_scaled = tuple((-1) ** l * comb(n - l, d - 1 - l) for l in range(d))
    return ModSwLiftRecipe(n, d, plain, two_scaled)


def coh_to_json(c: CohClass):
    return {
        "degree": c.degree,
        "symbols": sorted(
            [[fields.sq_to_json(f) for f in sym.factors] for sym in c.symbols],
            key=str,
        ),
    }


def coh_from_json(obj, field: FieldDescriptor) -> CohClass:
    obj = fields.json_checked(obj, dict, "coh")
    degree = fields.json_checked(obj["degree"], int, "degree")
    if degree < 0:
        raise DegreeOutOfRange(f"negative degree {degree}")
    symbols = []
    for factors in fields.json_checked(obj["symbols"], list, "symbols"):
        factors = fields.json_checked(factors, list, "symbol")
        symbols.append([fields.sq_from_json(f, field) for f in factors])
        if len(factors) != degree:
            raise DegreeOutOfRange(f"symbol of length {len(factors)} in a degree-{degree} class")
    return symbol_sum(field, degree, symbols)
