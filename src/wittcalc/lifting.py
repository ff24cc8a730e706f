"""e-map extraction by signature interpolation, and sample-level
decomposition of a Witt-valued evaluation table over its generators.

Over R((t_1))...((t_g)) the total signature at the 2^g orderings determines
a Witt class; for a class in the d-th power of the fundamental ideal the
function (ordering -> signature / 2^d mod 2) is a polynomial of degree <= d
in the indicators x_i = [t_i < 0], whose coefficients C_T / 2^(d-|T|) mod 2
(witt._superset_sums) give the degree-d cohomological image symbol by symbol.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import add, mul, sub, xor

from . import fields
from .cohomology import CohClass, coh_sum
from .errors import (
    BackendMismatch,
    DegreeOutOfRange,
    InvalidInput,
    NotInIdealPower,
    NotInSpan,
    ResidualNonConstant,
    UnsupportedBackend,
)
from .weyl import MultiquadraticTorsor, torsor_from_json, torsor_to_json
from .witt import (
    WittClass,
    _superset_sums,
    pfister,
    signature_vector,
    witt_add,
    witt_from_json,
    witt_mul,
    witt_neg,
    witt_sub,
    witt_to_json,
    witt_zero,
)


def _e_masks(sigs: list[int], g: int, d: int) -> list[int]:
    """Generator masks (generator i on bit g-1-i) of the degree-d image of the
    class with signature vector ``sigs`` (decompose's residuals; the raises)."""
    if d < 0:
        raise DegreeOutOfRange(f"e-map degree {d} out of range")
    scale = 2**d
    bad = next((s for s in sigs if s % scale), None)
    if bad is not None:
        raise NotInIdealPower(f"signature {bad} not divisible by 2^{d}")
    f = [s >> d & 1 for s in sigs]
    # subset zeta transform over F2 in constant geometry: f[S] becomes the
    # xor of f[T] over T in S, the coefficient of prod_{i in S} x_i
    for _ in range(g):
        ev, od = f[0::2], f[1::2]
        f = ev + list(map(xor, ev, od))
    masks = [mask for mask, c in enumerate(f) if c]
    if any(mask.bit_count() > d for mask in masks):
        raise NotInIdealPower("signature function has degree above the requested power")
    return masks


def _image_masks(w: WittClass, d: int) -> list[int]:
    """_e_masks of a class, from its superset sums: T iff C_T / 2^(d-|T|) is
    odd; a negative d or a class outside I^d goes to _e_masks, which raises."""
    sums = _superset_sums(w, d)  # refuses g above the ordering cap first
    if d < 0 or any(c % (1 << (d - t.bit_count())) for t, c in sums.items()):
        return _e_masks(signature_vector(w), w.field.g, d)
    return [t for t, c in sums.items() if c >> (d - t.bit_count()) & 1]


def e_extract(w: WittClass, d: int) -> CohClass:
    """Degree-d cohomological image of a class in I^d over the formal backend."""
    field = w.field
    if field.kind != fields.FORMAL:
        raise UnsupportedBackend("signature interpolation needs the formal backend")
    g = field.g
    gens = [fields.generator(field, i).data for i in range(g)]
    products = ([gens[i] for i in range(g) if m >> (g - 1 - i) & 1] for m in _image_masks(w, d))
    return coh_sum(field, d, products)


@dataclass(frozen=True)
class EvaluationTable:
    """Witt values of one invariant on a shared list of formal torsors."""

    samples: tuple[MultiquadraticTorsor, ...]
    values: tuple[WittClass, ...]
    declared_degree: int

    def __post_init__(self) -> None:
        if len(self.samples) != len(self.values):
            raise InvalidInput("one value per sample required")
        d = self.declared_degree
        if any(w.field.kind != fields.FORMAL for w in self.values):
            raise UnsupportedBackend("tables are evaluated over the formal backend")
        if self.values and d < 0:
            raise DegreeOutOfRange("cap must be >= 0")
        # in I^d iff no signature has one of its low d bits set
        low = (1 << max(d, 0)) - 1
        if any(map(low.__and__, itertools.chain.from_iterable(self.signature_vectors))):
            raise InvalidInput("value below the declared filtration degree")
        if len({x.field for x in (*self.samples, *self.values)}) > 1:
            raise BackendMismatch("a table's samples and values must share one field")

    @functools.cached_property
    def signature_vectors(self) -> list[list[int]]:
        """witt.signature_vector of each value, computed once per table."""
        return [signature_vector(w) for w in self.values]


@dataclass(frozen=True)
class Decomposition:
    coefficients: tuple[WittClass, ...]
    constant: WittClass
    residual_ok: bool


def _solve_f2(rows: list[tuple[int, int]], ncols: int):
    """Solve the F2 system given as (column-bitmask, rhs-bit) rows; returns a
    particular solution bitmask (free columns 0) or None."""
    # augmented rows: column c on bit c + 1, the rhs on bit 0
    reduced = fields.f2_reduce(mask << 1 | rhs for mask, rhs in rows)
    if 1 in reduced:
        return None
    # each reduced row has its pivot column as top bit, so solve bottom-up
    sol = 1  # bit 0 stands for the rhs
    for row in sorted(reduced):
        top = 1 << (row.bit_length() - 1)
        if (row & ~top & sol).bit_count() % 2:
            sol |= top
    return sol >> 1


def decompose(
    target: EvaluationTable, generators: list[EvaluationTable], n0: int
) -> Decomposition:
    """Express the target table as a W-combination of the generator tables,
    peeling cohomological images degree by degree up to n0.

    Values are kept as signature vectors: W of the formal backend embeds in
    Z^(2^g) by its signatures, which multiply pointwise.  A degree-n
    normal-form symbol is kept as the mask of its generators (padded with
    (-1) up to n), so the cup of two symbols is the union of their masks.
    """
    if not target.samples:
        raise InvalidInput("empty sample list")
    field = target.values[0].field
    for tab in generators:
        if tab.samples != target.samples:
            raise BackendMismatch("tables must share the sample list")
        if tab.declared_degree > n0:
            raise InvalidInput("generator degree exceeds n0")
    g = field.g
    residual = target.signature_vectors
    # each generator's e-images at its declared degree, read from its values
    # when a degree first needs that generator
    gen_masks: list = [None] * len(generators)
    coeffs = [witt_zero(field) for _ in generators]
    gens = [fields.generator(field, j) for j in range(g)]
    m1 = fields.minus_one(field)
    # normal-form symbols as generator masks: subsets by size, then
    # lexicographic; those of degree n have at most n generators
    masks = [
        sum(1 << (g - 1 - j) for j in s)
        for k in range(min(n0, g) + 1)
        for s in itertools.combinations(range(g), k)
    ]
    for n in range(n0 + 1):
        if not any(map(any, residual)):
            break  # a zero residual has no image at any later degree
        r_masks = [set(_e_masks(r, g, n)) for r in residual]
        if not any(r_masks):
            continue
        basis = [b for b in masks if b.bit_count() <= n]
        # unknowns: (generator index, coefficient symbol mask); per unknown
        # and sample, the degree-n symbol masks of their cup
        unknowns = []
        columns = []
        for i, tab in enumerate(generators):
            m = tab.declared_degree
            if m > n:
                continue
            if gen_masks[i] is None:
                gen_masks[i] = [_image_masks(w, m) for w in tab.values]
            for b in basis:
                if b.bit_count() > n - m:
                    continue
                unknowns.append((i, n - m, b))
                col = []
                for ts in gen_masks[i]:
                    cup: set = set()
                    for t in ts:
                        cup ^= {b | t}
                    col.append(cup)
                columns.append(col)
        rows = []
        for s, rm in enumerate(r_masks):
            hit: dict[int, int] = {}
            for u, col in enumerate(columns):
                for t in col[s]:
                    hit[t] = hit.get(t, 0) | 1 << u
            rows.extend((hit.get(t, 0), int(t in rm)) for t in basis)
        sol = _solve_f2(rows, len(unknowns))
        if sol is None:
            raise NotInSpan(f"degree-{n} image not in the span of the generators")
        for u, (i, k, b) in enumerate(unknowns):
            if not (sol >> u & 1):
                continue
            factors = [gens[j] for j in range(g) if b >> (g - 1 - j) & 1]
            q = pfister(field, factors + [m1] * (k - len(factors)))
            # +q and -q have the same mod-2 image; pick the sign that
            # shrinks the signature profile of the residual, +q on a tie
            sq = signature_vector(q)
            prods = [list(map(mul, sq, sig)) for sig in generators[i].signature_vectors]
            plus = sum(sum(map(abs, map(sub, rs, ps))) for rs, ps in zip(residual, prods))
            minus = sum(sum(map(abs, map(add, rs, ps))) for rs, ps in zip(residual, prods))
            op = add if minus < plus else sub
            residual = [list(map(op, rs, ps)) for rs, ps in zip(residual, prods)]
            coeffs[i] = witt_add(coeffs[i], q if op is sub else witt_neg(q))
    # the signatures determine the class, so equal vectors are equal classes
    if any(r != residual[0] for r in residual[1:]):
        raise ResidualNonConstant("residual differs across samples")
    constant = target.values[0]
    for c, tab in zip(coeffs, generators):
        constant = witt_sub(constant, witt_mul(c, tab.values[0]))
    base_ok = not any(p[1] for p, _ in constant.data)
    return Decomposition(tuple(coeffs), constant, base_ok)


def table_to_json(tab: EvaluationTable):
    return {
        "samples": [torsor_to_json(t) for t in tab.samples],
        "values": [witt_to_json(w) for w in tab.values],
        "degree": tab.declared_degree,
    }


def table_from_json(obj) -> EvaluationTable:
    obj = fields.json_checked(obj, dict, "table")
    samples = fields.json_checked(obj["samples"], list, "samples")
    samples = tuple(torsor_from_json(t) for t in samples)
    values = fields.json_checked(obj["values"], list, "values")
    # checked before the values are read over the first sample's field
    if len(values) != len(samples):
        raise InvalidInput("one value per sample required")
    field = samples[0].field if samples else None
    values = tuple(witt_from_json(w, field) for w in values)
    return EvaluationTable(samples, values, fields.json_checked(obj["degree"], int, "degree"))
