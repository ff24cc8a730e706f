"""Diagonal quadratic forms and Witt-ring arithmetic.

Witt classes are stored as integer combinations of square-class payloads
(``SquareClass.data``); ``WittClass.terms`` builds the SquareClass view only
when it is read.  The presentation is normalized (signs folded into
coefficients where the backend has a preferred representative) but is not a
canonical form over Q; equality there is a decision procedure built on
Hasse-Minkowski invariants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from . import fields
from .errors import (
    BackendMismatch,
    DegenerateMatrix,
    DegreeOutOfRange,
    UnsupportedBackend,
)
from .fields import (
    FieldDescriptor,
    SquareClass,
    canonicalize,
    minus_one,
    orderings,
    signature_at,
    sq_mul,
    trivial_class,
)


@dataclass(frozen=True)
class DiagonalForm:
    field: FieldDescriptor
    entries: tuple[SquareClass, ...]

    def __post_init__(self) -> None:
        for e in self.entries:
            if e.field != self.field:
                raise BackendMismatch("diagonal entry over a different backend")

    @property
    def dim(self) -> int:
        return len(self.entries)


def diagonal(field: FieldDescriptor, raws) -> DiagonalForm:
    return DiagonalForm(field, tuple(canonicalize(r, field) for r in raws))


@dataclass(frozen=True)
class WittClass:
    field: FieldDescriptor
    data: tuple[tuple, ...]  # (payload, coeff): sorted, folded, nonzero coeffs

    @property
    def terms(self) -> tuple[tuple[SquareClass, int], ...]:
        """The (SquareClass, coeff) view of ``data``, built on each read."""
        return tuple((SquareClass(self.field, p), k) for p, k in self.data)

    def is_presented_zero(self) -> bool:
        return not self.data


def _sum(field: FieldDescriptor, terms) -> WittClass:
    """The class sum k<p> over (payload p, coeff k) pairs whose payloads are
    folded (fields.payload_fold gives them sign +1): equal payloads summed,
    zeros dropped, sorted by payload.  Folded payloads are closed under
    fields.payload_mul, so sums and products of classes come here unfolded."""
    acc: dict = {}
    for p, k in terms:
        acc[p] = acc.get(p, 0) + k
    return WittClass(field, tuple((p, acc[p]) for p in sorted(acc) if acc[p]))


def _witt(field: FieldDescriptor, terms) -> WittClass:
    """The class sum k<p> over (payload p, coeff k) pairs: each term folded
    by fields.payload_fold, then summed by _sum."""
    fold = fields.payload_fold(field)
    return _sum(field, ((q, s * k) for p, k in terms for q, s in (fold(p),)))


def make_witt(field: FieldDescriptor, term_map) -> WittClass:
    """The class sum k<c> over a {SquareClass: coeff} map or (c, k) pairs."""
    terms = term_map.items() if isinstance(term_map, dict) else term_map
    return _witt(field, ((c.data, k) for c, k in terms))


def witt_zero(field: FieldDescriptor) -> WittClass:
    return WittClass(field, ())


def witt_one(field: FieldDescriptor) -> WittClass:
    return _witt(field, [(fields.payload_units(field)[0], 1)])


def from_diagonal(q: DiagonalForm) -> WittClass:
    return _witt(q.field, ((e.data, 1) for e in q.entries))


def witt_add(a: WittClass, b: WittClass) -> WittClass:
    if a.field != b.field:
        raise BackendMismatch("witt classes over different backends")
    return _sum(a.field, a.data + b.data)


def witt_neg(a: WittClass) -> WittClass:
    return WittClass(a.field, tuple((p, -k) for p, k in a.data))


def witt_sub(a: WittClass, b: WittClass) -> WittClass:
    return witt_add(a, witt_neg(b))


def witt_mul(a: WittClass, b: WittClass) -> WittClass:
    if a.field != b.field:
        raise BackendMismatch("witt classes over different backends")
    mul = fields.payload_mul(a.field)
    return _sum(a.field, ((mul(pa, pb), ka * kb) for pa, ka in a.data for pb, kb in b.data))


def witt_int_scale(k: int, a: WittClass) -> WittClass:
    return WittClass(a.field, tuple((p, k * v) for p, v in a.data) if k else ())


def pfister(field: FieldDescriptor, alphas) -> WittClass:
    """n-fold Pfister form <<a_1, ..., a_n>> = (x) (<1> - <a_i>), which is
    sum_j (-1)^j lambda^j <a_1, ..., a_n>; the empty product is <1>."""
    q = diagonal(field, alphas)
    return lambda_combination(q, [(-1) ** j for j in range(q.dim + 1)])


@dataclass(frozen=True)
class PfisterPresentation:
    """Integer combination of d-fold Pfister forms."""

    field: FieldDescriptor
    degree: int
    terms: tuple[tuple[int, tuple[SquareClass, ...]], ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise DegreeOutOfRange(f"negative degree {self.degree}")
        for _, gens in self.terms:
            if len(gens) != self.degree:
                raise DegreeOutOfRange("pfister term of wrong degree")

    def to_witt(self) -> WittClass:
        forms = [(coeff, pfister(self.field, gens)) for coeff, gens in self.terms]
        return _sum(self.field, ((p, coeff * k) for coeff, w in forms for p, k in w.data))


def _lambda_rows(field: FieldDescriptor, entries: list, d: int) -> list[dict]:
    """Folded payload -> coefficient maps of lambda^0..lambda^d in W of the
    form with the payloads ``entries``, in one iterative DP: each entry is
    folded once (fields.payload_fold), and folded payloads are closed under
    fields.payload_mul, so every row stays folded."""
    mul, fold = fields.payload_mul(field), fields.payload_fold(field)
    rows: list[dict] = [{fields.payload_units(field)[0]: 1}] + [dict() for _ in range(d)]
    for idx, (a, s) in enumerate(map(fold, entries)):
        for j in range(min(d, idx + 1), 0, -1):
            tgt = rows[j]
            for c, k in rows[j - 1].items():
                c = mul(c, a)
                tgt[c] = tgt.get(c, 0) + s * k
    return rows


#: forms of this dimension and above take lambda-powers from the split, whose
#: fixed cost loses to the DP on smaller forms (crossover measured over Q)
SPLIT_DIM = 10


def lambda_power(q: DiagonalForm, d: int) -> WittClass:
    """Sum of <prod_{i in I} a_i> over size-d subsets I."""
    if not 0 <= d <= q.dim:
        raise DegreeOutOfRange(f"lambda degree {d} out of range for dim {q.dim}")
    return lambda_combination(q, [0] * d + [1])


def lambda_combination(q: DiagonalForm, coeffs) -> WittClass:
    """sum_l coeffs[l] lambda^l(q).

    Below SPLIT_DIM entries, from one DP over the entries.  From SPLIT_DIM
    on, from lambda^l(q_1 + q_2) = sum_k lambda^k(q_1) lambda^(l-k)(q_2)
    over the two halves of the entries (McGarraghy, Exterior powers of
    symmetric bilinear forms, 2002), multiplying only the pairs of DP rows
    whose coefficient is nonzero, so lambda^d costs about as much as its
    output.  Both run in W, GW -> W being a ring map: the rows are folded
    (_lambda_rows), and their products are summed as they are.
    """
    top = len(coeffs) - 1
    if top > q.dim:
        raise DegreeOutOfRange(f"lambda degree {top} out of range for dim {q.dim}")
    field, entries = q.field, [e.data for e in q.entries]
    if q.dim < SPLIT_DIM:
        rows = _lambda_rows(field, entries, top)
        return _sum(field, ((p, c * k) for c, row in zip(coeffs, rows) if c for p, k in row.items()))
    h = q.dim // 2
    left, right = (
        [_sum(field, row.items()).data for row in _lambda_rows(field, half, min(top, len(half)))]
        for half in (entries[:h], entries[h:])
    )
    pairs = [
        (a, b, c)
        for k, a in enumerate(left)
        for m, b in enumerate(right[: top - k + 1])
        if (c := coeffs[k + m])
    ]
    mul = fields.payload_mul(field)
    return _sum(field, ((mul(pa, pb), c * ka * kb) for a, b, c in pairs for pa, ka in a for pb, kb in b))


def _det(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


@dataclass(frozen=True)
class GramMatrix:
    field: FieldDescriptor
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise DegenerateMatrix("gram matrix is not square")
        for i in range(n):
            for j in range(n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise DegenerateMatrix("gram matrix is not symmetric")

    @property
    def dim(self) -> int:
        return len(self.entries)


def gram(field: FieldDescriptor, rows) -> GramMatrix:
    return GramMatrix(field, tuple(tuple(Fraction(x) for x in row) for row in rows))


def gram_of_diagonal(q: DiagonalForm) -> GramMatrix:
    if q.field.kind != fields.RATIONALS:
        raise UnsupportedBackend("explicit Gram matrices are rational-only")
    n = q.dim
    rows = [
        [Fraction(q.entries[i].data) if i == j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    return GramMatrix(q.field, tuple(tuple(r) for r in rows))


def lambda_power_gram_oracle(g: GramMatrix, d: int) -> GramMatrix:
    """Gram matrix of the d-th exterior power: entries are d x d minors."""
    n = g.dim
    if not 0 <= d <= n:
        raise DegreeOutOfRange(f"lambda degree {d} out of range for dim {n}")
    basis = list(itertools.combinations(range(n), d))
    rows = []
    for I in basis:
        row = []
        for J in basis:
            row.append(_det([[g.entries[i][j] for j in J] for i in I]))
        rows.append(tuple(row))
    return GramMatrix(g.field, tuple(rows))


def diagonalize(g: GramMatrix) -> DiagonalForm:
    """Diagonal form congruent to g, by symmetric pivoting over exact
    rationals, or over the residues mod p on fp:p (an entry whose
    denominator p divides raises BadBackend, as in fields.canonicalize)."""
    n, field = g.dim, g.field
    p = field.p if field.kind == fields.FINITE else 0
    m = [[fields.residue(x, p) for x in row] if p else list(row) for row in g.entries]
    entries = []
    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if j is not None:
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                # all remaining diagonal entries vanish; repair with an
                # off-diagonal entry (adds 2*m[k][j] to the pivot, char != 2)
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    raise DegenerateMatrix("gram matrix is degenerate")
                m[k] = [x + y for x, y in zip(m[k], m[j])]
                for row in m:
                    row[k] += row[j]
                    if p:
                        row[k] %= p
        # only rows and columns k+1.. are read again; row k is left as it
        # is, so that trailing block stays symmetric without a column pass
        piv, top = m[k][k], m[k][k + 1 :]
        for i in range(k + 1, n):
            f = m[i][k] * pow(piv, -1, p) % p if p else m[i][k] / piv
            if f == 0:
                continue
            row = [x - f * y for x, y in zip(m[i][k + 1 :], top)]
            m[i][k + 1 :] = [x % p for x in row] if p else row
        entries.append(canonicalize(piv, field))
    return DiagonalForm(field, tuple(entries))


def _runs(a: WittClass) -> list[tuple]:
    """The class as runs (payload, m) of m > 0 equal diagonal entries
    (m copies of <-x> for -m<x>), one run per term."""
    mul, m1 = fields.payload_mul(a.field), fields.payload_units(a.field)[1]
    return [(p, k) if k > 0 else (mul(p, m1), -k) for p, k in a.data]


def _realized_entries(a: WittClass) -> list[SquareClass]:
    """Actual diagonal entries representing the class (<-x> for -<x>)."""
    return [SquareClass(a.field, rep) for rep, m in _runs(a) for _ in range(m)]


def total_signature(a: WittClass, ordering: tuple[int, ...]) -> int:
    return sum(k * signature_at(cls, ordering) for cls, k in a.terms)


def _signed_masks(a: WittClass) -> list[tuple[int, int]]:
    """(generator mask, coefficient) of each term, generator i on bit g-1-i
    and <-x> as -<x>; the reals count as formal(0)."""
    g, out = a.field.g, []
    for p, k in a.data:
        neg, gens = p if a.field.kind == fields.FORMAL else (p < 0, ())
        out.append((sum(1 << (g - 1 - i) for i in gens), -k if neg else k))
    return out


def signature_vector(a: WittClass) -> list[int]:
    """Signatures of the class at every ordering, listed as fields.orderings
    lists them: the Walsh-Hadamard transform of its coefficients indexed by
    generator mask, generator i on bit g-1-i, in O(g 2^g)."""
    if a.field.kind not in (fields.REALS, fields.FORMAL):
        raise UnsupportedBackend("signatures need the reals or formal backend")
    orderings(a.field)  # raises OrderingLimitExceeded before 2^g slots exist
    g = a.field.g
    f = [0] * (1 << g)
    for s, c in _signed_masks(a):
        f[s] += c
    # constant-geometry butterflies: a pass combines the entries that differ
    # in bit 0 and rotates the index right, so g passes restore the bit order
    for _ in range(g):
        ev, od = f[0::2], f[1::2]
        f = list(map(add, ev, od))
        f += map(sub, ev, od)
    return f


def signatures(a: WittClass) -> dict[tuple[int, ...], int]:
    """Signature of the class at each ordering of the reals/formal backend."""
    sigs = signature_vector(a)  # raises UnsupportedBackend off the reals/formal
    return dict(zip(orderings(a.field), sigs))


def _superset_sums(a: WittClass, k: int) -> dict[int, int]:
    """The nonzero C_T = sum of the coefficients c_S over S containing T
    (_signed_masks), |T| <= k.  The signature with the generators of x negative
    is sum_{T in x} (-2)^|T| C_T: a is in I^d iff 2^(d-|T|) | C_T for |T| < d.
    Subsets are enumerated until they number over g 2^g, then transformed."""
    orderings(a.field)  # raises OrderingLimitExceeded above the cap
    g, k = a.field.g, min(k, a.field.g)
    terms = _signed_masks(a)
    acc, budget = {}, g << g
    for s, c in terms:
        subsets = [0]  # those of s with at most k bits
        for b in [1 << j for j in range(g) if s >> j & 1]:
            subsets += [t | b for t in subsets if t.bit_count() < k]
        budget -= len(subsets)
        if budget < 0:
            f = [0] * (1 << g)
            for m, v in terms:
                f[m] += v
            for _ in range(g):  # constant geometry: f[T] += f[T | 1], rotate right
                ev, od = f[0::2], f[1::2]
                f = list(map(add, ev, od)) + od
            return {t: c for t, c in enumerate(f) if c and t.bit_count() <= k}
        for t in subsets:
            acc[t] = acc.get(t, 0) + c
    return {t: c for t, c in acc.items() if c and t.bit_count() <= k}


def filtration_degree(a: WittClass, cap: int) -> int:
    """Largest d <= cap with a in I^d: min |T| + v_2(C_T) over _superset_sums."""
    if a.field.kind not in (fields.REALS, fields.FORMAL):
        raise UnsupportedBackend("filtration degree needs the reals or formal backend")
    if cap < 0:
        raise DegreeOutOfRange("cap must be >= 0")
    sums = _superset_sums(a, cap - 1).items()
    return min([cap] + [t.bit_count() + (c & -c).bit_length() - 1 for t, c in sums])


def virtual_rank(a: WittClass) -> int:
    return sum(k for _, k in a.data)


def _disc_class(field: FieldDescriptor, entries: list[SquareClass]) -> SquareClass:
    r = len(entries)
    disc = trivial_class(field)
    for e in entries:
        disc = sq_mul(disc, e)
    if (r * (r - 1) // 2) % 2:
        disc = sq_mul(disc, minus_one(field))
    return disc


def witt_eq(a: WittClass, b: WittClass) -> bool:
    """Equality in W(k), decided per backend."""
    if a.field != b.field:
        raise BackendMismatch("witt classes over different backends")
    field = a.field
    if field.kind not in (fields.RATIONALS, fields.FINITE, fields.REALS, fields.FORMAL):
        # Q((t_1))...((t_g)) needs Springer residue forms
        raise UnsupportedBackend(f"witt_eq is not implemented over {field}")
    w = witt_sub(a, b)
    if field.kind in (fields.REALS, fields.FORMAL):
        # W of the iterated Laurent field is Z[(Z/2)^g], the reals being
        # g = 0; the folded presentation is canonical.
        return w.is_presented_zero()
    # w is hyperbolic iff dim 2h, trivial discriminant and, over Q,
    # signature 0 and the Hasse invariant of h hyperbolic planes everywhere.
    # Each run of m equal entries is read once, so the cost does not grow
    # with m.
    runs = _runs(w)
    dim = sum(m for _, m in runs)
    if dim % 2:
        return False
    h = dim // 2
    # disc = (-1)^(dim(dim-1)/2) times the entries, and dim(dim-1)/2 = h mod 2
    mul, (one, m1) = fields.payload_mul(field), fields.payload_units(field)
    disc = m1 if h % 2 else one
    for rep, m in runs:
        if m % 2:
            disc = mul(disc, rep)
    if disc != one:
        return False
    if field.kind == fields.FINITE:
        return True
    if sum(m if rep > 0 else -m for rep, m in runs) != 0:
        return False
    target_exp = (h * (h - 1) // 2) % 2
    for p in fields.hilbert_places(rep for rep, _ in runs):
        if _hasse_invariant(runs, p) != fields._hilbert_at_prime(-1, -1, p) ** target_exp:
            return False
    return True


def _hasse_invariant(runs: list[tuple[int, int]], p: int) -> int:
    """prod_{i<j} (a_i, a_j)_p over the realized entries a_i of ``runs``
    over Q, at a place p from fields.hilbert_places.

    By bilinearity it is prod_j (a_1...a_{j-1}, a_j)_p (Serre, A Course in
    Arithmetic, III.1).  A run of m entries <r> after the prefix product P
    contributes (P, r)_p^m (r, r)_p^(m(m-1)/2), one symbol since
    (r, r) = (-1, r); P is kept squarefree, so it is never factored.
    """
    s, prefix = 1, 1
    for r, m in runs:
        a = prefix if m % 2 else 1
        if m * (m - 1) // 2 % 2:
            a = -a
        s *= fields._hilbert_at_prime(a, r, p)
        if m % 2:
            prefix = fields._squarefree_mul(prefix, r)
    return s


def witt_to_json(a: WittClass):
    return [{"class": fields.sq_to_json(c), "coeff": k} for c, k in a.terms]


def terms_from_json(obj) -> list[tuple[dict, int]]:
    """(term object, coeff) for a JSON list of term objects, each with a
    JSON-integer ``coeff``; anything else raises InvalidInput."""
    out = []
    for t in fields.json_checked(obj, list, "terms"):
        t = fields.json_checked(t, dict, "term")
        out.append((t, fields.json_checked(t["coeff"], int, "coeff")))
    return out


def witt_from_json(obj, field: FieldDescriptor) -> WittClass:
    return make_witt(
        field, [(fields.sq_from_json(t["class"], field), k) for t, k in terms_from_json(obj)]
    )


def form_to_json(q: DiagonalForm):
    return [fields.sq_to_json(e) for e in q.entries]


def form_from_json(obj, field: FieldDescriptor) -> DiagonalForm:
    entries = fields.json_checked(obj, list, "form")
    return DiagonalForm(field, tuple(fields.sq_from_json(e, field) for e in entries))


def gram_from_json(obj, field: FieldDescriptor) -> GramMatrix:
    rows = fields.json_checked(obj, list, "gram")
    return gram(field, [fields.json_rationals(row, "gram row") for row in rows])
