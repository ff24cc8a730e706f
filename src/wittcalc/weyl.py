"""Signed-permutation (wreath product) groups and invariant evaluation.

The group (Z/2) wr S_n is the Weyl group of type B_n; elements are written
sigma * prod_{i in I} s_i with the sign flips acting first.  Multiquadratic
torsors are homomorphisms (Z/2)^m -> G cut out by independent square
classes; twisting finite G-sets along them produces etale algebras whose
trace forms realize the invariants a_K, a_L, u_d, v_d', v_d, r and the
rank-2 basis of the G2 Weyl group.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import fields
from .cohomology import (
    CohClass,
    coh_add,
    coh_unit,
    cup,
    sw_mod,
    sw_mod_lift,
    symbol_sum,
)
from .errors import (
    BadBackend,
    DegreeOutOfRange,
    InconsistentAction,
    InvalidInput,
    NotInDn,
    SizeMismatch,
    WrongTarget,
)
from .etale import DEGREE_CAP, EtaleAlgebra, Multiquadratic, trace_form
from .fields import FieldDescriptor, SquareClass, canonicalize, rationals
from .witt import (
    DiagonalForm,
    WittClass,
    from_diagonal,
    make_witt,
    witt_mul,
    witt_one,
)

SN = "sn"
BN = "bn"
DN = "dn"

# ---------------------------------------------------------------------------
# permutations: tuples p with p[i-1] = image of i, values 1-based


def perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Composite applying q first, then p."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def perm_inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


@dataclass(frozen=True)
class WreathElement:
    n: int
    perm: tuple[int, ...]
    flips: frozenset

    def __post_init__(self) -> None:
        if len(self.perm) != self.n or sorted(self.perm) != list(range(1, self.n + 1)):
            raise InvalidInput("perm is not a permutation of 1..n")
        if any(not (1 <= i <= self.n) for i in self.flips):
            raise InvalidInput("flip index out of range")

    def is_identity(self) -> bool:
        return self.perm == perm_identity(self.n) and not self.flips


def wreath(n: int, perm=None, flips=()) -> WreathElement:
    return WreathElement(n, tuple(perm) if perm else perm_identity(n), frozenset(flips))


def wreath_mul(a: WreathElement, b: WreathElement) -> WreathElement:
    """(sigma, I)(tau, J) = (sigma tau, tau^{-1}(I) xor J)."""
    if a.n != b.n:
        raise SizeMismatch("wreath elements of different degrees")
    binv = perm_inv(b.perm)
    moved = frozenset(binv[i - 1] for i in a.flips)
    return WreathElement(a.n, perm_mul(a.perm, b.perm), moved ^ b.flips)


def rho(a: WreathElement) -> tuple[int, ...]:
    """Underlying permutation of the n points."""
    return a.perm


def rho2(a: WreathElement) -> tuple[int, ...]:
    """Action on 2n points: j and j+n swap levels exactly when j is flipped."""
    n = a.n
    out = [0] * (2 * n)
    for j in range(1, n + 1):
        s = a.perm[j - 1]
        if j in a.flips:
            out[j - 1] = s + n
            out[n + j - 1] = s
        else:
            out[j - 1] = s
            out[n + j - 1] = s + n
    return tuple(out)


def dn_coset_action(n: int, a: WreathElement) -> tuple[int, ...]:
    """Action on the 2^{n-1} index-2-subgroup cosets, indexed by even-weight
    sign vectors: v -> sigma(v + w) with w the flip indicator.

    A vector is an int mask with coordinate j on bit n-1-j, so the masks in
    increasing order are the vectors in itertools.product order; of the
    masks 2k and 2k+1 exactly one has even weight, and it is coset k + 1."""
    if a.n != n:
        raise SizeMismatch("element degree does not match n")
    if len(a.flips) % 2:
        raise NotInDn("odd flip set is not in the index-2 subgroup")
    w = sum(1 << (n - i) for i in a.flips)
    # coordinate j of sigma(v) is coordinate pinv[j] - 1 of v, on bit n - pinv[j]
    src = [n - i for i in perm_inv(a.perm)]
    out = []
    for k in range(2 ** (n - 1)):
        v = (2 * k + k.bit_count() % 2) ^ w
        image = 0
        for b in src:
            image = image << 1 | v >> b & 1
        out.append(image // 2 + 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# torsors and G-sets


@dataclass(frozen=True)
class MultiquadraticTorsor:
    field: FieldDescriptor
    d: tuple[SquareClass, ...]
    target: tuple  # (SN|BN|DN, n)
    images: tuple[WreathElement, ...]

    def __post_init__(self) -> None:
        kind, n = self.target
        if kind not in (SN, BN, DN):
            raise InvalidInput(f"unknown target {kind!r}")
        if n < 1:
            raise InvalidInput(f"target degree must be >= 1, got {n}")
        if self.field.kind not in (fields.RATIONALS,) + fields.TOWERS:
            raise BadBackend("torsors live over the rationals or formal backends")
        if len(self.images) != len(self.d):
            raise InvalidInput("one image per square class required")
        if not fields.f2_independent(self.d):
            raise InvalidInput("square classes are not F2-independent")
        if self.field.kind in fields.TOWERS:
            # independent classes are distinct, so each need only be a generator
            for c in self.d:
                gs = c.data[1]
                if len(gs) != 1 or c != fields.generator(self.field, gs[0]):
                    raise InvalidInput("formal torsor classes must be distinct generators")
        for g in self.images:
            if g.n != n:
                raise SizeMismatch("image degree does not match target")
            if kind == SN and g.flips:
                raise InvalidInput("symmetric-group image cannot flip signs")
            if kind == DN and len(g.flips) % 2:
                raise NotInDn("image has odd flip set")
            if not wreath_mul(g, g).is_identity():
                raise InvalidInput("image is not an involution")
        for g, h in itertools.combinations(self.images, 2):
            if wreath_mul(g, h) != wreath_mul(h, g):
                raise InvalidInput("images do not commute")

    @property
    def n(self) -> int:
        return self.target[1]

    # Trace forms of the twisted G-sets, computed on first use into the
    # instance __dict__, which eq and hash do not read; a raise caches nothing.

    @functools.cached_property
    def rho_form(self) -> DiagonalForm:
        return trace_form(twist(self, gset_rho(self)))

    @functools.cached_property
    def rho2_form(self) -> DiagonalForm:
        return trace_form(twist(self, gset_rho2(self)))

    @functools.cached_property
    def dn_form(self) -> DiagonalForm:
        return trace_form(twist(self, gset_dn(self)))

    @property
    def rank(self) -> int:
        return len(self.d)


def torsor(field, d, target, images) -> MultiquadraticTorsor:
    return MultiquadraticTorsor(
        field,
        tuple(canonicalize(x, field) for x in d),
        (target[0], int(target[1])),
        tuple(images),
    )


@dataclass(frozen=True)
class GSet:
    """Commuting involutions of {1..size}, one per torsor generator."""

    size: int
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        ident = perm_identity(self.size)
        for p in self.perms:
            if sorted(p) != list(ident):
                raise InconsistentAction("action image is not a permutation")
            if perm_mul(p, p) != ident:
                raise InconsistentAction("action image is not an involution")
        for p, q in itertools.combinations(self.perms, 2):
            if perm_mul(p, q) != perm_mul(q, p):
                raise InconsistentAction("action images do not commute")


def gset_rho(t: MultiquadraticTorsor) -> GSet:
    return GSet(t.n, tuple(rho(g) for g in t.images))


def gset_rho2(t: MultiquadraticTorsor) -> GSet:
    return GSet(2 * t.n, tuple(rho2(g) for g in t.images))


def gset_dn(t: MultiquadraticTorsor) -> GSet:
    if t.n - 1 > DEGREE_CAP:
        # refused before dn_coset_action walks the 2^(n-1) coset masks
        raise DegreeOutOfRange(f"D_{t.n} has 2^{t.n - 1} cosets; at most 2^{DEGREE_CAP}")
    return GSet(2 ** (t.n - 1), tuple(dn_coset_action(t.n, g) for g in t.images))


def twist(t: MultiquadraticTorsor, x: GSet) -> EtaleAlgebra:
    """Twisted form of the split algebra on the G-set: one multiquadratic
    component per orbit, cut out by the characters orthogonal to the
    orbit stabilizer."""
    m = t.rank
    if len(x.perms) != m:
        raise InconsistentAction("one action image per torsor generator required")
    # generator subsets as bitmasks, generator i on bit m-1-i, so that rows
    # pivot on their lowest generator
    bits = [1 << (m - 1 - i) for i in range(m)]
    # the orbit of a point under commuting involutions is {eps . point}, so
    # the walk over eps that finds the stabilizer also marks the orbit
    seen: set[int] = set()
    components = []
    for start in range(1, x.size + 1):
        if start in seen:
            continue
        stab = []
        for eps in range(2**m):
            pt = start
            for i, bit in enumerate(bits):
                if eps & bit:
                    pt = x.perms[i][pt - 1]
            seen.add(pt)
            if pt == start:
                stab.append(eps)
        perp = [
            delta
            for delta in range(2**m)
            if all((delta & eps).bit_count() % 2 == 0 for eps in stab)
        ]
        classes = []
        for delta in fields.f2_reduce(perp):
            cls = fields.trivial_class(t.field)
            for i, bit in enumerate(bits):
                if delta & bit:
                    cls = cls * t.d[i]
            classes.append(cls)
        components.append(Multiquadratic(t.field, tuple(classes)))
    return EtaleAlgebra(t.field, tuple(components))


# ---------------------------------------------------------------------------
# invariant evaluators


def _require_target(t: MultiquadraticTorsor, kind: str) -> None:
    if t.target[0] != kind:
        raise WrongTarget(f"expected a {kind} torsor, got {t.target[0]}")


def eval_aK(t: MultiquadraticTorsor) -> DiagonalForm:
    """Trace form of the degree-n algebra twisted along the n-point action."""
    _require_target(t, BN)
    return t.rho_form


def eval_aL(t: MultiquadraticTorsor) -> DiagonalForm:
    """Trace form of the quadratic layer, via the 2n-point action."""
    _require_target(t, BN)
    return t.rho2_form


def eval_u(t: MultiquadraticTorsor, d: int) -> CohClass:
    if not 0 <= d <= t.n:
        raise DegreeOutOfRange(f"u degree {d} out of range for n = {t.n}")
    return sw_mod(eval_aK(t), d)


def eval_v_prime(t: MultiquadraticTorsor, d: int) -> CohClass:
    if not 0 <= d <= 2 * t.n:
        raise DegreeOutOfRange(f"v' degree {d} out of range for n = {t.n}")
    return sw_mod(eval_aL(t), d)


def eval_v(t: MultiquadraticTorsor, d: int) -> CohClass:
    """v_d = v'_d + sum_{i<d} u_{d-i} . v_i, with v_0 the unit."""
    if not 0 <= d <= 2 * t.n:
        raise DegreeOutOfRange(f"v degree {d} out of range for n = {t.n}")
    us = [None]  # us[k] = u_k, each evaluated once
    vs = [coh_unit(t.field)]
    for k in range(1, d + 1):
        acc = eval_v_prime(t, k)
        if k <= t.n:
            us.append(eval_u(t, k))
        for i in range(max(0, k - t.n), k):
            acc = coh_add(acc, cup(us[k - i], vs[i]))
        vs.append(acc)
    return vs[d]


def lift_u(t: MultiquadraticTorsor, d: int) -> WittClass:
    """Witt class whose degree-d e-image matches eval_u."""
    if not 0 <= d <= t.n:
        raise DegreeOutOfRange(f"u degree {d} out of range for n = {t.n}")
    return sw_mod_lift(t.n, d).apply(eval_aK(t))


def lift_v_prime(t: MultiquadraticTorsor, d: int) -> WittClass:
    if not 0 <= d <= 2 * t.n:
        raise DegreeOutOfRange(f"v' degree {d} out of range for n = {t.n}")
    return sw_mod_lift(2 * t.n, d).apply(eval_aL(t))


def eval_r(t: MultiquadraticTorsor) -> DiagonalForm:
    """Trace form of the 2^{n-1}-point coset algebra for the even subgroup."""
    _require_target(t, DN)
    return t.dn_form


def eval_dn_traces(t: MultiquadraticTorsor):
    """(a_K, a_L) of the torsor pushed into the full signed group."""
    _require_target(t, DN)
    b = MultiquadraticTorsor(t.field, t.d, (BN, t.n), t.images)
    return eval_aK(b), eval_aL(b)


def eval_g2_basis(t2: MultiquadraticTorsor, t3: MultiquadraticTorsor):
    """Basis evaluations (<1>, quadratic trace, cubic trace, product) for the
    product group S2 x S3."""
    _require_target(t2, SN)
    _require_target(t3, SN)
    if t2.n != 2 or t3.n != 3:
        raise WrongTarget("need torsors into S2 and S3")
    if t2.field != t3.field:
        raise BadBackend("component torsors over different backends")
    a2 = from_diagonal(t2.rho_form)
    a3 = from_diagonal(t3.rho_form)
    return witt_one(t2.field), a2, a3, witt_mul(a2, a3)


# ---------------------------------------------------------------------------
# specialization t_i -> rational square classes
#
# Specialization starts from Q((t_1))...((t_g)) (fields.laurent_q), where
# substituting nonzero rationals for the t_i is the square-class
# homomorphism that fixes the rational constants.  It does not start from
# formal(g) = R((t_1))...((t_g)): there every positive constant, 2 among
# them, is a square, so t_i -> rationals would lose the class of 2 that
# trace forms and the <<2>> part of the sw_mod lifts carry.


def _specialize(field: FieldDescriptor, payload, subs) -> SquareClass:
    """specialize_class of the class of ``field`` with payload ``payload``."""
    if field.kind != fields.LAURENT_Q:
        raise BadBackend(
            "specialization starts from laurent_q(g): 2 is a square in R((t)), "
            "so t_i -> rationals is not a specialization of formal(g)"
        )
    if len(subs) != field.g:
        raise InvalidInput("one substitution per generator required")
    r, gens = payload
    val = Fraction(r)
    for i in gens:
        val *= Fraction(subs[i])
    return canonicalize(val, rationals())


def specialize_class(c: SquareClass, subs) -> SquareClass:
    """Image over Q of a square class of Q((t_1))...((t_g)) under t_i -> subs[i]."""
    return _specialize(c.field, c.data, subs)


def specialize_witt(w: WittClass, subs) -> WittClass:
    """Witt class over Q((t_1))...((t_g)) specialized termwise to Q."""
    return make_witt(rationals(), [(_specialize(w.field, p, subs), k) for p, k in w.data])


def specialize_form(q: DiagonalForm, subs) -> DiagonalForm:
    """Diagonal form over Q((t_1))...((t_g)) specialized entrywise to Q."""
    return DiagonalForm(
        rationals(), tuple(specialize_class(e, subs) for e in q.entries)
    )


def specialize_coh(c: CohClass, subs) -> CohClass:
    """Symbol class over Q((t_1))...((t_g)) specialized factorwise to Q."""
    images = [[_specialize(c.field, p, subs) for p in s] for s in c.data]
    return symbol_sum(rationals(), c.degree, images)


def specialize_torsor(t: MultiquadraticTorsor, subs) -> MultiquadraticTorsor:
    """Torsor over Q((t_1))...((t_g)) with each d_i = t_j replaced by its
    substituted rational value; the cocycle data is unchanged."""
    return MultiquadraticTorsor(
        rationals(),
        tuple(specialize_class(c, subs) for c in t.d),
        t.target,
        t.images,
    )


# ---------------------------------------------------------------------------
# JSON


def wreath_to_json(g: WreathElement):
    return {"perm": list(g.perm), "flips": sorted(g.flips)}


def wreath_from_json(obj, n: int) -> WreathElement:
    obj = fields.json_checked(obj, dict, "image")
    perm = fields.json_checked(obj["perm"], list, "perm")
    flips = fields.json_checked(obj.get("flips", []), list, "flips")
    for i in perm + flips:
        fields.json_checked(i, int, "perm or flips entry")
    return WreathElement(n, tuple(perm), frozenset(flips))


def torsor_to_json(t: MultiquadraticTorsor):
    return {
        "field": str(t.field),
        "d": [fields.sq_to_json(c) for c in t.d],
        "target": {"type": t.target[0], "n": t.target[1]},
        "images": [wreath_to_json(g) for g in t.images],
    }


def torsor_from_json(obj) -> MultiquadraticTorsor:
    obj = fields.json_checked(obj, dict, "torsor")
    field = fields.parse_field(fields.json_checked(obj["field"], str, "field"))
    target = fields.json_checked(obj["target"], dict, "target")
    n = fields.json_checked(target["n"], int, "n")
    return MultiquadraticTorsor(
        field,
        tuple(fields.sq_from_json(c, field) for c in fields.json_checked(obj["d"], list, "d")),
        (target["type"], n),
        tuple(wreath_from_json(g, n) for g in fields.json_checked(obj["images"], list, "images")),
    )
