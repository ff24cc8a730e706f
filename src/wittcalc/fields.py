"""Base-field backends and canonical square classes.

Five backends are supported: the rationals, odd-characteristic prime fields,
the reals, the "formal" fields R((t_1))...((t_g)), and the rational Laurent
towers Q((t_1))...((t_g)).  A square class is a canonical representative of
an element of k*/k*^2; all quadratic forms, Witt classes and cohomology
symbols are built from these atoms.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Iterable, Iterator, Union

from .errors import (
    BackendMismatch,
    BadBackend,
    BadPlace,
    FactorLimitExceeded,
    InvalidInput,
    OrderingLengthMismatch,
    OrderingLimitExceeded,
    UnsupportedBackend,
    ZeroElement,
)

RATIONALS = "rationals"
FINITE = "finite"
REALS = "reals"
FORMAL = "formal"
LAURENT_Q = "laurent_q"
#: iterated Laurent series fields, whose payloads are (constant, generators)
TOWERS = (FORMAL, LAURENT_Q)

#: marker for the archimedean place in hilbert_symbol
INF = "inf"

DEFAULT_FACTOR_BOUND = 10**6

#: largest g whose 2^g orderings are enumerated
MAX_ORDERING_GENERATORS = 20


#: Miller-Rabin with these bases decides primality exactly below MR_LIMIT
#: (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def _proven_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; False when n is composite or too large to decide."""
    if n >= MR_LIMIT:
        return False
    s, d = _val(n - 1, 2)
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1) or a % n == 0:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: trial division tries every divisor below the first block start, then only
#: the blocks of 4096 integers whose primes share a factor with the cofactor;
#: _DIVISOR_END is the first odd number past the bound
_DIVISOR_END = (DEFAULT_FACTOR_BOUND + 1) | 1
_BLOCK_STARTS = range(1025, _DIVISOR_END, 4096)


@functools.cache
def _block_products() -> tuple[int, ...]:
    """Product of the primes in each block [lo, lo + 4096) of _BLOCK_STARTS,
    the last one cut at _DIVISOR_END: about 200 KB, sieved block by block
    on first use."""
    limit = isqrt(_DIVISOR_END)
    base = [p for p in range(3, limit + 1, 2) if all(p % q for q in range(3, isqrt(p) + 1, 2))]
    products = []
    for lo in _BLOCK_STARTS:
        odds = range(lo, min(lo + _BLOCK_STARTS.step, _DIVISOR_END), 2)
        sieve = bytearray([1]) * len(odds)
        for p in base:
            # odds[i] = lo + 2i is a multiple of p for i = -lo/2 mod p
            i = -lo * (p + 1) // 2 % p
            sieve[i::p] = bytes(len(sieve[i::p]))
        products.append(prod(itertools.compress(odds, sieve)))
    return tuple(products)


def factor(m: int) -> list[tuple[int, int]]:
    """Prime factorization of nonzero |m| as ascending (prime, exponent) pairs.

    Trial division runs up to DEFAULT_FACTOR_BOUND, stopping early once the
    cofactor above the bound is proven prime by Miller-Rabin; a cofactor with
    no factor up to the bound and not proven prime raises FactorLimitExceeded.
    """
    m = abs(m)
    out = []
    d, end = 2, _BLOCK_STARTS.start
    prime_left = m > DEFAULT_FACTOR_BOUND and _proven_prime(m)
    while d * d <= m and not prime_left:
        if d > DEFAULT_FACTOR_BOUND:
            raise FactorLimitExceeded(f"factor search exceeded bound {DEFAULT_FACTOR_BOUND}")
        if d == end:
            # the next block sharing a factor with m; past the last one, d
            # lands on _DIVISOR_END, where the loop stops or raises as before
            blocks = zip(_BLOCK_STARTS, _block_products())
            d = next((lo for lo, p in blocks if lo >= d and gcd(m, p) > 1), _DIVISOR_END)
            end = min(d + _BLOCK_STARTS.step, _DIVISOR_END)
            continue
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
            prime_left = m > DEFAULT_FACTOR_BOUND and _proven_prime(m)
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def _is_prime(n: int) -> bool:
    return n > 1 and factor(n) == [(n, 1)]


@dataclass(frozen=True)
class FieldDescriptor:
    kind: str
    p: int = 0
    g: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (RATIONALS, FINITE, REALS, FORMAL, LAURENT_Q):
            raise BadBackend(f"unknown field kind {self.kind!r}")
        if self.kind == FINITE:
            if self.p == 2 or not _is_prime(self.p):
                raise BadBackend(f"finite backend needs an odd prime, got {self.p}")
        if self.kind in TOWERS and self.g < 0:
            raise BadBackend(f"{self.kind} backend needs g >= 0")
        if self.kind not in TOWERS and self.g:
            # the reals are formal(0): orderings and signatures read g
            raise BadBackend(f"{self.kind} backend has no Laurent generators, got g = {self.g}")

    def __str__(self) -> str:
        if self.kind == FINITE:
            return f"fp:{self.p}"
        if self.kind == FORMAL:
            return f"formal:{self.g}"
        if self.kind == LAURENT_Q:
            return "Q" + "".join(f"((t_{i + 1}))" for i in range(self.g))
        return {"rationals": "q", "reals": "r"}[self.kind]


def rationals() -> FieldDescriptor:
    return FieldDescriptor(RATIONALS)


def finite_field(p: int) -> FieldDescriptor:
    return FieldDescriptor(FINITE, p=p)


def reals() -> FieldDescriptor:
    return FieldDescriptor(REALS)


def formal(g: int) -> FieldDescriptor:
    return FieldDescriptor(FORMAL, g=g)


def laurent_q(g: int) -> FieldDescriptor:
    """Q((t_1))...((t_g)); it has no CLI or JSON spelling."""
    return FieldDescriptor(LAURENT_Q, g=g)


def _unsupported(field: FieldDescriptor, what: str) -> UnsupportedBackend:
    return UnsupportedBackend(f"{what} is not implemented over {field}")


@dataclass(frozen=True)
class SquareClass:
    """Canonical representative of an element of k*/k*^2.

    Payloads by backend:
      rationals -- ``data`` is a nonzero squarefree int (sign included)
      finite    -- ``data`` is 0 (square) or 1 (the fixed nonresidue)
      reals     -- ``data`` is +1 or -1
      formal    -- ``data`` is ``(neg, gens)`` with ``gens`` a sorted tuple
                   of generator indices in ``range(g)``
      laurent_q -- ``data`` is ``(r, gens)`` with ``r`` a nonzero squarefree
                   int (the rational part) and ``gens`` as for formal
    """

    field: FieldDescriptor
    data: Union[int, tuple]

    def is_trivial(self) -> bool:
        return self.data == payload_units(self.field)[0]

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return sq_mul(self, other)


def canonicalize(raw, field: FieldDescriptor) -> SquareClass:
    """Canonical square class of a nonzero field element."""
    if isinstance(raw, SquareClass):
        if raw.field != field:
            raise BadBackend("square class belongs to a different backend")
        return raw
    if field.kind == RATIONALS:
        m = _integral(raw)
        odd = prod(p for p, e in factor(m) if e % 2)
        return SquareClass(field, odd if m > 0 else -odd)
    if field.kind == FINITE:
        v = residue(raw, field.p)
        if v == 0:
            raise ZeroElement("square class of zero")
        return SquareClass(field, 0 if pow(v, (field.p - 1) // 2, field.p) == 1 else 1)
    if field.kind == REALS:
        if not isinstance(raw, (int, Fraction)):
            raise BadBackend(f"cannot interpret {raw!r} over the reals")
        if raw == 0:
            raise ZeroElement("square class of zero")
        return SquareClass(field, 1 if raw > 0 else -1)
    if field.kind in TOWERS:
        # a rational constant keeps its sign over R((t)) (positive reals are
        # squares) and its square class over Q((t))
        if isinstance(raw, (int, Fraction)):
            raw, gens = (_integral(raw) < 0 if field.kind == FORMAL else raw), ()
        elif isinstance(raw, tuple) and len(raw) == 2:
            raw, gens = raw[0], _generator_tuple(raw[1], field)
        else:
            raise BadBackend(f"cannot interpret {raw!r} over {field}")
        const = bool(raw) if field.kind == FORMAL else canonicalize(raw, rationals()).data
        return SquareClass(field, (const, gens))
    raise _unsupported(field, "canonicalize")


def residue(raw, p: int) -> int:
    """The residue in range(p) of an int or Fraction whose denominator p
    does not divide; anything else raises BadBackend."""
    if not isinstance(raw, (int, Fraction)):
        raise BadBackend(f"cannot interpret {raw!r} over F_{p}")
    fr = Fraction(raw)
    if fr.denominator % p == 0:
        raise BadBackend(f"{raw!r} has no reduction mod {p}")
    return fr.numerator * pow(fr.denominator, -1, p) % p


def _integral(x) -> int:
    """An integer in the square class of the nonzero rational x."""
    if not isinstance(x, (int, Fraction)):
        raise BadBackend(f"cannot interpret {x!r} over the rationals")
    if x == 0:
        raise ZeroElement("square class of zero")
    return x.numerator * x.denominator


def _generator_tuple(gens, field: FieldDescriptor) -> tuple[int, ...]:
    gens = tuple(sorted(set(gens)))
    if any(not (0 <= i < field.g) for i in gens):
        raise BadBackend(f"generator index out of range for {field}")
    return gens


def payload_units(field: FieldDescriptor) -> tuple:
    """The payloads (``.data``) of the classes of 1 and of -1 over ``field``."""
    if field.kind == FINITE:
        return 0, 0 if field.p % 4 == 1 else 1  # -1 is a square iff p = 1 mod 4
    if field.kind == FORMAL:
        return (False, ()), (True, ())
    if field.kind == LAURENT_Q:
        return (1, ()), (-1, ())
    return 1, -1  # the rationals and the reals


def trivial_class(field: FieldDescriptor) -> SquareClass:
    return SquareClass(field, payload_units(field)[0])


def minus_one(field: FieldDescriptor) -> SquareClass:
    return SquareClass(field, payload_units(field)[1])


def generator(field: FieldDescriptor, i: int) -> SquareClass:
    """Square class of the Laurent variable t_{i+1} of a tower."""
    if field.kind not in TOWERS:
        raise BadBackend(f"{field} has no Laurent generators")
    if not 0 <= i < field.g:
        raise BadBackend(f"generator index out of range for {field}")
    return SquareClass(field, (False if field.kind == FORMAL else 1, (i,)))


def _squarefree_mul(a: int, b: int) -> int:
    """Squarefree part of a*b for squarefree a and b, without factoring."""
    return a * b // gcd(a, b) ** 2


def payload_mul(field: FieldDescriptor):
    """The product of two square-class payloads (``.data``) over ``field``."""
    kind = field.kind
    if kind == RATIONALS:
        return _squarefree_mul
    if kind == FINITE:
        return operator.xor
    if kind == REALS:
        return operator.mul
    if kind not in TOWERS:
        raise _unsupported(field, "sq_mul")
    const_mul = operator.xor if kind == FORMAL else _squarefree_mul
    return lambda a, b: (const_mul(a[0], b[0]), tuple(sorted(set(a[1]).symmetric_difference(b[1]))))


def payload_fold(field: FieldDescriptor):
    """The fold <-a> = -<a> over ``field``, as a map from a payload
    (``.data``) to (payload of the backend's preferred representative, sign)."""
    kind = field.kind
    if kind == RATIONALS:
        return lambda a: (-a, -1) if a < 0 else (a, 1)
    if kind == FINITE:
        # p = 3 mod 4: the nonresidue class is <-1>
        return (lambda a: (0, 1 - 2 * a)) if field.p % 4 == 3 else (lambda a: (a, 1))
    if kind == REALS:
        return lambda a: (1, a)
    if kind == FORMAL:
        return lambda a: ((False, a[1]), -1) if a[0] else (a, 1)
    if kind == LAURENT_Q:
        return lambda a: ((-a[0], a[1]), -1) if a[0] < 0 else (a, 1)
    raise _unsupported(field, "Witt arithmetic")


def sq_mul(a: SquareClass, b: SquareClass) -> SquareClass:
    if a.field != b.field:
        raise BackendMismatch("square classes over different backends")
    return SquareClass(a.field, payload_mul(a.field)(a.data, b.data))


def payload_basis(field: FieldDescriptor):
    """The decomposition of a payload (``.data``) over the F2-basis of the
    square-class group, as a map from a payload to the basis payloads.

    Rationals: {-1} and the primes; formal: {-1, t_1, ..., t_g};
    laurent_q: {-1, the primes, t_1, ..., t_g}; reals: {-1}; finite
    fields: the fixed nonresidue.  The trivial class decomposes as the
    empty product.
    """
    kind = field.kind
    if kind == RATIONALS:
        return lambda a: ((-1,) if a < 0 else ()) + tuple(p for p, _ in factor(a))
    if kind == FINITE:
        return lambda a: (1,) if a == 1 else ()
    if kind == REALS:
        return lambda a: (-1,) if a == -1 else ()
    if kind == FORMAL:
        return lambda a: (((True, ()),) if a[0] else ()) + tuple((False, (i,)) for i in a[1])
    rational = payload_basis(rationals())  # laurent_q
    return lambda a: tuple((c, ()) for c in rational(a[0])) + tuple((1, (i,)) for i in a[1])


def basis_factors(a: SquareClass) -> tuple[SquareClass, ...]:
    """The basis classes of ``a``, the SquareClass view of payload_basis."""
    return tuple(SquareClass(a.field, p) for p in payload_basis(a.field)(a.data))


def f2_reduce(rows: Iterable[int]) -> list[int]:
    """Gaussian elimination over F2 on bitmask rows.

    Each row is reduced, in input order, by the rows kept before it, each
    kept row pivoting on its top bit; the nonzero results are kept and
    returned in input order (dependent rows reduce to 0 and are dropped).
    A kept row changes no bit above its pivot, so the pivots set in a row are
    cleared from the highest down, each once: the unique fully reduced row.
    """
    pivots: dict[int, int] = {}  # top bit -> kept row, in input order
    mask = 0  # union of the pivot bits
    for row in rows:
        while hit := row & mask:
            row ^= pivots[1 << (hit.bit_length() - 1)]
        if row:
            top = 1 << (row.bit_length() - 1)
            pivots[top] = row
            mask |= top
    return list(pivots.values())


def f2_independent(classes) -> bool:
    """Whether the square classes are independent in the F2-space k*/k*^2."""
    bits: dict = {}  # basis payload -> bit
    rows = [
        sum(1 << bits.setdefault(f, len(bits)) for f in payload_basis(c.field)(c.data))
        for c in classes
    ]
    return len(f2_reduce(rows)) == len(rows)


def hilbert_places(values) -> list[int]:
    """2 and the primes dividing any of the nonzero integers, ascending: the
    finite places where their Hilbert symbols can be -1."""
    return sorted({2}.union(*({p for p, _ in factor(v)} for v in values)))


def _val(n: int, p: int) -> tuple[int, int]:
    """(v, n / p^v) for the p-adic valuation v of the nonzero integer n;
    the cofactor keeps the sign of n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _eps(u: int) -> int:
    return (u - 1) // 2 % 2


def _omega(u: int) -> int:
    return (u * u - 1) // 8 % 2


def hilbert_symbol(a, b, place) -> int:
    """Local Hilbert symbol (a, b)_v over Q.

    Returns +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the
    completion at ``place`` (an odd prime, 2, or fields.INF).  The closed
    formulas hold for any integers in the square classes, so the arguments
    are not factored.
    """
    a, b = _integral(a), _integral(b)
    if place == INF or place == float("inf"):
        return -1 if (a < 0 and b < 0) else 1
    if not isinstance(place, int) or not _is_prime(place):
        raise BadPlace(f"{place!r} is not a prime or infinity")
    return _hilbert_at_prime(a, b, place)


def _hilbert_at_prime(a: int, b: int, p: int) -> int:
    """(a, b)_p for nonzero integers a, b at a prime p that the caller has
    already proved prime (a place from hilbert_places); p is not checked."""
    alpha, u = _val(a, p)
    beta, v = _val(b, p)
    if p == 2:
        exp = _eps(u) * _eps(v) + alpha * _omega(v) + beta * _omega(u)
        return -1 if exp % 2 else 1
    s = -1 if (alpha * beta * _eps(p)) % 2 else 1
    # the Legendre symbol of u enters to the power beta, that of v to alpha
    if beta % 2 and pow(u % p, (p - 1) // 2, p) != 1:
        s = -s
    if alpha % 2 and pow(v % p, (p - 1) // 2, p) != 1:
        s = -s
    return s


def signature_at(a: SquareClass, ordering: tuple[int, ...]) -> int:
    """Sign of a square class under an ordering of the reals/formal backend."""
    field = a.field
    if field.kind not in (REALS, FORMAL):
        raise BackendMismatch("signatures exist only over reals/formal backends")
    if len(ordering) != field.g:
        raise OrderingLengthMismatch(
            f"ordering has length {len(ordering)}, expected {field.g}"
        )
    # the reals are formal(0), their payload +-1 the sign alone
    neg, gens = a.data if field.kind == FORMAL else (a.data < 0, ())
    s = -1 if neg else 1
    for i in gens:
        s *= ordering[i]
    return s


def orderings(field: FieldDescriptor) -> Iterator[tuple[int, ...]]:
    """All orderings of the backend (2^g sign patterns; one for the reals).

    Raises when called, not when first advanced, so a caller is refused
    above the cap before it allocates anything of size 2^g.
    """
    if field.kind not in (REALS, FORMAL):
        raise BackendMismatch("orderings exist only over reals/formal backends")
    if field.g > MAX_ORDERING_GENERATORS:
        raise OrderingLimitExceeded(
            f"{field} has 2^{field.g} orderings; at most "
            f"2^{MAX_ORDERING_GENERATORS} are enumerated"
        )
    return itertools.product((1, -1), repeat=field.g)


_JSON_KINDS = {list: "a list", dict: "an object", int: "an integer", str: "a string"}


def json_checked(obj, kind: type, what: str):
    """obj if it is a JSON list, object, integer or string as ``kind`` asks
    (a bool is not an integer); anything else raises InvalidInput."""
    if not isinstance(obj, kind) or isinstance(obj, bool):
        raise InvalidInput(f"{what} must be {_JSON_KINDS[kind]}, got {obj!r:.60}")
    return obj


def json_rationals(obj, what: str) -> list[Fraction]:
    """A JSON list of integers and rational strings such as "-3/4" as
    Fractions; a float, a bool or any other entry raises InvalidInput."""
    entries = json_checked(obj, list, what)
    non_string = f"{what} entry that is not a string"
    try:
        return [
            Fraction(x if isinstance(x, str) else json_checked(x, int, non_string)) for x in entries
        ]
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"{what} entry is not a rational number: {exc}") from None


def sq_to_json(a: SquareClass):
    if a.field.kind in (RATIONALS, FINITE):
        return a.data
    if a.field.kind == REALS:
        return "+" if a.data > 0 else "-"
    if a.field.kind == FORMAL:
        neg, gens = a.data
        return {"neg": neg, "gens": list(gens)}
    raise _unsupported(a.field, "JSON")


def sq_from_json(obj, field: FieldDescriptor) -> SquareClass:
    if field.kind in (RATIONALS, FINITE):
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise BadBackend(f"expected integer square class, got {obj!r}")
        if field.kind == FINITE and obj not in (0, 1):
            raise BadBackend(f"finite square class must be 0/1, got {obj!r}")
        return canonicalize(obj, field) if field.kind == RATIONALS else SquareClass(field, obj)
    if field.kind == REALS:
        if obj not in ("+", "-"):
            raise BadBackend(f"real square class must be '+'/'-', got {obj!r}")
        return SquareClass(field, 1 if obj == "+" else -1)
    if field.kind == FORMAL:
        if not isinstance(obj, dict):
            raise BadBackend(f"expected formal square class object, got {obj!r}")
        gens = json_checked(obj.get("gens", []), list, "gens")
        gens = tuple(json_checked(i, int, "generator index") for i in gens)
        neg = obj.get("neg", False)
        if not isinstance(neg, bool):
            raise InvalidInput(f"neg must be a boolean, got {neg!r:.60}")
        return canonicalize((neg, gens), field)
    raise _unsupported(field, "JSON")


def parse_field(text: str) -> FieldDescriptor:
    if text == "q":
        return rationals()
    if text == "r":
        return reals()
    if text.startswith("fp:"):
        return finite_field(int(text[3:]))
    if text.startswith("formal:"):
        return formal(int(text[7:]))
    raise BadBackend(f"cannot parse field {text!r}")
