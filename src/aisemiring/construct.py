"""Derived algebras: flat semirings from 0-cancellative semigroups, word
semirings, null/idempotent extensions, cyclic structure and the
nonfinite-basis witness check."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .core import (
    MAX_BUILT_ORDER,
    FiniteAiSemiring,
    Morphism,
    Table,
    _as_table,
    _associativity,
    element_names,
    find_embedding,
    natural_order,
)
from .terms import word


class NotZeroCancellativeError(ValueError):
    def __init__(self, triple: tuple[int, int, int], side: str):
        self.triple = triple
        self.side = side
        super().__init__(f"{side} 0-cancellativity fails at {triple}")


class NotFlatError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteSemigroup:
    """A finite semigroup table, optionally with a designated zero or identity."""

    elements: tuple[str, ...]
    mul: tuple[tuple[int, ...], ...]
    zero: Optional[int] = None
    identity: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "mul", _as_table(self.mul, "mul"))
        n = len(self.mul)
        object.__setattr__(self, "elements", element_names(n, self.elements))
        for what, v in (("zero", self.zero), ("identity", self.identity)):
            if v is not None and (type(v) is not int or not 0 <= v < n):
                raise ValueError(f"{what} {v!r} is not an element index 0..{n - 1}")
        witness = _associativity(self.mul)
        if witness is not None:
            raise ValueError("multiplication not associative at ({},{},{})".format(*witness))
        rng = range(n)
        if self.zero is not None:
            z = self.zero
            if any(self.mul[z][a] != z or self.mul[a][z] != z for a in rng):
                raise ValueError("designated zero is not absorbing")
        if self.identity is not None:
            e = self.identity
            if any(self.mul[e][a] != a or self.mul[a][e] != a for a in rng):
                raise ValueError("designated identity is not neutral")

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteSemigroup":
        return cls(data["elements"], data["mul"], zero=data.get("zero"), identity=data.get("identity"))


def _violating_triple(G: FiniteSemigroup) -> Optional[tuple[tuple[int, int, int], str]]:
    z = G.zero
    rng = range(G.order)
    for a, b, c in itertools.product(rng, repeat=3):
        if b != c and G.mul[a][b] == G.mul[a][c] != z:
            return (a, b, c), "left"
        if b != c and G.mul[b][a] == G.mul[c][a] != z:
            return (a, b, c), "right"
    return None


def is_zero_cancellative(G: FiniteSemigroup) -> bool:
    """ab = ac != 0 forces b = c, on both sides."""
    if G.zero is None:
        raise ValueError("semigroup has no designated zero")
    return _violating_triple(G) is None


def flat_addition(n: int, top: int) -> Table:
    """The height-1 semilattice on n elements: a + a = a, a + b = top otherwise."""
    return tuple(tuple(a if a == b else top for b in range(n)) for a in range(n))


def flat_from_semigroup(G: FiniteSemigroup) -> FiniteAiSemiring:
    """Make the 0-cancellative semigroup flat: a + a = a, a + b = 0 otherwise."""
    if G.zero is None:
        raise ValueError("semigroup has no designated zero")
    bad = _violating_triple(G)
    if bad is not None:
        raise NotZeroCancellativeError(*bad)
    return FiniteAiSemiring.from_tables(flat_addition(G.order, G.zero), G.mul, elements=G.elements, name="")


def cyclic_group_with_zero(k: int) -> FiniteSemigroup:
    """The cyclic group of order k with an absorbing zero adjoined at index 0;
    k + 1 above MAX_BUILT_ORDER raises ValueError."""
    if k < 1:
        raise ValueError("group order must be positive")
    if k + 1 > MAX_BUILT_ORDER:
        raise ValueError(f"Z{k} with a zero would have {k + 1} elements, more than {MAX_BUILT_ORDER}")
    n = k + 1
    mul = [[0] * n for _ in range(n)]
    for a, b in itertools.product(range(1, n), repeat=2):
        mul[a][b] = (a - 1 + b - 1) % k + 1
    elements = ("0",) + tuple("e" if i == 0 else f"g{i}" for i in range(k))
    return FiniteSemigroup(elements=elements, mul=tuple(map(tuple, mul)), zero=0, identity=1)


def is_abelian_group_with_zero(G: FiniteSemigroup) -> bool:
    """The zero removed, is what remains an abelian group?"""
    if G.zero is None:
        return False
    rest = [a for a in range(G.order) if a != G.zero]
    if not rest:
        return False
    for a, b in itertools.product(rest, repeat=2):
        if G.mul[a][b] == G.zero or G.mul[a][b] != G.mul[b][a]:
            return False
    idents = [e for e in rest if all(G.mul[e][a] == a for a in rest)]
    if len(idents) != 1:
        return False
    e = idents[0]
    return all(any(G.mul[a][b] == e for b in rest) for a in rest)


# ---------------------------------------------------------------------------
# word semirings


def _factors(letters: tuple[str, ...]) -> set[tuple[str, ...]]:
    n = len(letters)
    return {letters[i:j] for i in range(n) for j in range(i + 1, n + 1)}


def _divisors(letters: tuple[str, ...]) -> set[tuple[str, ...]]:
    counts: dict[str, int] = {}
    for x in letters:
        counts[x] = counts.get(x, 0) + 1
    keys = sorted(counts)
    out = set()
    for choice in itertools.product(*(range(counts[k] + 1) for k in keys)):
        if any(choice):
            out.add(tuple(x for k, c in zip(keys, choice) for x in [k] * c))
    return out


def word_semiring(texts: Sequence[str], commutative: bool, monoid: bool) -> FiniteAiSemiring:
    """The flat semiring on all nonempty subwords of the generating words plus
    0, and the empty word too if ``monoid``.

    Subword means contiguous factor in the plain flavours and divisor multiset
    in the ``commutative`` ones; products fall to 0 as soon as they leave the
    carrier.  No generating word, or a carrier of more than MAX_BUILT_ORDER
    elements, raises ValueError before any table is built.
    """
    words = tuple(map(word, texts))
    if not words:
        raise ValueError("need at least one generating word")
    flavour = ("M" if monoid else "S") + ("c" if commutative else "")
    name = f"{flavour}({','.join(map(str, words))})"
    room = MAX_BUILT_ORDER - 1 - monoid  # the zero and the empty word take a place each
    too_big = ValueError(f"{name} would have more than {MAX_BUILT_ORDER} elements")
    pieces: set[tuple[str, ...]] = set()
    for w in words:
        if commutative:
            # a multiset with multiplicities c has prod(c + 1) - 1 nonempty divisors
            if math.prod(c + 1 for c in map(w.count, set(w))) - 1 > room:
                raise too_big
            pieces |= _divisors(w)  # each divisor is written with its letters sorted
        else:
            if len(w) > room:  # its prefixes alone are too many
                raise too_big
            pieces |= _factors(w)
        if len(pieces) > room:
            raise too_big
    if monoid:
        pieces.add(())
    carrier = sorted(pieces, key=lambda t: (len(t), t))
    index = {t: i + 1 for i, t in enumerate(carrier)}  # 0 is the zero element

    def times(a: tuple[str, ...], b: tuple[str, ...]) -> int:
        prod = tuple(sorted(a + b)) if commutative else a + b
        return index.get(prod, 0)

    n = len(carrier) + 1
    mul = [[0] * n for _ in range(n)]
    for a, b in itertools.product(carrier, repeat=2):
        mul[index[a]][index[b]] = times(a, b)
    add = flat_addition(n, 0)
    elements = ("0",) + tuple("1" if not t else "".join(t) for t in carrier)
    return FiniteAiSemiring.from_tables(add, mul, elements=elements, name=name)


def sc(*texts: str) -> FiniteAiSemiring:
    return word_semiring(texts, commutative=True, monoid=False)


def s(*texts: str) -> FiniteAiSemiring:
    return word_semiring(texts, commutative=False, monoid=False)


def mc(*texts: str) -> FiniteAiSemiring:
    return word_semiring(texts, commutative=True, monoid=True)


def m(*texts: str) -> FiniteAiSemiring:
    return word_semiring(texts, commutative=False, monoid=True)


# ---------------------------------------------------------------------------
# flatness and extensions


def _flat_top(S: FiniteAiSemiring) -> Optional[int]:
    """The top of a flat semiring, None if S is not flat."""
    n, t = S.order, natural_order(S).top
    zero = all(S.mul[t][a] == t == S.mul[a][t] for a in range(n))
    return t if zero and all(S.add[a][b] == t for a, b in itertools.permutations(range(n), 2)) else None


def is_flat(S: FiniteAiSemiring) -> bool:
    """Top is a multiplicative zero and the sum of any two distinct elements."""
    return _flat_top(S) is not None


def semigroup_reduct(S: FiniteAiSemiring) -> FiniteSemigroup:
    """The multiplicative semigroup, with the top designated as zero when absorbing."""
    t = natural_order(S).top
    zero = t if all(S.mul[t][a] == t and S.mul[a][t] == t for a in range(S.order)) else None
    return FiniteSemigroup(elements=S.elements, mul=S.mul, zero=zero)


def _fresh_name(taken: Sequence[str], base: str) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


def _extend_flat(S: FiniteAiSemiring, new_name: str, idempotent: bool) -> FiniteAiSemiring:
    t = _flat_top(S)
    if t is None:
        raise NotFlatError(f"{S.name or 'semiring'} is not flat")
    n = S.order
    b = n  # index of the adjoined element
    mul = [list(row) + [t] for row in S.mul] + [[t] * n + [b if idempotent else t]]
    elements = S.elements + (_fresh_name(S.elements, new_name),)
    suffix = "ie" if idempotent else "ne"
    name = f"{S.name}_{suffix}" if S.name else ""
    return FiniteAiSemiring.from_tables(flat_addition(n + 1, t), mul, elements=elements, name=name)


def null_extension(S: FiniteAiSemiring) -> FiniteAiSemiring:
    """Adjoin b with bb = ba = ab = 0 to a flat semiring."""
    return _extend_flat(S, "b", idempotent=False)


def idempotent_extension(S: FiniteAiSemiring) -> FiniteAiSemiring:
    """Adjoin e with ee = e and ea = ae = 0 to a flat semiring."""
    return _extend_flat(S, "e", idempotent=True)


# ---------------------------------------------------------------------------
# cyclic elements, index, nonfinite-basis witness


def _power_profile(S: FiniteAiSemiring, a: int) -> tuple[int, int]:
    """(tail, cycle) of the power sequence a, a^2, ...: least t with
    a^t = a^(t+cycle)."""
    seen: dict[int, int] = {}
    value = a
    k = 1
    while value not in seen:
        seen[value] = k
        value = S.mul[value][a]
        k += 1
    return seen[value], k - seen[value]


def cyclic_elements(S: FiniteAiSemiring) -> frozenset[int]:
    """Elements a with a^n = a for some n > 1."""
    out = set()
    for a in range(S.order):
        tail, _ = _power_profile(S, a)
        if tail == 1:
            out.add(a)
    return frozenset(out)


def semiring_index(S: FiniteAiSemiring) -> int:
    """Least k such that x^k ≈ x^(k+l) holds for some l >= 1."""
    return max(_power_profile(S, a)[0] for a in range(S.order))


def noncyclic_is_order_ideal(S: FiniteAiSemiring) -> bool:
    """Is the set of noncyclic elements downward closed in the natural order?"""
    order = natural_order(S)
    cyclic = cyclic_elements(S)
    noncyclic = set(range(S.order)) - cyclic
    return all(b in noncyclic for a in noncyclic for b in order.below(a))


class NfbWitnessReport(NamedTuple):
    noncyclic_order_ideal: bool
    s7_embedding: Optional[Morphism]

    @property
    def conclusion(self) -> bool:
        return self.noncyclic_order_ideal and self.s7_embedding is not None

    def to_dict(self) -> dict:
        return {
            "noncyclic_order_ideal": self.noncyclic_order_ideal,
            "s7_embedding": None if self.s7_embedding is None else self.s7_embedding.to_dict(),
            "conclusion": self.conclusion,
        }


@lru_cache(maxsize=1)
def _s7_reference() -> FiniteAiSemiring:
    return mc("a").renamed("Mc(a)")


def nfb_witness(S: FiniteAiSemiring) -> NfbWitnessReport:
    """Nonfinite-basis witness: noncyclic elements form an order ideal and a
    copy of the three-element semiring Mc(a) embeds.

    A false conclusion means no witness was found, not that a finite basis
    exists.
    """
    return NfbWitnessReport(
        noncyclic_order_ideal=noncyclic_is_order_ideal(S),
        s7_embedding=find_embedding(_s7_reference(), S),
    )
