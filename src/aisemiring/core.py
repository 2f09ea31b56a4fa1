"""Finite additively idempotent semirings: tables, validation, order, maps.

Elements are 0-indexed internally; ``elements`` holds display names.  All
values are immutable and safe to share between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

Row = tuple[int, ...]
Table = tuple[Row, ...]

# Bound on the order of a built semiring (products, word semirings, flat
# cyclic groups), so that hostile input fails fast instead of exhausting
# memory.
MAX_BUILT_ORDER = 64


class MalformedTableError(ValueError):
    """Table has wrong shape or an out-of-range entry (not a law violation)."""


class InvalidSemiringError(ValueError):
    """Tables are well-formed but violate a semiring law; a nonempty
    ``where`` (a semiring's name or file) is put before the message."""

    def __init__(self, report: "ValidationReport", where: str = ""):
        self.report = report
        message = "not an ai-semiring: " + ", ".join(law for law, _ in report.violations)
        super().__init__(f"{where}: {message}" if where else message)


class ValidationReport(NamedTuple):
    """Outcome of a law check; at most one witness is kept per law."""

    valid: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]


_VALID = ValidationReport(True, ())  # the one report of every valid input


def element_names(n: int, elements: Optional[Sequence[str]] = None) -> tuple[str, ...]:
    """The display names of n elements, "1" to "n" when none are given."""
    if elements is None:
        return tuple(str(i + 1) for i in range(n))
    if isinstance(elements, (str, dict)):  # their characters or keys are no list of names
        raise MalformedTableError("element names must be a list, not a string or an object")
    elements = tuple(elements)
    if len(elements) != n or len(set(elements)) != n or not all(type(e) is str for e in elements):
        raise MalformedTableError("element names must be distinct strings, one per row")
    return elements


def _as_table(rows: Sequence[Sequence[int]], what: str, n: Optional[int] = None) -> Table:
    """The rows as a tuple table; ``n`` defaults to the number of rows."""
    try:
        table = tuple(map(tuple, rows))
    except TypeError:
        raise MalformedTableError(f"{what} table must be a list of rows") from None
    n = len(table) if n is None else n
    if len(table) != n:
        raise MalformedTableError(f"{what} table must have {n} rows, got {len(table)}")
    for i, row in enumerate(table):
        if len(row) != n:
            raise MalformedTableError(f"{what} row {i} must have {n} entries, got {len(row)}")
        for v in row:
            if type(v) is not int or not 0 <= v < n:  # bool is an int subclass; refuse it
                raise MalformedTableError(f"{what}[{i}] entry {v!r} out of range 0..{n - 1}")
    return table


@lru_cache(maxsize=64)  # small and fixed: a census validates the tables over one addition in a row
def _add_violations(add: Table) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The first witness of each addition law that ``add`` breaks, in order.

    Called only on tables that ``_as_table`` has accepted, so the cache never
    sees a bool entry (``True == 1`` would let it answer for an int table).
    """
    violations = []
    rng = range(len(add))
    for a in rng:
        if add[a][a] != a:
            violations.append(("add-idempotence", (a,)))
            break
    for a, b in itertools.product(rng, rng):
        if add[a][b] != add[b][a]:
            violations.append(("add-commutativity", (a, b)))
            break
    witness = _associativity(add)
    if witness is not None:
        violations.append(("add-associativity", witness))
    return tuple(violations)


def _associativity(op: Table) -> Optional[tuple[int, int, int]]:
    """First (a, b, c) with (ab)c != a(bc) under the operation ``op``."""
    rng = range(len(op))
    for a in rng:
        row_a = op[a]
        for b in rng:
            row_ab, row_b = op[row_a[b]], op[b]
            for c in rng:
                if row_ab[c] != row_a[row_b[c]]:
                    return a, b, c
    return None


def _left_distributivity(add: Table, mul: Table, symmetric: bool) -> Optional[tuple[int, int, int]]:
    """First (a, b, c) with a(b + c) != ab + ac; only c > b if + is ``symmetric``."""
    n = len(add)
    rng = range(n)
    summands = [range(b + 1, n) for b in rng] if symmetric else [rng] * n  # the c taken with each b
    for a in rng:
        row_a = mul[a]
        for b in rng:
            sums_b, sums_ab = add[b], add[row_a[b]]
            for c in summands[b]:
                if row_a[sums_b[c]] != sums_ab[row_a[c]]:
                    return a, b, c
    return None


def _right_distributivity(add: Table, mul: Table, symmetric: bool) -> Optional[tuple[int, int, int]]:
    """First (a, b, c) with (a + b)c != ac + bc; only b > a if + is ``symmetric``."""
    n = len(add)
    rng = range(n)
    for a in rng:
        row_a, sums_a = mul[a], add[a]
        for b in range(a + 1, n) if symmetric else rng:
            row_ab, row_b = mul[sums_a[b]], mul[b]
            for c in rng:
                if row_ab[c] != add[row_a[c]][row_b[c]]:
                    return a, b, c
    return None


def validate(add: Sequence[Sequence[int]], mul: Sequence[Sequence[int]]) -> ValidationReport:
    """Check the ai-semiring laws, reporting the first witness per violated law.

    These are the only laws the package checks; the laws of the natural order
    follow from them, and ``natural_order`` assumes them.

    Malformed input (shape or range) raises ``MalformedTableError`` instead of
    being reported as a law violation.  The violations of the addition's own
    laws are kept for the 64 additions seen last, so a census that validates
    many multiplications over one addition checks that addition once; every
    law that involves the multiplication is checked on every call.

    Witnesses are first in ``itertools.product`` order over (a, b, c).
    Associativity is checked on all n^3 triples.  When the addition is
    idempotent and commutative (symmetric), left distributivity is checked
    only for summands b < c and right distributivity only for a < b:
    commutativity gives a(b + c) = ab + ac and a(c + b) = ac + ab equal
    sides, so the two triples hold or fail together, and idempotence makes
    every triple with b = c hold.  So the first failing triple has b < c
    (a < b on the right), and the report is the one a check of all n^3
    triples gives.  When the addition breaks either law, every triple is
    checked.
    """
    add = _as_table(add, "add")
    n = len(add)
    if n == 0:
        raise MalformedTableError("empty table")
    mul = _as_table(mul, "mul", n)

    violations = list(_add_violations(add))
    symmetric = not any(law in ("add-idempotence", "add-commutativity") for law, _ in violations)
    for law, witness in (
        ("mul-associativity", _associativity(mul)),
        ("left-distributivity", _left_distributivity(add, mul, symmetric)),
        ("right-distributivity", _right_distributivity(add, mul, symmetric)),
    ):
        if witness is not None:
            violations.append((law, witness))
    return ValidationReport(False, tuple(violations)) if violations else _VALID


class FiniteAiSemiring(NamedTuple):
    """An additively idempotent semiring given by its Cayley tables."""

    name: str
    elements: tuple[str, ...]
    add: Table
    mul: Table

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def from_tables(
        cls,
        add: Sequence[Sequence[int]],
        mul: Sequence[Sequence[int]],
        elements: Optional[Sequence[str]] = None,
        name: str = "",
    ) -> "FiniteAiSemiring":
        """A validated semiring, storing the tables it validated; the plain
        constructor is the unchecked path. Tables that break a law raise
        InvalidSemiringError named by ``name``."""
        if type(name) is not str:
            raise MalformedTableError(f"name must be a string, got {type(name).__name__}")
        add = _as_table(add, "add")
        mul = _as_table(mul, "mul", len(add))
        report = validate(add, mul)
        if not report.valid:
            raise InvalidSemiringError(report, name)
        return cls(name=name, elements=element_names(len(add), elements), add=add, mul=mul)

    def renamed(self, name: str) -> "FiniteAiSemiring":
        return self._replace(name=name)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "elements": list(self.elements),
            "add": [list(r) for r in self.add],
            "mul": [list(r) for r in self.mul],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteAiSemiring":
        return cls.from_tables(
            data["add"], data["mul"], elements=data.get("elements"), name=data.get("name", "")
        )

    def __repr__(self) -> str:
        return f"FiniteAiSemiring({self.name or '?'}, order={self.order})"


class NaturalOrder(NamedTuple):
    """The partial order a <= b iff a+b = b, together with its top."""

    leq: tuple[tuple[bool, ...], ...]
    top: int

    def below(self, a: int) -> tuple[int, ...]:
        return tuple(b for b in range(len(self.leq)) if self.leq[b][a])


def natural_order(S: FiniteAiSemiring) -> NaturalOrder:
    """The natural order a <= b iff a + b = b, and its top, the sum of all elements.

    The order is read off the addition; no law is checked here.  That it is
    a partial order with a top, compatible with + and *, follows from the
    semiring laws, which ``validate`` (and so ``from_tables``) checks.  On
    unchecked tables that break them the result has no meaning.
    """
    leq = tuple(tuple(row[b] == b for b in range(S.order)) for row in S.add)
    top = 0
    for a in range(1, S.order):
        top = S.add[top][a]
    return NaturalOrder(leq=leq, top=top)


def additive_height(S: FiniteAiSemiring) -> int:
    """Length in edges of the longest chain of the natural order."""
    leq = natural_order(S).leq
    n = S.order
    height = [0] * n
    # an element strictly below x has fewer elements below it, so is done first
    for x in sorted(range(n), key=lambda x: sum(leq[y][x] for y in range(n))):
        height[x] = max((height[y] + 1 for y in range(n) if y != x and leq[y][x]), default=0)
    return max(height)


def dual(S: FiniteAiSemiring) -> FiniteAiSemiring:
    """Same addition, opposite multiplication."""
    n = S.order
    mul = tuple(tuple(S.mul[b][a] for b in range(n)) for a in range(n))
    return FiniteAiSemiring(name=f"dual({S.name})" if S.name else "", elements=S.elements, add=S.add, mul=mul)


def direct_product(S: FiniteAiSemiring, T: FiniteAiSemiring) -> FiniteAiSemiring:
    """Componentwise product on pairs, row-major pair indexing.

    A product of more than MAX_BUILT_ORDER elements raises ValueError before
    any table is built."""
    n, m = S.order, T.order
    if n * m > MAX_BUILT_ORDER:
        raise ValueError(f"a product of orders {n} and {m} would have {n * m} elements, more than {MAX_BUILT_ORDER}")

    def pair(i: int, j: int) -> int:
        return i * m + j

    elements = tuple(f"({a},{b})" for a in S.elements for b in T.elements)
    add = [[0] * (n * m) for _ in range(n * m)]
    mul = [[0] * (n * m) for _ in range(n * m)]
    for i1, j1 in itertools.product(range(n), range(m)):
        for i2, j2 in itertools.product(range(n), range(m)):
            add[pair(i1, j1)][pair(i2, j2)] = pair(S.add[i1][i2], T.add[j1][j2])
            mul[pair(i1, j1)][pair(i2, j2)] = pair(S.mul[i1][i2], T.mul[j1][j2])
    name = f"{S.name}x{T.name}" if S.name and T.name else ""
    return FiniteAiSemiring(name=name, elements=elements, add=tuple(map(tuple, add)), mul=tuple(map(tuple, mul)))


@dataclass(frozen=True)
class Morphism:
    """A total map between carriers that preserves both operations."""

    source: FiniteAiSemiring
    target: FiniteAiSemiring
    mapping: tuple[int, ...]

    def __post_init__(self):
        S, T, f = self.source, self.target, self.mapping
        if len(f) != S.order:
            raise ValueError("mapping must assign every source element")
        for a, b in itertools.product(range(S.order), repeat=2):
            if f[S.add[a][b]] != T.add[f[a]][f[b]] or f[S.mul[a][b]] != T.mul[f[a]][f[b]]:
                raise ValueError(f"not a homomorphism at ({a},{b})")

    def to_dict(self) -> dict:
        return {
            "source": self.source.name,
            "target": self.target.name,
            "map": {self.source.elements[a]: self.target.elements[b] for a, b in enumerate(self.mapping)},
        }


def generated_subalgebra(S: FiniteAiSemiring, seed: Iterable[int]) -> tuple[FiniteAiSemiring, Morphism]:
    """Closure of ``seed`` under + and *, with induced tables and inclusion map."""
    carrier = set(seed)
    if not carrier:
        raise ValueError("seed must be nonempty")
    if not all(0 <= x < S.order for x in carrier):
        raise ValueError("seed elements out of range")
    frontier = list(carrier)
    while frontier:
        new = []
        for a in list(carrier):
            for b in frontier:
                for v in (S.add[a][b], S.mul[a][b], S.mul[b][a]):
                    if v not in carrier:
                        carrier.add(v)
                        new.append(v)
        frontier = new
    included = tuple(sorted(carrier))
    pos = {x: i for i, x in enumerate(included)}
    add = tuple(tuple(pos[S.add[a][b]] for b in included) for a in included)
    mul = tuple(tuple(pos[S.mul[a][b]] for b in included) for a in included)
    sub = FiniteAiSemiring(
        name=f"{S.name}|{{{','.join(S.elements[x] for x in included)}}}" if S.name else "",
        elements=tuple(S.elements[x] for x in included),
        add=add,
        mul=mul,
    )
    return sub, Morphism(source=sub, target=S, mapping=included)


_MAX_CANONICAL_ORDER = 8


def least_relabeling(table: Table, perms: Iterable[Sequence[int]]) -> tuple[bytes, list]:
    """(least key, the perms attaining it) over the relabelings ``perms`` of
    a table (perm renames i to perm[i]); keys are the table row by row."""
    n = len(table)
    best, attained = None, []
    for perm in perms:
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        key = bytes([perm[row[b]] for row in [table[a] for a in inv] for b in inv])
        if best is None or key < best:
            best, attained = key, [perm]
        elif key == best:
            attained.append(perm)
    return best, attained


def canonical_form(S: FiniteAiSemiring) -> bytes:
    """Lexicographic minimum over all carrier permutations of add then mul.

    Equal keys characterise isomorphism.  The parts have fixed lengths, so
    this is the least add relabeling, then the least mul relabeling over the
    perms attaining it (a coset of Aut(+)); brute force suffices for n <= 8.
    """
    n = S.order
    if n > _MAX_CANONICAL_ORDER:
        raise ValueError(f"canonical_form supports order <= {_MAX_CANONICAL_ORDER}")
    add_key, perms = least_relabeling(S.add, itertools.permutations(range(n)))
    return add_key + least_relabeling(S.mul, perms)[0]


def _search_hom(S: FiniteAiSemiring, T: FiniteAiSemiring) -> Iterator[tuple[int, ...]]:
    """The injective homomorphisms S -> T as image tuples, in lexicographic order.

    Backtracking assigns images in source-index order.  Each constraint
    f(a op b) = f(a) op f(b) is checked once, at the index where the last of
    a, b and a op b gets its image.  The search keeps its path on an explicit
    stack, so the source order is not limited by the interpreter's recursion
    limit.
    """
    n, m = S.order, T.order
    checks: list[list[tuple[Table, int, int, int]]] = [[] for _ in range(n)]
    for sop, top in ((S.add, T.add), (S.mul, T.mul)):
        for a in range(n):
            for b, k in enumerate(sop[a]):
                checks[max(a, b, k)].append((top, a, b, k))
    img = [-1] * n  # the image tried at each index of the path; -1: none yet
    used = [False] * m
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(img)
            i -= 1
            continue
        t = img[i]
        if t >= 0:
            used[t] = False
        for t in range(t + 1, m):
            if used[t]:
                continue
            img[i] = t
            for top, a, b, k in checks[i]:
                if top[img[a]][img[b]] != img[k]:
                    break
            else:
                used[t] = True
                i += 1
                break
        else:
            img[i] = -1
            i -= 1


def _first(S: FiniteAiSemiring, T: FiniteAiSemiring, maps: Iterator[tuple[int, ...]]) -> Optional[Morphism]:
    """The first of ``maps`` as a checked Morphism S -> T, or None."""
    mapping = next(maps, None)
    return None if mapping is None else Morphism(source=S, target=T, mapping=mapping)


def find_isomorphism(S: FiniteAiSemiring, T: FiniteAiSemiring) -> Optional[Morphism]:
    """A bijective homomorphism if one exists; first in lexicographic order."""
    return _first(S, T, _search_hom(S, T)) if S.order == T.order else None


def find_embedding(S: FiniteAiSemiring, T: FiniteAiSemiring) -> Optional[Morphism]:
    """An injective homomorphism S -> T if one exists; first in lexicographic order."""
    return _first(S, T, _search_hom(S, T)) if S.order <= T.order else None


def is_subdirect_embedding(
    S: FiniteAiSemiring, A: FiniteAiSemiring, B: FiniteAiSemiring
) -> Optional[Morphism]:
    """An injective hom S -> A x B with both projections onto; first in lexicographic order."""
    P = direct_product(A, B)
    if S.order > P.order:
        return None
    m = B.order

    def surjective(mapping: tuple[int, ...]) -> bool:
        return len({p // m for p in mapping}) == A.order and len({p % m for p in mapping}) == B.order

    return _first(S, P, filter(surjective, _search_hom(S, P)))
