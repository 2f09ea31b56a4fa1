"""Seeded input generators.

Every list or batch is a pure function of (workload seed, index) and of
the fixed set-up data, so the same seed gives the same inputs in any
process.  Inputs are plain tuples and strings; the expected answers come
from ``checks`` at generation time, outside the timed region.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence

import checks

NAMES = tuple("abcdefghpqrstuvwxyz") + tuple(f"x{i}" for i in range(1, 10))

LIST_ROUNDS = 2  # a query list is this many rounds, shuffled together
CHECKS_PER_ROUND = 1000
MAX_SPACE = 2 ** 20  # n**k of any identity check
HOLD_PRODUCT_SPACE = 2 ** 12  # S x S checks of basis identities
BIG_HOLDS = 2  # the first basis identities in 4 variables, checked in S x S (16**4 = 2**16)
SCAN_LIMIT = 2 ** 12  # a random check that fails must fail within this many assignments
RANDOM_HOLD_SPACE = 2 ** 8  # a random check that holds has at most this many assignments
NEAR_MISS = 0.3  # share of random checks that reuse a basis identity elsewhere
HOM_PLAN = (("iso", 16), ("iso_none", 8), ("embed", 16), ("subdirect", 12), ("nfb", 8))
TAIL_PLAN = (("classify", 8), ("validate", 8), ("cert", 4))

CRITERIA_LETTERS = "wxyz"
CRITERIA_ROWS = 200  # rows per batch; a row is one u with its sample of q
CRITERIA_QS = 20


def _fmt_word(w: Sequence[str]) -> str:
    out, i = [], 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        out.append(w[i] if j - i == 1 else f"{w[i]}^{j - i}")
        i = j
    return "".join(out)


def fmt_identity(lhs, rhs, sep: str = " = ") -> str:
    return " + ".join(map(_fmt_word, lhs)) + sep + " + ".join(map(_fmt_word, rhs))


def _rename(term, mapping):
    return tuple(tuple(x for letter in w for x in mapping[letter]) for w in term)


def _relabel(rng: random.Random, tables):
    perm = list(range(len(tables[0])))
    rng.shuffle(perm)
    return checks.relabel_tables(tables[0], tables[1], perm)


def _random_term(rng: random.Random, letters: Sequence[str], summands: int, length: int):
    return tuple(
        tuple(rng.choice(letters) for _ in range(rng.randint(1, length)))
        for _ in range(rng.randint(1, summands))
    )


def _variables(lhs, rhs) -> tuple[str, ...]:
    return tuple(sorted({x for term in (lhs, rhs) for w in term for x in w}))


def _check(cls: str, tables, lhs, rhs, expected, sep=" = "):
    variables = _variables(lhs, rhs)
    return ("check", cls, tables, fmt_identity(lhs, rhs, sep), variables, expected)


def _holds(rng: random.Random, world) -> list:
    """Identities that hold by construction: bundled basis identities and
    substitution instances of them, in a relabelled S and in S x S."""
    out = []
    for entry_tables, lhs, rhs, variables in world.templates:
        k = len(variables)
        names = rng.sample(NAMES, k + 1)
        plain = {x: (y,) for x, y in zip(variables, names)}
        if k >= 2:
            out.append(_check("hold", _relabel(rng, entry_tables), _rename(lhs, plain), _rename(rhs, plain), None, " ≈ "))
        if k >= 2 and 16 ** k <= HOLD_PRODUCT_SPACE:
            square = checks.product_tables(_relabel(rng, entry_tables), _relabel(rng, entry_tables))
            out.append(_check("hold", square, _rename(lhs, plain), _rename(rhs, plain), None))
        split = dict(plain)
        v = rng.choice(variables)
        split[v] = (plain[v][0], names[k])
        out.append(_check("hold", _relabel(rng, entry_tables), _rename(lhs, split), _rename(rhs, split), None))
    four = [t for t in world.templates if len(t[3]) == 4]
    for entry_tables, lhs, rhs, variables in four[:BIG_HOLDS]:
        plain = {x: (y,) for x, y in zip(variables, rng.sample(NAMES, 4))}
        square = checks.product_tables(_relabel(rng, entry_tables), _relabel(rng, entry_tables))
        out.append(_check("hold", square, _rename(lhs, plain), _rename(rhs, plain), None))
    return out


def _random_check(rng: random.Random, world):
    """A random identity, or a basis identity moved to another semiring.

    Candidates are kept when they fail within SCAN_LIMIT assignments or hold
    in at most RANDOM_HOLD_SPACE, so that the cost of a list stays close to
    that of its fixed holds and does not swing with a few large scans."""
    while True:
        if rng.random() < NEAR_MISS:
            _, lhs, rhs, variables = rng.choice(world.templates)
            mapping = {x: (y,) for x, y in zip(variables, rng.sample(NAMES, len(variables)))}
            lhs, rhs = _rename(lhs, mapping), _rename(rhs, mapping)
        else:
            letters = rng.sample(NAMES, rng.randint(2, 8))
            lhs = _random_term(rng, letters, 3, 4)
            rhs = _random_term(rng, letters, 3, 4)
        variables = _variables(lhs, rhs)
        orders = [n for n in world.orders if n ** len(variables) <= MAX_SPACE]
        tables = _relabel(rng, rng.choice(world.pool_by_order[rng.choice(orders)]))
        outcome = checks.first_failure(*tables, variables, lhs, rhs, SCAN_LIMIT)
        if outcome[0] == "fail":
            return _check("random", tables, lhs, rhs, outcome[1])
        if outcome[0] == "hold" and outcome[1] <= RANDOM_HOLD_SPACE:
            return _check("random", tables, lhs, rhs, None)


def _hom(rng: random.Random, kind: str, world):
    pool = world.pool_by_order
    pick = lambda orders: _relabel(rng, rng.choice(pool[rng.choice(orders)]))  # noqa: E731
    if kind == "iso":
        base = rng.choice(pool[rng.choice([n for n in world.orders if n <= 9])])
        return ("iso", _relabel(rng, base), _relabel(rng, base), True)
    if kind == "iso_none":
        while True:
            n = rng.choice([n for n in world.orders if 2 <= n <= 6])
            S, T = rng.choice(pool[n]), rng.choice(pool[n])
            if checks.invariant(*S) != checks.invariant(*T):
                return ("iso", _relabel(rng, S), _relabel(rng, T), False)
    if kind == "embed":
        A, B = pick([2, 3]), pick([3, 4, 5, 6])
        return ("embed", A, B, checks.find_injective_hom(A, B) is not None)
    if kind == "subdirect":
        if rng.random() < 0.5:
            S, A, B = rng.choice(world.subdirect_claims)
            S = _relabel(rng, S)
        else:
            S, A, B = pick([3, 4]), pick([2, 3]), pick([2, 3])
        m, nb = len(A[0]), len(B[0])
        onto = lambda f: len({p // nb for p in f}) == m and len({p % nb for p in f}) == nb  # noqa: E731
        exists = checks.find_injective_hom(S, checks.product_tables(A, B), onto) is not None
        return ("subdirect", S, A, B, exists)
    S = pick([3, 4, 5])
    exists = checks.find_injective_hom(world.s7_source, S) is not None
    return ("nfb", S, checks.noncyclic_is_ideal(*S), exists)


def _tail(rng: random.Random, kind: str, world):
    if kind == "classify":
        name, tables = rng.choice(world.classifiable)
        return ("classify", _relabel(rng, tables), name)
    if kind == "validate":
        add, mul = _relabel(rng, rng.choice(world.pool_by_order[rng.choice([2, 3, 4, 5])]))
        n = len(add)
        roll = rng.random()
        if roll < 0.3:
            return ("validate", add, mul, True)
        rows = [list(r) for r in mul]
        a, b = rng.randrange(n), rng.randrange(n)
        if roll < 0.4:
            rows[a][b] = n
            return ("validate", add, tuple(map(tuple, rows)), "malformed")
        rows[a][b] = rng.choice([v for v in range(n) if v != mul[a][b]])
        mul = tuple(map(tuple, rows))
        return ("validate", add, mul, checks.is_ai_semiring(add, mul))
    index = rng.randrange(len(world.certificates))
    return ("cert", index, world.certificates[index][1])


def _round(rng: random.Random, world) -> list:
    """CHECKS_PER_ROUND identity checks, the homomorphism queries of
    HOM_PLAN and the light tail of TAIL_PLAN."""
    queries = _holds(rng, world)
    while len(queries) < CHECKS_PER_ROUND:
        queries.append(_random_check(rng, world))
    for kind, count in HOM_PLAN:
        queries.extend(_hom(rng, kind, world) for _ in range(count))
    for kind, count in TAIL_PLAN:
        queries.extend(_tail(rng, kind, world) for _ in range(count))
    return queries


def query_list(seed: int, index: int, world) -> list:
    """One query list: LIST_ROUNDS rounds in seeded order.  More rounds
    steady the cost and the median latency of a list from seed to seed."""
    rng = random.Random(f"queries:{seed}:{index}")
    queries = [q for _ in range(LIST_ROUNDS) for q in _round(rng, world)]
    rng.shuffle(queries)
    return queries


def criteria_batch(seed: int, index: int) -> list:
    """CRITERIA_ROWS rows (u, [q ...]): u has 1-4 summands and every word has
    1-4 letters over CRITERIA_LETTERS."""
    rng = random.Random(f"criteria:{seed}:{index}")
    letters = CRITERIA_LETTERS
    rows = []
    for _ in range(CRITERIA_ROWS):
        u = _random_term(rng, letters, 4, 4)
        qs = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 4))) for _ in range(CRITERIA_QS)]
        rows.append((u, qs))
    return rows


def digest(items) -> str:
    """Stable digest of generated inputs (their repr is deterministic)."""
    return hashlib.sha256(repr(items).encode()).hexdigest()
