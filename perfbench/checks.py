"""Independent reference checks for the benchmark's operations.

Nothing here calls the program: tables are read as plain tuples and every
law, evaluation and search is re-done from the definitions, so a wrong
answer from the program cannot also slip through its own checker.  Each
``check_*`` function returns ``None`` for a correct output and a short
reason otherwise.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Callable, Optional, Sequence

Table = tuple[tuple[int, ...], ...]
WordT = tuple[str, ...]
TermT = tuple[WordT, ...]

# Census results of the parent code.  Orders 1-4 are the paper's counts; the
# order-5 figures (15751 classes, 215 of height 1) and the key digests are a
# regression reference measured once, not an independently verified count.
CENSUS_REFERENCE = {
    1: (1, 0, "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7"),
    2: (6, 6, "8cb5dbf68a64ea2579cf599fc5bc91162e6faf7e3bf0e6f2600f9fa83e14b83d"),
    3: (61, 17, "b4715fa7f9b631f8c36c5d0784f77cd8a127e125c8564771f4099281f00705b4"),
    4: (866, 58, "0d5f82ad6590e250927b62848ccf7c6125d8ab902f594e6f9fd3f1c4483bacb8"),
    5: (15751, 215, "f8febbaa4b02294e9bc1fb0a632646e20de62ee658de23baa5f8683c95ddb09d"),
}


# ---------------------------------------------------------------------------
# identities


def first_failure(
    add: Table, mul: Table, variables: Sequence[str], lhs: TermT, rhs: TermT, limit: int
):
    """Scan assignments in lexicographic order (variables in the given order,
    element indices ascending).

    Returns ("fail", values, rank) for the first assignment where the two
    sides differ, ("hold", n**k) when none does, or ("over", limit) when more
    than ``limit`` assignments would be needed to decide.
    """
    pos = {x: i for i, x in enumerate(variables)}
    left = [[pos[x] for x in w] for w in lhs]
    right = [[pos[x] for x in w] for w in rhs]

    def value(term, vals):
        acc = -1
        for w in term:
            v = vals[w[0]]
            for i in w[1:]:
                v = mul[v][vals[i]]
            acc = v if acc < 0 else add[acc][v]
        return acc

    n = len(add)
    for rank, vals in enumerate(itertools.product(range(n), repeat=len(variables))):
        if rank >= limit:
            return ("over", limit)
        if value(left, vals) != value(right, vals):
            return ("fail", vals, rank)
    return ("hold", n ** len(variables))


def check_identity_result(expected, variables: Sequence[str], witness, recheck) -> Optional[str]:
    """Compare a counterexample result with the reference outcome.

    ``expected`` is None for an identity that holds, else the witness values
    in sorted-variable order; ``recheck(witness)`` re-evaluates both sides
    with the program's own evaluator and returns whether they differ.
    """
    if expected is None:
        if witness is not None:
            return f"identity holds but a witness {witness} was returned"
        return None
    if witness is None:
        return "identity fails but no witness was returned"
    want = dict(zip(variables, expected))
    if dict(witness) != want:
        return f"witness {dict(witness)} is not the lexicographically first failure {want}"
    if not recheck(witness):
        return f"witness {dict(witness)} satisfies the identity"
    return None


def check_verdict(name: str, u, q, claim: bool, truth: bool) -> Optional[str]:
    """A criterion verdict must equal the evaluator's verdict."""
    if claim == truth:
        return None
    return f"{name}: criterion says {claim}, evaluator says {truth} for u={u} q={q}"


def assignments_scanned(expected, n: int, k: int) -> int:
    """Assignments an exhaustive scan visits: n**k for a hold, rank + 1 for a fail."""
    if expected is None:
        return n ** k
    rank = 0
    for v in expected:
        rank = rank * n + v
    return rank + 1


# ---------------------------------------------------------------------------
# tables


def is_ai_semiring(add: Table, mul: Table) -> bool:
    n = len(add)
    rng = range(n)
    for a in rng:
        if add[a][a] != a:
            return False
        for b in rng:
            if add[a][b] != add[b][a]:
                return False
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    return False
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return False
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    return False
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                    return False
    return True


def relabel_tables(add: Table, mul: Table, perm: Sequence[int]) -> tuple[Table, Table]:
    """Tables of the copy in which element a is renamed perm[a]."""
    n = len(add)
    inv = [0] * n
    for a, p in enumerate(perm):
        inv[p] = a
    new_add = tuple(tuple(perm[add[inv[a]][inv[b]]] for b in range(n)) for a in range(n))
    new_mul = tuple(tuple(perm[mul[inv[a]][inv[b]]] for b in range(n)) for a in range(n))
    return new_add, new_mul


def product_tables(a: tuple[Table, Table], b: tuple[Table, Table]) -> tuple[Table, Table]:
    """Componentwise product, pair (i, j) at index i * |B| + j."""
    (a_add, a_mul), (b_add, b_mul) = a, b
    n, m = len(a_add), len(b_add)
    pairs = [(i, j) for i in range(n) for j in range(m)]
    add = tuple(tuple(a_add[i][k] * m + b_add[j][l] for k, l in pairs) for i, j in pairs)
    mul = tuple(tuple(a_mul[i][k] * m + b_mul[j][l] for k, l in pairs) for i, j in pairs)
    return add, mul


def is_hom(src: tuple[Table, Table], dst: tuple[Table, Table], f: Sequence[int]) -> bool:
    (s_add, s_mul), (d_add, d_mul) = src, dst
    n = len(s_add)
    if len(f) != n or any(not 0 <= x < len(d_add) for x in f):
        return False
    return all(
        f[s_add[a][b]] == d_add[f[a]][f[b]] and f[s_mul[a][b]] == d_mul[f[a]][f[b]]
        for a in range(n)
        for b in range(n)
    )


def is_injective_hom(src: tuple[Table, Table], dst: tuple[Table, Table], f: Sequence[int]) -> bool:
    return len(set(f)) == len(f) and is_hom(src, dst, f)


def find_injective_hom(
    src: tuple[Table, Table],
    dst: tuple[Table, Table],
    accept: Optional[Callable[[tuple[int, ...]], bool]] = None,
) -> Optional[tuple[int, ...]]:
    """First injective homomorphism in lexicographic order, by plain enumeration."""
    for f in itertools.permutations(range(len(dst[0])), len(src[0])):
        if is_hom(src, dst, f) and (accept is None or accept(f)):
            return f
    return None


def check_hom_result(expected_exists: bool, mapping, verify: Callable[[Sequence[int]], bool]) -> Optional[str]:
    if mapping is None:
        return "a homomorphism exists but none was returned" if expected_exists else None
    if not expected_exists:
        return f"returned {tuple(mapping)} where no homomorphism exists"
    if not verify(mapping):
        return f"returned map {tuple(mapping)} is not a valid answer"
    return None


def invariant(add: Table, mul: Table) -> tuple:
    """An isomorphism invariant: the sorted per-element profile of both tables."""
    n = len(add)
    rng = range(n)
    return tuple(
        sorted(
            (
                sum(add[a][b] == b for b in rng),
                sum(add[b][a] == a for b in rng),
                mul[a][a] == a,
                sum(mul[a][b] == a for b in rng),
                sum(mul[b][a] == a for b in rng),
            )
            for a in rng
        )
    )


def noncyclic_is_ideal(add: Table, mul: Table) -> bool:
    """Noncyclic elements (a != a^k for every k > 1) are closed downward."""
    n = len(add)
    cyclic = set()
    for a in range(n):
        v = mul[a][a]
        for _ in range(n):
            if v == a:
                cyclic.add(a)
                break
            v = mul[v][a]
    noncyclic = set(range(n)) - cyclic
    return all(b in noncyclic for a in noncyclic for b in range(n) if add[b][a] == a)


# ---------------------------------------------------------------------------
# census


def class_keys(tables: Sequence[tuple[Table, Table]]) -> list[bytes]:
    """Isomorphism-class key of each (add, mul): the lexicographically least
    relabelling of add followed by mul.

    Relabellings that minimise the addition are found once per distinct
    addition table, so a census costs one permutation scan per additive
    reduct plus a scan over each member's additive automorphisms.
    """
    best_perms: dict[Table, tuple[bytes, list]] = {}
    keys = []
    for add, mul in tables:
        n = len(add)
        if add not in best_perms:
            best, perms = None, []
            for perm in itertools.permutations(range(n)):
                inv = [0] * n
                for a, p in enumerate(perm):
                    inv[p] = a
                key = bytes(perm[add[inv[a]][inv[b]]] for a in range(n) for b in range(n))
                if best is None or key < best:
                    best, perms = key, [(perm, inv)]
                elif key == best:
                    perms.append((perm, inv))
            best_perms[add] = (best, perms)
        add_key, perms = best_perms[add]
        mul_key = min(
            bytes(perm[mul[inv[a]][inv[b]]] for a in range(n) for b in range(n)) for perm, inv in perms
        )
        keys.append(add_key + mul_key)
    return keys


def key_digest(keys: Sequence[bytes]) -> str:
    h = hashlib.sha256()
    for key in sorted(keys):
        h.update(key)
    return h.hexdigest()


def check_census_result(order: int, count: int, height1: int, keys: Sequence[bytes]) -> Optional[str]:
    """Compare one census with the reference count, height-1 count and digest."""
    want_count, want_height1, want_digest = CENSUS_REFERENCE[order]
    if count != want_count:
        return f"order {order}: {count} classes, reference {want_count}"
    if height1 != want_height1:
        return f"order {order}: {height1} of height 1, reference {want_height1}"
    if len(set(keys)) != len(keys):
        return f"order {order}: two members are isomorphic"
    digest = key_digest(keys)
    if digest != want_digest:
        return f"order {order}: key digest {digest[:12]}, reference {want_digest[:12]}"
    return None


def dual_closure_error(tables: Sequence[tuple[Table, Table]], keys: Sequence[bytes]) -> Optional[str]:
    """None when the class of every member's dual is also in the census."""
    duals = [(add, tuple(zip(*mul))) for add, mul in tables]
    present = set(keys)
    missing = sum(key not in present for key in class_keys(duals))
    return None if missing == 0 else f"{missing} duals are missing from the census"
