"""An independent reference census of ai-semirings up to isomorphism.

It shares no search with ``aisemiring.census`` and calls none of its
functions: the additions come from a scan of partial orders
(``labeled_semilattices``), the multiplications from a plain backtracking
over the whole n x n table, and the key of a class is the least of its n!
relabelings of (add, mul), computed here.  Tier-1 compares its key sets with
the census for orders 1-4, and its flat height-1 classes with
``flat_from_semigroup`` over ``zero_cancellative_semigroups``.  Run as a
script it prints the sorted hex keys of one order as a JSON list, for a
larger order than tier-1 runs:

    python tests/reference_census.py 5 > keys.json   # about two minutes
"""

from __future__ import annotations

import itertools
import json
import sys

Table = tuple[tuple[int, ...], ...]


def labeled_semilattices(n: int) -> set[Table]:
    """Every partial order on range(n) whose labeling is a linear extension
    (i below j implies i < j) and in which every pair has a join, as its
    join table.  Each semilattice of order n appears at least once."""
    pairs = list(itertools.combinations(range(n), 2))
    found = set()
    for bits in range(2 ** len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                leq[i][j] = True
        if any(leq[i][j] and not all(leq[i][k] for k in range(n) if leq[j][k]) for i, j in pairs):
            continue
        add = [[i if i == j else None for j in range(n)] for i in range(n)]
        for i, j in pairs:
            uppers = [k for k in range(n) if leq[i][k] and leq[j][k]]
            least = [u for u in uppers if all(leq[u][v] for v in uppers)]
            if len(least) != 1:
                break
            add[i][j] = add[j][i] = least[0]
        else:
            found.add(tuple(map(tuple, add)))
    return found


def least_key(tables: tuple[Table, ...]) -> bytes:
    """The least, over every perm of the carrier, of the relabeled tables'
    rows in a row (perm renames i to perm[i])."""
    n = len(tables[0])
    keys = []
    for perm in itertools.permutations(range(n)):
        inv = [perm.index(i) for i in range(n)]
        keys.append(bytes(perm[table[a][b]] for table in tables for a in inv for b in inv))
    return min(keys)


def multiplications(add: Table) -> list[Table]:
    """Every multiplication table making ``add`` an ai-semiring: the cells
    are set one by one in row-major order, and a partial table is dropped as
    soon as associativity or a distributive law fails on a triple whose cells
    are set.  The laws on (x, y, z), (xy)z = x(yz), x(y + z) = xy + xz and
    (x + y)z = xz + yz, read cells in row x and column z only, so setting
    cell (a, b) can decide only the triples with x = a or z = b."""
    n = len(add)
    mul = [[None] * n for _ in range(n)]
    near = [
        [[(x, y, z) for x, y, z in itertools.product(range(n), repeat=3) if x == a or z == b] for b in range(n)]
        for a in range(n)
    ]
    found = []

    def broken(a: int, b: int) -> bool:
        for x, y, z in near[a][b]:
            xy, yz = mul[x][y], mul[y][z]
            if xy is not None and yz is not None:
                left, right = mul[xy][z], mul[x][yz]
                if left is not None and right is not None and left != right:
                    return True
            sums = (mul[x][add[y][z]], mul[x][y], mul[x][z]), (mul[add[x][y]][z], mul[x][z], mul[y][z])
            for whole, first, second in sums:
                if None not in (whole, first, second) and whole != add[first][second]:
                    return True
        return False

    def fill(cell: int) -> None:
        if cell == n * n:
            found.append(tuple(map(tuple, mul)))
            return
        a, b = divmod(cell, n)
        for v in range(n):
            mul[a][b] = v
            if not broken(a, b):
                fill(cell + 1)
        mul[a][b] = None

    fill(0)
    return found


def zero_cancellative_semigroups(n: int) -> list[Table]:
    """Every 0-cancellative semigroup on range(n) whose zero is 0, as its
    table: the (n - 1)**2 cells off the zero row and column are set one by
    one in row-major order, and a partial table is dropped as soon as a
    nonzero value repeats in a row or a column (ab = ac != 0 with b != c, or
    ba = ca != 0) or associativity fails on a triple whose cells are set.
    ``flat_from_semigroup`` makes each one a flat ai-semiring."""
    mul = [[0] * n] + [[0] + [None] * (n - 1) for _ in range(1, n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]
    triples = list(itertools.product(range(n), repeat=3))
    near = {(a, b): [(x, y, z) for x, y, z in triples if x == a or z == b] for a, b in cells}
    found = []

    def broken(a: int, b: int) -> bool:
        v = mul[a][b]
        others = [mul[a][c] for c in range(n) if c != b] + [mul[c][b] for c in range(n) if c != a]
        if v and v in others:
            return True
        for x, y, z in near[a, b]:
            xy, yz = mul[x][y], mul[y][z]
            if xy is not None and yz is not None:
                left, right = mul[xy][z], mul[x][yz]
                if left is not None and right is not None and left != right:
                    return True
        return False

    def fill(k: int) -> None:
        if k == len(cells):
            found.append(tuple(map(tuple, mul)))
            return
        a, b = cells[k]
        for v in range(n):
            mul[a][b] = v
            if not broken(a, b):
                fill(k + 1)
        mul[a][b] = None

    fill(0)
    return found


def reference_keys(n: int) -> set[bytes]:
    """The keys of the ai-semirings of order n, one per isomorphism class."""
    additions = {least_key((add,)): add for add in labeled_semilattices(n)}
    return {least_key((add, mul)) for add in additions.values() for mul in multiplications(add)}


if __name__ == "__main__":
    print(json.dumps(sorted(key.hex() for key in reference_keys(int(sys.argv[1])))))
