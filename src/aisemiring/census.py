"""Enumerate all ai-semirings of a given order up to isomorphism.

Strategy: enumerate semilattices (the additive reducts) up to isomorphism,
then for each one backtrack over the multiplications.  Distributivity makes a
multiplication a function of its values on pairs of join-irreducible elements,
so only those cells are searched; every other product is the forced sum over
the join-irreducibles below the factors.

The search is compiled to integer-indexed lists before it starts.  A cell is
its position in growing-square order and the products form a flat list
indexed ``e * n + f``; each product is computed once per path, when the last
cell it reads is filled.  Every constraint is placed in advance at the cell
where it becomes decidable, except an associativity check whose products
depend on earlier cell values: it is deferred on the current path to exactly
the cell that makes it decidable.

Isomorphic multiplications over one addition are relabelings of each other
by Aut(+), the perms attaining a canonical addition's least relabeling.  The
search keeps only the lex-leader of each Aut(+)-orbit, the table whose cell
values are least: a partial table is pruned as soon as some automorphism maps
its decided cells to a smaller prefix (the least-number heuristic of Mace4;
Crawford, Ginsberg, Luks & Roy, KR 1996).  Each class is so built once.  The
unpruned search lists the labeled tables in increasing order of their cell
values, so the lex-leader of a class is the first of its tables the unpruned
search lists.  Finished tables are validated and keyed by
``core.canonical_form`` in its two stages; two tables with one key are a
symmetry bug, and the least class of each addition is rechecked against
``canonical_form`` itself.

Facts about the addition alone are found once per addition, not once per
table: ``validate`` keeps the laws of each addition it has checked in a small
cache (every multiplication law is still checked on every table), and the
additive height is measured once, on the least class, and holds for every
class over that addition.

With more than one worker, each addition is one task.  The worker count
includes the calling process, so two workers start one process beside it.
Each process takes the next addition from one shared counter, deepest search
first (most join-irreducibles, so most searched cells), so that no long
search starts last, and the started ones send their classes back once, at
the end.  The classes are ordered by one sort of their canonical keys, which
are unique, so the census is the same for any worker count and for any order
in which the additions are searched.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Sequence

from .core import FiniteAiSemiring, Table, additive_height, canonical_form, least_relabeling, validate

SEMILATTICE_MAX_ORDER = 6


@dataclass(frozen=True)
class CensusResult:
    order: int
    semirings: tuple[FiniteAiSemiring, ...]
    height1: tuple[FiniteAiSemiring, ...]
    elapsed: float
    keys: tuple[bytes, ...] = ()  # canonical_form of each of ``semirings``, in order

    @property
    def count(self) -> int:
        return len(self.semirings)


def _canonical_add(add: Table) -> Table:
    """Relabel so the addition table alone is lexicographically least."""
    n = len(add)
    key = least_relabeling(add, itertools.permutations(range(n)))[0]
    return tuple(tuple(key[a * n : (a + 1) * n]) for a in range(n))


def enumerate_semilattices(n: int) -> tuple[Table, ...]:
    """All commutative idempotent associative tables on n elements, one per
    isomorphism class, each in canonical relabeling.

    Works by one-point extension.  Removing a minimal element x of a
    semilattice leaves a semilattice (a + b = x forces a = x or b = x), and
    x + y is the least element above y of the up-set U of elements above x.
    So each table of order n - 1 gets a new element x for every nonempty
    up-set U in which each y has a least element of U above it; conversely,
    that element is the join of x and y.
    """
    if not 1 <= n <= SEMILATTICE_MAX_ORDER:
        raise ValueError(f"order must be between 1 and {SEMILATTICE_MAX_ORDER}")
    if n == 1:
        return (((0,),),)
    m = n - 1
    found: set[Table] = set()
    for add in enumerate_semilattices(m):
        above = [{b for b in range(m) if add[a][b] == b} for a in range(m)]
        for bits in range(1, 1 << m):
            up = {a for a in range(m) if bits >> a & 1}
            if any(not above[a] <= up for a in up):
                continue
            joins = []
            for y in range(m):
                over = up & above[y]
                least = [u for u in over if over <= above[u]]
                if not least:
                    break
                joins.append(least[0])
            else:
                rows = tuple(row + (j,) for row, j in zip(add, joins))
                found.add(_canonical_add(rows + (tuple(joins) + (m,),)))
    return tuple(sorted(found))


def _join_irreducibles(add: Table) -> list[int]:
    n = len(add)
    joins = {add[a][b] for a, b in itertools.combinations(range(n), 2) if add[a][b] not in (a, b)}
    leq = [[add[a][b] == b for b in range(n)] for a in range(n)]
    ji = [x for x in range(n) if x not in joins]
    ji.sort(key=lambda x: (sum(leq[y][x] for y in range(n)), x))
    return ji


def _multiplications(add: Table, auts: Sequence[Sequence[int]]) -> list[Table]:
    """The multiplication tables making ``add`` an ai-semiring that are least,
    in the lexicographic order of their cell values, among their relabelings
    by ``auts``, listed in that order.

    ``auts`` must be automorphisms of ``add``.  Given all of Aut(+), one table
    per isomorphism class over ``add`` is returned; given only the identity,
    every labeled table.  Since cells are filled in order and each domain is
    ascending, the search meets the labeled tables in increasing order, so
    the table returned for a class is the first the unpruned search lists.

    Backtracks over the join-irreducible cells only, indexed by their
    position in growing-square order; every product ``e * f`` (index
    ``e * n + f``) is the sum of the cells below ``(e, f)`` and is computed
    once, when the last cell it reads is filled.  Monotonicity narrows each
    cell to the values above the sum of the cells below it.  Each
    distributivity check is stored at the cell where its products are ready.
    An associativity check is stored at the later of its two cells; there it
    fires at once if both products it compares are ready, and otherwise it is
    deferred to exactly the cell where the later of them becomes ready, and
    withdrawn on backtrack.

    Lex-leader pruning: a non-identity ``perm`` in ``auts`` relabels the
    table to one holding ``perm[val[src[k]]]`` at cell k = (p, q), where
    ``src[k]`` is the cell (perm^-1 p, perm^-1 q).  At cell t its prefix up
    to the first k with ``src[k] > t`` is decided, and a value is refused
    when that prefix is less than the table's own.  A perm is compared only
    at the cells where its decided prefix grows; elsewhere the comparison is
    the one the parent node passed.
    """
    n = len(add)
    rng = range(n)
    plus = [add[a][b] for a in rng for b in rng]
    above = [tuple(v for v in rng if plus[a * n + v] == v) for a in rng]
    ji = _join_irreducibles(add)
    jbelow = [[p for p in ji if add[p][x] == x] for x in rng]

    # cells in growing-square order over the join-irreducibles
    cells: list[tuple[int, int]] = []
    for k in range(len(ji)):
        cells.extend((ji[i], ji[k]) for i in range(k))
        cells.extend((ji[k], ji[j]) for j in range(k))
        cells.append((ji[k], ji[k]))
    pos = {cell: t for t, cell in enumerate(cells)}
    total = len(cells)

    # the cells each product reads; a cell's own product reads it last, after
    # the cells below it, whose sum bounds the cell's value from below
    reads = [sorted(pos[(p, q)] for p in jbelow[e] for q in jbelow[f]) for e in rng for f in rng]
    ready = [r[-1] for r in reads]
    below: list[tuple[int, ...]] = [()] * total
    joined: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in cells]
    for ef, r in enumerate(reads):
        if divmod(ef, n) in pos:
            below[r[-1]] = tuple(r[:-1])
        else:
            joined[r[-1]].append((ef, tuple(r[:-1])))

    # distributivity over a + b = j for incomparable a, b, on either side of c
    dist: list[list[tuple[int, int, int]]] = [[] for _ in cells]
    for a, b in itertools.combinations(rng, 2):
        j = add[a][b]
        if j in (a, b):
            continue
        for c in rng:
            for jc, ac, bc in ((j * n + c, a * n + c, b * n + c), (c * n + j, c * n + a, c * n + b)):
                dist[ready[jc]].append((jc, ac, bc))

    # (p * q) * r = p * (q * r) over the join-irreducibles
    assoc: list[list[tuple[int, int, int, int]]] = [[] for _ in cells]
    for p, q, r in itertools.product(ji, repeat=3):
        pq, qr = pos[(p, q)], pos[(q, r)]
        assoc[max(pq, qr)].append((pq, qr, p * n, r))

    # (perm, src, length of its decided prefix) for the perms whose prefix grows at each cell
    leaders: list[list[tuple[Sequence[int], tuple[int, ...], int]]] = [[] for _ in cells]
    for perm in auts:
        if all(perm[a] == a for a in rng):
            continue
        inv = [0] * n
        for a in rng:
            inv[perm[a]] = a
        src = tuple(pos[(inv[p], inv[q])] for p, q in cells)
        length = 0
        for t in range(total):
            grown = length
            while grown < total and src[grown] <= t:
                grown += 1
            if grown > length:
                leaders[t].append((perm, src, grown))
                length = grown

    val = [0] * total
    prod = [0] * (n * n)
    pending: list[list[tuple[int, int]]] = [[] for _ in cells]
    results: list[Table] = []

    def fill(t: int) -> None:
        if t == total:
            full = tuple(tuple(prod[a * n : a * n + n]) for a in rng)
            if not validate(add, full).valid:
                raise RuntimeError("search produced an invalid table; constraint bug")
            results.append(full)
            return
        own = cells[t][0] * n + cells[t][1]
        lows = below[t]
        if lows:
            lb = val[lows[0]]
            for s in lows[1:]:
                lb = plus[lb * n + val[s]]
            domain = above[lb]
        else:
            domain = rng
        bases = []
        for ef, earlier in joined[t]:
            acc = val[earlier[0]]
            for s in earlier[1:]:
                acc = plus[acc * n + val[s]]
            bases.append((ef, acc * n))
        checks, waiting, triples, syms = dist[t], pending[t], assoc[t], leaders[t]
        for v in domain:
            val[t] = v
            prod[own] = v  # the cells below sum to at most v
            for ef, base in bases:
                prod[ef] = plus[base + v]
            for jc, ac, bc in checks:
                if prod[jc] != plus[prod[ac] * n + prod[bc]]:
                    break
            else:
                for i, k in waiting:
                    if prod[i] != prod[k]:
                        break
                else:
                    deferred = None
                    for pq, qr, pn, r in triples:
                        i = val[pq] * n + r
                        k = pn + val[qr]
                        d = ready[i] if ready[i] > ready[k] else ready[k]
                        if d <= t:
                            if prod[i] != prod[k]:
                                break
                        else:
                            pending[d].append((i, k))
                            if deferred is None:
                                deferred = [d]
                            else:
                                deferred.append(d)
                    else:  # lex-leader: no perm maps the decided prefix below itself
                        for perm, src, length in syms:
                            for k in range(length):
                                w = perm[val[src[k]]]
                                if w != val[k]:
                                    break
                            else:
                                continue  # the prefixes are equal
                            if w < val[k]:
                                break
                        else:
                            fill(t + 1)
                    if deferred is not None:
                        for d in deferred:
                            pending[d].pop()

    fill(0)
    return results


def _elements(n: int) -> tuple[str, ...]:
    """The element names of a census member, as ``from_tables`` gives them."""
    return tuple(str(i + 1) for i in range(n))


def _census_for_addition(add: Table) -> tuple[int, list[tuple[bytes, Table, Table]]]:
    """The additive height of ``add`` and one (key, add, mul) triple per
    class over it; each key is ``canonical_form`` of its class, by the same
    two stages, since the perms attaining the least relabeling of a canonical
    ``add`` are Aut(+).  ``add`` must be in canonical relabeling, else those
    perms are a coset of Aut(+) and the search would drop classes.

    The height depends on the addition alone, so it is measured once, on the
    least class.  The order checks ``natural_order`` makes for it on the other
    classes are implied by the ``validate`` each table passed at its leaf:
    distributivity makes multiplication monotone, and a finite semilattice has
    a top (the sum of all its elements)."""
    add_part, auts = least_relabeling(add, itertools.permutations(range(len(add))))
    if add_part != bytes(v for row in add for v in row):
        raise ValueError("addition is not in canonical relabeling")
    seen: dict[bytes, Table] = {}
    for mul in _multiplications(add, auts):
        key = add_part + least_relabeling(mul, auts)[0]
        if key in seen:
            raise RuntimeError("search listed two tables of one class; symmetry bug")
        seen[key] = mul
    # the least class (there is one: the constant product onto the top is a
    # multiplication): one n! scan per addition
    least_key = min(seen)
    least = FiniteAiSemiring("", _elements(len(add)), add, seen[least_key])
    if canonical_form(least) != least_key:
        raise RuntimeError("census key differs from canonical_form; dedup bug")
    return additive_height(least), [(key, add, mul) for key, mul in seen.items()]


def _take_additions(additions: Sequence[Table], counter) -> dict[int, tuple]:
    """Search the next addition not yet taken, by the shared ``counter``,
    until none is left; returns the chunk of each one searched by its index."""
    chunks = {}
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(additions):
            return chunks
        chunks[i] = _census_for_addition(additions[i])


def _census_worker(additions: Sequence[Table], counter, conn) -> None:
    """A worker process: send the chunks it searched, or the exception that
    stopped it, through ``conn`` once."""
    try:
        result = _take_additions(additions, counter)
    except Exception as exc:  # the caller re-raises it
        result = exc
    with conn:
        conn.send(result)


def _parallel_chunks(additions: Sequence[Table], workers: int) -> list:
    """The chunk of each addition, searched by the calling process and
    ``workers - 1`` worker processes that take additions from one shared
    counter."""
    import multiprocessing

    counter = multiprocessing.Value("i", 0)
    started = []  # (process, receiving end of its pipe)
    try:
        for _ in range(workers - 1):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(target=_census_worker, args=(additions, counter, sender), daemon=True)
            process.start()
            started.append((process, receiver))
            sender.close()  # so a worker that dies leaves its pipe at EOF
        chunks = _take_additions(additions, counter)
        for process, receiver in started:
            try:
                received = receiver.recv()
            except EOFError:
                process.join()
                raise RuntimeError(
                    f"census worker exited with code {process.exitcode} before sending its classes"
                ) from None
            if isinstance(received, Exception):
                raise received
            chunks.update(received)
            process.join()
    finally:
        for process, receiver in started:
            receiver.close()
            if process.is_alive():
                process.terminate()
            process.join()
    return [chunks[i] for i in range(len(additions))]


def enumerate_ai_semirings(n: int, workers: int = 1) -> CensusResult:
    """Census of all ai-semirings of order n up to isomorphism.

    ``workers`` counts the processes that search, the calling process
    included, so ``workers=2`` starts one process beside it.  Results are
    sorted by canonical key and named ai{n}_{i}; the outcome is identical
    for any worker count.
    """
    start = time.monotonic()
    additions = enumerate_semilattices(n)
    if workers > 1 and len(additions) > 1:
        # deepest searches first (one cell per pair of join-irreducibles), so
        # no long search starts last
        additions = sorted(additions, key=lambda add: -len(_join_irreducibles(add)))
        chunks = _parallel_chunks(additions, min(workers, len(additions)))
    else:
        chunks = [_census_for_addition(add) for add in additions]

    triples = sorted(item for _, chunk in chunks for item in chunk)
    # every table passed validate at its leaf of the search
    elements = _elements(n)
    semirings = tuple(
        FiniteAiSemiring(f"ai{n}_{i:03d}", elements, add, mul) for i, (_, add, mul) in enumerate(triples)
    )
    height1_adds = {add for add, (height, _) in zip(additions, chunks) if height == 1}
    return CensusResult(
        order=n,
        semirings=semirings,
        height1=tuple(S for S in semirings if S.add in height1_adds),
        elapsed=time.monotonic() - start,
        keys=tuple(key for key, _, _ in triples),
    )


def _census_names(path: str):
    """The names in the directory ``path`` if it is empty or holds only a
    census written by ``write_census`` (index.txt and the files it lists);
    None if it holds anything else."""
    names = os.listdir(path)
    if not names:
        return names
    try:
        with open(os.path.join(path, "index.txt"), encoding="utf-8") as fh:
            listed = {line.split()[-1] for line in fh if line.strip()}
    except (OSError, UnicodeDecodeError):
        return None
    listed.add("index.txt")
    for name in names:
        full = os.path.join(path, name)
        if name not in listed or os.path.islink(full) or not os.path.isfile(full):
            return None
    return names


def write_census(result: CensusResult, out_dir: str) -> str:
    """Persist a census as one JSON file per algebra plus an index of
    canonical keys; returns the index path.

    The files go into a fresh directory beside ``out_dir``, which is then
    renamed into its place, so ``out_dir`` holds the earlier census or all of
    this one, and no file of an earlier, larger census survives.  An existing
    ``out_dir`` is replaced only if it is empty or holds nothing but an
    earlier census; otherwise ValueError is raised and nothing is written.
    A result without one key per semiring is refused the same way."""
    if len(result.keys) != len(result.semirings):
        raise ValueError(f"the census has {len(result.semirings)} semirings but {len(result.keys)} keys")
    target = os.path.realpath(out_dir)
    old_names = None
    if os.path.lexists(target):
        old_names = _census_names(target) if os.path.isdir(target) else None
        if old_names is None:
            raise ValueError(
                f"{out_dir} holds files that are not a census; give a new or empty directory"
            )
    parent, base = os.path.split(target)
    os.makedirs(parent, exist_ok=True)
    fresh = os.path.join(parent, f".{base}.{os.urandom(8).hex()}")
    os.mkdir(fresh)
    try:
        lines = []
        for S, key in zip(result.semirings, result.keys):
            filename = f"{S.name}.json"
            with open(os.path.join(fresh, filename), "w", encoding="utf-8") as fh:
                json.dump(S.to_dict(), fh, indent=1)
                fh.write("\n")
            lines.append(f"{key.hex()} {filename}")
        with open(os.path.join(fresh, "index.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        if old_names is None:
            os.rename(fresh, target)
        else:
            old = fresh + ".old"
            os.rename(target, old)
            try:
                os.rename(fresh, target)
            except OSError:
                os.rename(old, target)
                raise
            # delete only the earlier census; rmdir fails if anything else appeared
            for name in old_names:
                os.remove(os.path.join(old, name))
            os.rmdir(old)
    except BaseException:
        shutil.rmtree(fresh, ignore_errors=True)
        raise
    return os.path.join(out_dir, "index.txt")
