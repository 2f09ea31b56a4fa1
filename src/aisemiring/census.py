"""Enumerate all ai-semirings of a given order up to isomorphism.

Strategy: enumerate semilattices (the additive reducts) up to isomorphism,
then for each one backtrack over the multiplications.  Distributivity makes a
multiplication a function of its values on pairs of join-irreducible elements,
so only those cells are searched; every other product is the forced sum over
the join-irreducibles below the factors.

The search is compiled before it starts into one plan entry per cell, a
tuple that a node of the search unpacks once.  A cell is its position in
growing-square order and the products form a flat list indexed ``e * n + f``;
each product is computed once per path, when the last cell it reads is
filled, as a sum over the covering cells only (a cell is at least every cell
below it).  Every constraint is placed in advance at the cell where it
becomes decidable, except an associativity check whose products depend on
earlier cell values: it is deferred on the current path to exactly the cell
that makes it decidable.

Isomorphic multiplications over one addition are relabelings of each other
by Aut(+), the perms attaining a canonical addition's least relabeling.  The
search keeps only the lex-leader of each Aut(+)-orbit, the table whose cell
values are least: a partial table is pruned as soon as some automorphism maps
its decided cells to a smaller prefix (the least-number heuristic of Mace4;
Crawford, Ginsberg, Luks & Roy, KR 1996).  Each class is so built once.  The
unpruned search lists the labeled tables in increasing order of their cell
values, so the lex-leader of a class is the first of its tables the unpruned
search lists.  Finished tables are validated (``validate`` caches the laws of
the addition alone, so only the multiplication laws are checked per table)
and keyed by ``core.canonical_form`` in its two stages.

The search of an addition returns only its (key, add, mul) triples; every
check that spans classes is made once, in one pass over the sorted list of
all triples.  Each key starts with its addition's n^2 bytes, so the classes
of one addition sit next to each other, least first; the height-1 classes,
over the least addition (the flat one), come first.  The pass refuses a key
equal to the one before it (a symmetry bug), rechecks the least class of
each addition against ``canonical_form``, and measures its additive height,
which holds for every class over its addition.

With more than one worker, each addition is one task.  The worker count
includes the calling process, so two workers start one process beside it.
Each process takes the next addition from one shared counter, deepest search
first (most join-irreducibles, so most searched cells), so that no long
search starts last.  A started one sends one message at the end: its triples
as one flat list, or the exception it raised, which the caller re-raises
chained from the worker's traceback.  A worker that exits without sending,
as one whose exception cannot be pickled does, is a RuntimeError naming its
exit code.  The sort orders the classes by their keys, so the census is the
same for any worker count and any order of additions or arriving triples.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import time
from typing import NamedTuple, Sequence

from .core import FiniteAiSemiring, Table, additive_height, canonical_form, least_relabeling, validate
from .core import element_names as _elements  # the names from_tables gives by default

SEMILATTICE_MAX_ORDER = 6


class CensusResult(NamedTuple):
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

    Since every domain lies above the sum of the cells below, each cell is at
    least every cell below it, and a sum of cells equals the sum of its
    maximal ones.  So the lower bound of a cell (p, q) sums only its lower
    covers (p', q) and (p, q'), p' maximal among the join-irreducibles
    strictly below p, and any other product ``e * f`` only the cells of the
    maximal join-irreducibles below e and below f.  Each cell is compiled to
    one plan entry: its own product index, the first of its lower covers and
    the rest, its joined products (each with the first of its other
    summands and the rest), and its distributivity checks, deferred checks,
    associativity checks and lex-leader perms.

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

    def maximal(xs: list[int]) -> list[int]:
        return [x for x in xs if not any(y != x and add[x][y] == y for y in xs)]

    # the cell each product reads last, where it is computed; a cell's own
    # product reads it last, after the cells below it
    ready = [max(pos[(p, q)] for p in jbelow[e] for q in jbelow[f]) for e in rng for f in rng]
    # every sum is over maximal cells only: the lower covers of a cell, and
    # the cells of the maximal join-irreducibles below each factor otherwise
    tops = [maximal(jbelow[x]) for x in rng]
    covers = {p: maximal([x for x in jbelow[p] if x != p]) for p in ji}
    below = [sorted([pos[(x, q)] for x in covers[p]] + [pos[(p, x)] for x in covers[q]]) for p, q in cells]
    joined: list[list[tuple[int, int, tuple[int, ...]]]] = [[] for _ in cells]
    for ef, t in enumerate(ready):
        e, f = divmod(ef, n)
        if (e, f) not in pos:
            earlier = sorted(pos[(p, q)] for p in tops[e] for q in tops[f] if pos[(p, q)] != t)
            joined[t].append((ef, earlier[0], tuple(earlier[1:])))

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

    # (perm, its decided prefix as (k, src[k]) pairs) for the perms whose prefix grows at each cell
    leaders: list[list[tuple[Sequence[int], tuple[tuple[int, int], ...]]]] = [[] for _ in cells]
    for perm in auts:
        if all(perm[a] == a for a in rng):
            continue
        inv = [0] * n
        for a in rng:
            inv[perm[a]] = a
        src = tuple(pos[(inv[p], inv[q])] for p, q in cells)
        pairs = tuple(enumerate(src))
        length = 0
        for t in range(total):
            grown = length
            while grown < total and src[grown] <= t:
                grown += 1
            if grown > length:
                leaders[t].append((perm, pairs[:grown]))
                length = grown

    val = [0] * total
    prod = [0] * (n * n)
    pending: list[list[tuple[int, int]]] = [[] for _ in cells]
    # the plan entries, as the docstring lists them; no lower cover is None
    plan = [
        (p * n + q, low[0] if low else None, tuple(low[1:]), joined[t], dist[t], pending[t], assoc[t], leaders[t])
        for t, ((p, q), low) in enumerate(zip(cells, below))
    ]
    rows = [slice(a * n, a * n + n) for a in rng]
    results: list[Table] = []

    def fill(t: int) -> None:
        if t == total:
            full = tuple(tuple(prod[row]) for row in rows)
            if not validate(add, full).valid:
                raise RuntimeError("search produced an invalid table; constraint bug")
            results.append(full)
            return
        own, low, lows, joins, checks, waiting, triples, syms = plan[t]
        if low is None:
            domain = rng
        else:
            lb = val[low]
            for s in lows:
                lb = plus[lb * n + val[s]]
            domain = above[lb]
        bases = []
        for ef, first, rest in joins:
            acc = val[first]
            for s in rest:
                acc = plus[acc * n + val[s]]
            bases.append((ef, acc * n))
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
                        if ready[i] <= t >= ready[k]:
                            if prod[i] != prod[k]:
                                break
                        else:  # to the later of the two ready cells
                            later = pending[ready[i] if ready[i] > ready[k] else ready[k]]
                            later.append((i, k))
                            if deferred is None:
                                deferred = [later]
                            else:
                                deferred.append(later)
                    else:  # lex-leader: no perm maps the decided prefix below itself
                        for perm, prefix in syms:
                            for k, s in prefix:
                                w = perm[val[s]]
                                if w != val[k]:
                                    break
                            else:
                                continue  # the prefixes are equal
                            if w < val[k]:
                                break
                        else:
                            fill(t + 1)
                    if deferred is not None:
                        for later in deferred:
                            later.pop()

    fill(0)
    return results


def _census_for_addition(add: Table) -> list[tuple[bytes, Table, Table]]:
    """One (key, add, mul) triple per class over ``add``; each key is
    ``canonical_form`` of its class, by the same two stages, since the perms
    attaining the least relabeling of a canonical ``add`` are Aut(+).  ``add``
    must be in canonical relabeling, else those perms are a coset of Aut(+)
    and the search would drop classes.  ``enumerate_ai_semirings`` checks
    the triples against each other and measures the height."""
    add_part, auts = least_relabeling(add, itertools.permutations(range(len(add))))
    if add_part != bytes(v for row in add for v in row):
        raise ValueError("addition is not in canonical relabeling")
    return [(add_part + least_relabeling(mul, auts)[0], add, mul) for mul in _multiplications(add, auts)]


def _take_additions(additions: Sequence[Table], counter) -> list[tuple[bytes, Table, Table]]:
    """Search the next addition not yet taken, by the shared ``counter``,
    until none is left; returns the triples of those searched in one list."""
    triples = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(additions):
            return triples
        triples += _census_for_addition(additions[i])


def _census_worker(additions: Sequence[Table], counter, conn) -> None:
    """A worker process: send ``(triples, None)`` after its last addition, or
    ``(None, (exc, traceback text))`` if the search raised, through ``conn``
    once.  An unpicklable exception fails ``send`` before a byte is written."""
    try:
        message = (_take_additions(additions, counter), None)
    except Exception as exc:  # the caller re-raises it
        import traceback

        message = (None, (exc, traceback.format_exc()))
    with conn:
        conn.send(message)


def _parallel_chunks(additions: Sequence[Table], workers: int) -> list[tuple[bytes, Table, Table]]:
    """The triples of every addition in one list, in no fixed order: the
    chunks of the calling process and of ``workers - 1`` worker processes
    that take additions from one shared counter, joined."""
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
        triples = _take_additions(additions, counter)
        for process, receiver in started:
            try:
                found, failure = receiver.recv()
            except EOFError:
                process.join()
                raise RuntimeError(
                    f"census worker exited with code {process.exitcode} before sending its classes"
                ) from None
            if failure is not None:
                from multiprocessing.pool import RemoteTraceback

                exc, text = failure
                raise exc from RemoteTraceback(f'\n"""\n{text}"""')
            triples += found
            process.join()
    finally:
        for process, receiver in started:
            receiver.close()
            if process.is_alive():
                process.terminate()
            process.join()
    return triples


def enumerate_ai_semirings(n: int, workers: int = 1) -> CensusResult:
    """Census of all ai-semirings of order n up to isomorphism.

    ``workers`` counts the processes that search, the calling process
    included, so ``workers=2`` starts one process beside it.  Results are
    sorted by canonical key and named ai{n}_{i}; the outcome is identical
    for any worker count.  ``workers`` must be an int of at least 1.
    """
    if type(workers) is not int or workers < 1:  # bool is an int subclass; refuse it
        raise ValueError(f"workers must be an int of at least 1, got {workers!r}")
    start = time.monotonic()
    additions = enumerate_semilattices(n)
    if workers > 1 and len(additions) > 1:
        # deepest searches first (one cell per pair of join-irreducibles), so
        # no long search starts last
        deepest = sorted(additions, key=lambda add: -len(_join_irreducibles(add)))
        rows = _parallel_chunks(deepest, min(workers, len(additions)))
    else:
        rows = [row for add in additions for row in _census_for_addition(add)]

    rows.sort()
    # every table passed validate at its leaf of the search
    elements = _elements(n)
    semirings, height1 = [], []
    last_key = last_add = height = None
    for i, (key, add, mul) in enumerate(rows):
        if key == last_key:
            raise RuntimeError("search listed two tables of one class; symmetry bug")
        S = FiniteAiSemiring(f"ai{n}_{i:03d}", elements, add, mul)
        if add != last_add:  # the least class over a new addition: one n! scan each
            if canonical_form(S) != key:
                raise RuntimeError("census key differs from canonical_form; dedup bug")
            # the height depends on the addition alone, and is read off it
            height = additive_height(S)
            last_add = add
        last_key = key
        semirings.append(S)
        if height == 1:
            height1.append(S)
    return CensusResult(
        order=n,
        semirings=tuple(semirings),
        height1=tuple(height1),
        elapsed=time.monotonic() - start,
        keys=tuple(key for key, _, _ in rows),
    )


def check_census_dir(out_dir: str) -> str:
    """The real path of ``out_dir``; raises ValueError unless ``out_dir`` is
    new or an empty directory."""
    target = os.path.realpath(out_dir)
    if os.path.lexists(target) and (not os.path.isdir(target) or os.listdir(target)):
        raise ValueError(f"{out_dir} exists and is not an empty directory; give a new or empty one")
    return target


def write_census(result: CensusResult, out_dir: str) -> str:
    """Persist a census as one JSON file per algebra plus an index of
    canonical keys; returns the index path.

    ``out_dir`` must not exist or must be an empty directory: anything else,
    an earlier census included, raises ValueError before any file is
    written, as does a result without one key per semiring.  The files go
    into a fresh directory beside ``out_dir``, which one rename, the only step
    touching ``out_dir``, puts in its place, so ``out_dir`` holds all of this
    census or stays as it was; a failure removes only that fresh directory."""
    if len(result.keys) != len(result.semirings):
        raise ValueError(f"the census has {len(result.semirings)} semirings but {len(result.keys)} keys")
    target = check_census_dir(out_dir)
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
        os.rename(fresh, target)  # POSIX: replaces an empty target, refuses one a file appeared in
    except BaseException:
        shutil.rmtree(fresh, ignore_errors=True)
        raise
    return os.path.join(out_dir, "index.txt")
