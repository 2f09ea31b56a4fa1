import contextlib
import hashlib
import itertools
import json
import multiprocessing
import os
import random
import signal
import time

import pytest

from aisemiring import catalog, census, construct
from aisemiring.census import (
    _canonical_add,
    _census_for_addition,
    _multiplications,
    enumerate_ai_semirings,
    enumerate_semilattices,
    write_census,
)
from aisemiring.cli import main
from aisemiring.core import (
    FiniteAiSemiring,
    additive_height,
    canonical_form,
    direct_product,
    dual,
    least_relabeling,
    validate,
)
from reference_census import labeled_semilattices, least_key, reference_keys, zero_cancellative_semigroups


def test_semilattice_counts():
    # the lattices on n + 1 elements (OEIS A006966): adjoin a bottom
    assert [len(enumerate_semilattices(n)) for n in range(1, 7)] == [1, 1, 2, 5, 15, 53]


def _semilattices_by_relations(n):
    """The relation scan the one-point extension replaced, each table in
    canonical relabeling."""
    return tuple(sorted({_canonical_add(add) for add in labeled_semilattices(n)}))


@pytest.mark.parametrize("n", range(1, 6))
def test_semilattices_against_relation_scan(n):
    assert enumerate_semilattices(n) == _semilattices_by_relations(n)


def test_semilattices_against_brute_force_order4():
    # independent oracle: all 4^6 symmetric idempotent tables filtered by
    # associativity, then deduplicated by canonical relabeling
    n = 4
    pairs = list(itertools.combinations(range(n), 2))
    found = set()
    for choice in itertools.product(range(n), repeat=len(pairs)):
        add = [[i if i == j else None for j in range(n)] for i in range(n)]
        for (i, j), v in zip(pairs, choice):
            add[i][j] = add[j][i] = v
        ok = all(
            add[add[a][b]][c] == add[a][add[b][c]]
            for a, b, c in itertools.product(range(n), repeat=3)
        )
        if ok:
            found.add(_canonical_add(tuple(map(tuple, add))))
    assert sorted(found) == list(enumerate_semilattices(4))


def test_enumerate_semilattices_bounds():
    with pytest.raises(ValueError):
        enumerate_semilattices(0)
    with pytest.raises(ValueError):
        enumerate_semilattices(7)


def _identity(n):
    return (tuple(range(n)),)


def _automorphisms(add):
    n = len(add)
    return least_relabeling(add, itertools.permutations(range(n)))[1]


def _relabel(perm, table):
    n = len(table)
    inv = [perm.index(i) for i in range(n)]
    return tuple(tuple(perm[table[inv[a]][inv[b]]] for b in range(n)) for a in range(n))


def _cell_vector(add, mul):
    # the search's cells: pairs of join-irreducibles in growing-square order,
    # the join-irreducibles sorted by how many elements lie below them
    n = len(add)
    joins = {add[a][b] for a in range(n) for b in range(n) if add[a][b] not in (a, b)}
    ji = sorted((x for x in range(n) if x not in joins), key=lambda x: (sum(add[y][x] == x for y in range(n)), x))
    cells = []
    for k in range(len(ji)):
        cells += [(ji[i], ji[k]) for i in range(k)] + [(ji[k], ji[j]) for j in range(k)] + [(ji[k], ji[k])]
    return tuple(mul[p][q] for p, q in cells)


def test_multiplications_against_brute_force_up_to_order3():
    # independent oracle: every n**(n*n) multiplication table filtered by validate
    for n in (1, 2, 3):
        rows = list(itertools.product(range(n), repeat=n))
        for add in enumerate_semilattices(n):
            valid = [mul for mul in itertools.product(rows, repeat=n) if validate(add, mul).valid]
            found = _multiplications(add, _identity(n))
            assert len(set(found)) == len(found)
            assert sorted(found) == valid
            # pruned by Aut(+): the least member in cell order of each orbit
            auts = [
                perm for perm in itertools.permutations(range(n))
                if all(perm[add[a][b]] == add[perm[a]][perm[b]] for a in range(n) for b in range(n))
            ]
            leaders = {
                min((_relabel(perm, mul) for perm in auts), key=lambda t: _cell_vector(add, t)) for mul in valid
            }
            assert _multiplications(add, auts) == sorted(leaders, key=lambda t: _cell_vector(add, t))


def test_order4_labeled_output_is_pinned(order4_census):
    # the census keeps the least labeled table in cell order of each class,
    # the first of its class in the order of the unpruned search output
    additions = enumerate_semilattices(4)
    assert [len(_multiplications(add, _identity(4))) for add in additions] == [271, 217, 170, 202, 386]
    pruned = [len(_multiplications(add, _automorphisms(add))) for add in additions]
    assert pruned == [58, 217, 93, 112, 386]
    assert pruned == [sum(S.add == add for S in order4_census.semirings) for add in additions]
    tables = [(S.add, S.mul) for S in order4_census.semirings]
    digest = hashlib.sha256(repr(tables).encode()).hexdigest()
    assert digest == "b48f793acd69df313ad01e3bb669e16ec24c01b5901a5cb2d141e065ee2c1106"


def _first_of_each_class(add, auts):
    first = {}
    for mul in _multiplications(add, _identity(len(add))):
        first.setdefault(least_relabeling(mul, auts)[0], mul)
    return list(first.values())


def test_pruned_search_keeps_the_first_table_of_each_class():
    # differential check against the unpruned search; the two order-5
    # additions left out take over a second each unpruned, and the order-5
    # digest test covers them
    additions = [add for n in (1, 2, 3, 4) for add in enumerate_semilattices(n)]
    for add in additions + list(enumerate_semilattices(5)[2:]):
        auts = _automorphisms(add)
        assert _multiplications(add, auts) == _first_of_each_class(add, auts)


def test_search_that_ignores_automorphisms_is_a_symmetry_bug(monkeypatch):
    unpruned = census._multiplications
    monkeypatch.setattr(census, "_multiplications", lambda add, auts: unpruned(add, _identity(len(add))))
    with pytest.raises(RuntimeError, match="symmetry bug"):
        enumerate_ai_semirings(4)


def test_a_class_listed_by_two_processes_is_a_symmetry_bug(monkeypatch):
    # every process lists its first class twice, so the key comes twice to
    # the caller's sorted pass, the one place where all classes meet
    real = census._take_additions

    def first_twice(additions, counter):
        triples = real(additions, counter)
        return triples + triples[:1]

    monkeypatch.setattr(census, "_take_additions", first_twice)
    with _within(30), pytest.raises(RuntimeError, match="symmetry bug"):
        enumerate_ai_semirings(4, workers=2)
    assert multiprocessing.active_children() == []


def test_census_refuses_an_addition_out_of_canonical_relabeling():
    add = enumerate_semilattices(4)[0]
    relabeled = _relabel((3, 2, 1, 0), add)
    assert relabeled != add and _canonical_add(relabeled) == add
    with pytest.raises(ValueError, match="canonical relabeling"):
        _census_for_addition(relabeled)


def _census_digest(result):
    h = hashlib.sha256()
    for S, key in zip(result.semirings, result.keys):
        h.update(repr((S.name, S.add, S.mul, key.hex())).encode())
    h.update(repr([S.name for S in result.height1]).encode())
    return h.hexdigest()


def test_order5_census_output_is_pinned():
    # _census_digest of enumerate_ai_semirings(5) taken from the census
    # before its search was pruned by Aut(+), when it kept the first table
    # of each class the unpruned search listed; the same for any worker count.
    # The counts were checked against tests/reference_census.py at order 5.
    digest = "7006d29888385d44800342c686f9f5e8c4e111693aa3d2ff3feb94e3676f0230"
    result = enumerate_ai_semirings(5, workers=1)
    assert _census_digest(result) == digest
    assert (result.count, len(result.height1)) == (15751, 215)
    keys = set(result.keys)
    # canonical_form's key of each dual: dual(S) keeps the addition of S, so
    # the first stage, the least relabeling of the addition and the perms
    # attaining it, is computed once per addition
    perms = list(itertools.permutations(range(5)))
    additions = {}
    for S in map(dual, result.semirings):
        if S.add not in additions:
            additions[S.add] = least_relabeling(S.add, perms)
        add_key, attained = additions[S.add]
        assert add_key + least_relabeling(S.mul, attained)[0] in keys
    assert len(additions) == 15  # the semilattices of order 5
    assert _census_digest(enumerate_ai_semirings(5, workers=2)) == digest


def test_small_census_counts(order3_census):
    assert enumerate_ai_semirings(1).count == 1
    assert enumerate_ai_semirings(2).count == 6
    assert order3_census.count == 61


def test_census_equals_the_independent_reference(order3_census, order4_census):
    # reference_census shares no search, relabeling or key code with the census
    censuses = [enumerate_ai_semirings(1), enumerate_ai_semirings(2), order3_census, order4_census]
    for result, count in zip(censuses, (1, 6, 61, 866)):
        keys = reference_keys(result.order)
        assert len(keys) == result.count == count
        assert {least_key((S.add, S.mul)) for S in result.semirings} == keys


def test_flat_classes_equal_flat_semigroups(order3_census, order4_census):
    # a third route to the flat height-1 classes: flat_from_semigroup over
    # every labeled 0-cancellative semigroup, keyed by the reference's key
    censuses = [enumerate_ai_semirings(2), order3_census, order4_census]
    for result, counts in zip(censuses, ((2, 2), (14, 8), (128, 27))):
        elements = tuple(map(str, range(result.order)))
        tables = zero_cancellative_semigroups(result.order)
        flats = [construct.flat_from_semigroup(construct.FiniteSemigroup(elements, mul, zero=0)) for mul in tables]
        keys = {least_key((S.add, S.mul)) for S in flats}
        assert (len(tables), len(keys)) == counts
        assert {least_key((S.add, S.mul)) for S in result.height1 if construct.is_flat(S)} == keys


def test_census_is_closed_under_dual(order3_census, order4_census):
    for result in (enumerate_ai_semirings(1), enumerate_ai_semirings(2), order3_census, order4_census):
        keys = set(result.keys)
        assert all(canonical_form(dual(S)) in keys for S in result.semirings)


def test_order2_census_matches_the_six_named_semirings():
    result = enumerate_ai_semirings(2)
    census_keys = {canonical_form(S) for S in result.semirings}
    named_keys = {
        canonical_form(catalog.get(name).semiring) for name in ("L2", "R2", "M2", "D2", "N2", "T2")
    }
    assert census_keys == named_keys


def test_census_members_are_valid_and_deduplicated(order3_census):
    keys = set()
    for S in order3_census.semirings:
        assert validate(S.add, S.mul).valid
        key = canonical_form(S)
        assert key not in keys
        keys.add(key)


def test_census_closure_under_small_products(order4_census):
    result2 = enumerate_ai_semirings(2)
    keys4 = set(order4_census.keys)
    for A, B in itertools.product(result2.semirings, repeat=2):
        assert canonical_form(direct_product(A, B)) in keys4


def test_census_deterministic_and_parallel_agrees():
    seq = enumerate_ai_semirings(3, workers=1)
    par = enumerate_ai_semirings(3, workers=2)
    assert [S.add for S in seq.semirings] == [S.add for S in par.semirings]
    assert [S.mul for S in seq.semirings] == [S.mul for S in par.semirings]


def test_order4_parallel_census_is_bit_identical(order4_census):
    par = enumerate_ai_semirings(4, workers=4)
    assert [(S.add, S.mul) for S in par.semirings] == [
        (S.add, S.mul) for S in order4_census.semirings
    ]


@pytest.mark.parametrize("order, workers", [(3, 8), (4, 3)])
def test_census_is_bit_identical_for_more_workers(order, workers, order3_census, order4_census):
    # 8 workers for the 2 additions of order 3; 2 worker processes beside the caller at order 4
    serial = {3: order3_census, 4: order4_census}[order]
    par = enumerate_ai_semirings(order, workers=workers)
    assert [(S.name, S.add, S.mul) for S in par.semirings] == [(S.name, S.add, S.mul) for S in serial.semirings]
    assert par.keys == serial.keys
    assert par.height1 == serial.height1


@contextlib.contextmanager
def _within(seconds):
    """Fail a test that would otherwise hang.  Not by TimeoutError: it is an
    OSError, which multiprocessing swallows while it waits for a process."""
    def expire(signum, frame):
        pytest.fail(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_worker_error_reaches_the_caller_and_no_process_is_left(monkeypatch, workers):
    # whichever process takes the chosen addition raises, so the outcome
    # does not depend on who takes what
    chosen = enumerate_semilattices(4)[2]
    real = census._census_for_addition

    def failing(add):
        if add == chosen:
            raise RuntimeError("search listed two tables of one class; symmetry bug")
        return real(add)

    monkeypatch.setattr(census, "_census_for_addition", failing)
    with _within(30), pytest.raises(RuntimeError, match=r"^search listed two tables of one class; symmetry bug$"):
        enumerate_ai_semirings(4, workers=workers)
    assert multiprocessing.active_children() == []


def test_a_worker_that_exits_without_sending_is_an_error(monkeypatch):
    # the worker takes no addition, so the caller searches them all first
    monkeypatch.setattr(census, "_census_worker", lambda additions, counter, conn: os._exit(3))
    with _within(30), pytest.raises(RuntimeError, match="exited with code 3"):
        enumerate_ai_semirings(4, workers=2)
    assert multiprocessing.active_children() == []


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("holds a lambda")
        self.callback = lambda: None


def _raise_in_workers_only(monkeypatch, exc):
    """Make every worker process raise ``exc`` from ``raising_in_a_worker``,
    and let the calling process take no addition, so a worker meets it."""
    caller = os.getpid()
    real = census._take_additions

    def raising_in_a_worker(add):
        if os.getpid() != caller:
            raise exc
        return _census_for_addition(add)

    monkeypatch.setattr(census, "_census_for_addition", raising_in_a_worker)
    monkeypatch.setattr(
        census, "_take_additions", lambda additions, counter: [] if os.getpid() == caller else real(additions, counter)
    )


def test_a_worker_error_carries_the_worker_traceback(monkeypatch):
    _raise_in_workers_only(monkeypatch, ValueError("planted in a worker"))
    with _within(30):
        with pytest.raises(ValueError, match=r"^planted in a worker$") as info:
            enumerate_ai_semirings(4, workers=2)
        cause = str(info.value.__cause__)
        assert "Traceback (most recent call last)" in cause and "in raising_in_a_worker" in cause
        assert multiprocessing.active_children() == []


def test_an_unpicklable_worker_error_is_named_in_a_runtime_error(monkeypatch):
    _raise_in_workers_only(monkeypatch, _Unpicklable())
    with _within(30):
        with pytest.raises(RuntimeError, match=r"^census worker raised _Unpicklable: holds a lambda$") as info:
            enumerate_ai_semirings(4, workers=2)
        assert "in raising_in_a_worker" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, -3, True, 2.0, "2"])
def test_census_refuses_a_worker_count_that_is_not_an_int_of_at_least_1(workers):
    with pytest.raises(ValueError, match=r"^workers must be an int of at least 1"):
        enumerate_ai_semirings(2, workers=workers)


def test_an_interrupted_caller_stops_its_workers(monkeypatch):
    caller = os.getpid()
    real = census._census_for_addition

    def interrupted(add):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)  # a worker that would outlive the caller's wait
        return real(add)

    monkeypatch.setattr(census, "_census_for_addition", interrupted)
    with _within(30), pytest.raises(KeyboardInterrupt):
        enumerate_ai_semirings(4, workers=3)
    assert multiprocessing.active_children() == []


def test_census_does_not_depend_on_the_order_of_its_additions(monkeypatch, order3_census, order4_census):
    # the classes take their order from one sort of their unique keys
    real = census.enumerate_semilattices
    monkeypatch.setattr(census, "enumerate_semilattices", lambda n: real(n)[::-1])
    for result in (order3_census, order4_census):
        reversed_order = enumerate_ai_semirings(result.order)
        assert [S.name for S in reversed_order.semirings] == [S.name for S in result.semirings]
        assert [(S.add, S.mul) for S in reversed_order.semirings] == [(S.add, S.mul) for S in result.semirings]
        assert reversed_order.keys == result.keys
        assert reversed_order.height1 == result.height1


@pytest.mark.parametrize("workers", [2, 3])
def test_census_does_not_depend_on_the_order_of_its_chunks(monkeypatch, workers, order3_census, order4_census):
    # each process returns its triples reversed; the classes and their heights
    # still come from one sort of their unique keys
    real = census._take_additions
    monkeypatch.setattr(census, "_take_additions", lambda additions, counter: real(additions, counter)[::-1])
    for result in (order3_census, order4_census):
        par = enumerate_ai_semirings(result.order, workers=workers)
        assert [S.name for S in par.semirings] == [S.name for S in result.semirings]
        assert [(S.add, S.mul) for S in par.semirings] == [(S.add, S.mul) for S in result.semirings]
        assert par.keys == result.keys
        assert par.height1 == result.height1


def test_height1_is_the_classes_of_additive_height_one(monkeypatch, order3_census, order4_census):
    results = [enumerate_ai_semirings(1), enumerate_ai_semirings(2), order3_census, order4_census]
    for result in results:
        assert result.height1 == tuple(S for S in result.semirings if additive_height(S) == 1)
    assert [len(result.height1) for result in results] == [0, 6, 17, 58]
    # the height is measured once per addition, by the caller for any worker
    # count, and holds for every class over it
    measured = []

    def counted(S):
        measured.append(S.add)
        return additive_height(S)

    monkeypatch.setattr(census, "additive_height", counted)
    for workers in (1, 2):
        measured.clear()
        assert enumerate_ai_semirings(4, workers=workers).height1 == order4_census.height1
        assert measured == list(enumerate_semilattices(4))
    for n in (1, 2, 3, 4):
        for add in enumerate_semilattices(n):
            triples = _census_for_addition(add)
            classes = [FiniteAiSemiring("", census._elements(n), add, mul) for _, _, mul in triples]
            assert len({additive_height(S) for S in classes}) == 1


def test_write_census(tmp_path):
    result = enumerate_ai_semirings(2)
    index = write_census(result, str(tmp_path))
    lines = open(index).read().strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        key, filename = line.split()
        data = (tmp_path / filename).read_text()
        S = FiniteAiSemiring.from_dict(json.loads(data))
        assert canonical_form(S).hex() == key
    # a smaller census written over a larger one leaves no stale file behind
    small = enumerate_ai_semirings(1)
    index = write_census(small, str(tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(["index.txt"] + [f"{S.name}.json" for S in small.semirings])
    assert len(open(index).read().strip().splitlines()) == len(small.semirings) == 1
    assert [p.name for p in tmp_path.parent.iterdir() if p.name.startswith(f".{tmp_path.name}.")] == []
    # a directory holding anything besides a census is refused and left as it was
    (tmp_path / "notes.txt").write_text("not a census\n")
    with pytest.raises(ValueError, match="not a census"):
        write_census(result, str(tmp_path))
    assert (tmp_path / "notes.txt").read_text() == "not a census\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["notes.txt"])
    assert [p.name for p in tmp_path.parent.iterdir() if p.name.startswith(f".{tmp_path.name}.")] == []
    (tmp_path / "notes.txt").unlink()
    (tmp_path / "sub").mkdir()
    with pytest.raises(ValueError, match="not a census"):
        write_census(result, str(tmp_path))
    assert (tmp_path / "sub").is_dir()


def test_classify_examples():
    assert catalog.classify(catalog.resolve("@sc:ab")) == "S_(4,8)"
    assert catalog.classify(catalog.get("S_(4,5)").semiring) == "S_(4,5)"
    assert catalog.classify(dual(catalog.get("S_(4,48)").semiring)) == "S_(4,46)"
    assert catalog.classify(catalog.resolve("@prod:S7,S7")) is None


def _random_relabeling(rng, S):
    n = S.order
    perm = list(range(n))
    rng.shuffle(perm)
    return FiniteAiSemiring.from_tables(_relabel(perm, S.add), _relabel(perm, S.mul))


def test_random_relabelings_classify_into_census(order3_census):
    rng = random.Random(12)
    keys = {canonical_form(S) for S in order3_census.semirings}
    for _ in range(300):
        relabeled = _random_relabeling(rng, rng.choice(order3_census.semirings))
        assert canonical_form(relabeled) in keys


def test_ten_thousand_random_order4_tables_classify(order4_census):
    # completeness spot check: random valid order-4 tables (arbitrary
    # relabelings of census members) always land on a census key
    rng = random.Random(13)
    keys = {canonical_form(S) for S in order4_census.semirings}
    members = order4_census.semirings
    for _ in range(10_000):
        relabeled = _random_relabeling(rng, rng.choice(members))
        assert canonical_form(relabeled) in keys


def _brute_force_key(add, mul):
    # independent reference for canonical_form: relabel both tables under
    # every perm of the carrier and keep the least add-then-mul bytes
    n = len(add)
    keys = []
    for perm in itertools.permutations(range(n)):
        relabeled = [[[0] * n for _ in range(n)] for _ in (add, mul)]
        for table, out in zip((add, mul), relabeled):
            for a in range(n):
                for b in range(n):
                    out[perm[a]][perm[b]] = perm[table[a][b]]
        keys.append(bytes(v for out in relabeled for row in out for v in row))
    return min(keys)


def test_canonical_form_matches_brute_force(order3_census, order4_census):
    rng = random.Random(14)
    censuses = [enumerate_ai_semirings(1), enumerate_ai_semirings(2), order3_census, order4_census]
    for result in censuses:
        keys = [_brute_force_key(S.add, S.mul) for S in result.semirings]
        # members are pairwise non-isomorphic and sorted by their key
        assert keys == sorted(set(keys)) == list(result.keys)
        for S, key in zip(result.semirings, keys):
            assert canonical_form(S) == key
            assert canonical_form(_random_relabeling(rng, S)) == key
    for name in catalog.names():
        S = catalog.get(name).semiring
        assert canonical_form(S) == _brute_force_key(S.add, S.mul), name


def test_census_keys_match_brute_force_per_addition():
    for n in (1, 2, 3, 4):
        for add in enumerate_semilattices(n):
            for key, add_table, mul in _census_for_addition(add):
                assert add_table == add and key == _brute_force_key(add, mul)


def test_least_addition_relabelings_are_the_automorphisms():
    # reference: the perms that fix add, found by filtering all of them
    for n in (1, 2, 3, 4, 5):
        for add in enumerate_semilattices(n):
            perms = list(itertools.permutations(range(n)))
            auts = [
                perm for perm in perms
                if all(perm[add[a][b]] == add[perm[a]][perm[b]] for a in range(n) for b in range(n))
            ]
            key, attained = least_relabeling(add, perms)
            assert key == bytes(v for row in add for v in row)
            assert attained == auts


def test_enumerate_json_keys_match_brute_force(capsys, order4_census):
    assert main(["enumerate", "--order", "4", "--json", "--workers", "1"]) == 0
    keys = json.loads(capsys.readouterr().out)["keys"]
    assert keys == [_brute_force_key(S.add, S.mul).hex() for S in order4_census.semirings]
    assert main(["enumerate", "--order", "4", "--json", "--workers", "1", "--height1"]) == 0
    keys = json.loads(capsys.readouterr().out)["keys"]
    assert keys == [_brute_force_key(S.add, S.mul).hex() for S in order4_census.height1]


def test_census_rechecks_the_least_class_of_each_addition(monkeypatch, tmp_path):
    checked = []

    def counted(S):
        checked.append(S)
        return canonical_form(S)

    monkeypatch.setattr(census, "canonical_form", counted)
    for workers in (2, 1):  # the caller rechecks, for any worker count
        checked.clear()
        result = enumerate_ai_semirings(4, workers=workers)
        assert len(checked) == len(enumerate_semilattices(4))
    write_census(result, str(tmp_path))  # the index reuses the census keys
    assert len(checked) == len(enumerate_semilattices(4))
    # a result built without its keys is refused before anything is written
    keyless = census.CensusResult(4, result.semirings, result.height1, 0.0)
    with pytest.raises(ValueError, match="keys"):
        write_census(keyless, str(tmp_path / "keyless"))
    assert not any("keyless" in path.name for path in tmp_path.iterdir())  # nor its hidden fresh directory
    members = {(S.add, S.mul) for S in result.semirings}
    assert {S.add for S in checked} == set(enumerate_semilattices(4))
    assert all((S.add, S.mul) in members for S in checked)
    monkeypatch.setattr(census, "canonical_form", lambda S: b"")
    with pytest.raises(RuntimeError, match="dedup bug"):
        enumerate_ai_semirings(3)
