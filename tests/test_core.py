import itertools
import random

import pytest

from aisemiring import catalog, construct, core
from aisemiring.census import _census_for_addition, enumerate_ai_semirings, enumerate_semilattices
from aisemiring.core import (
    ValidationReport,
    _add_violations,
    FiniteAiSemiring,
    InvalidSemiringError,
    MalformedTableError,
    Morphism,
    additive_height,
    canonical_form,
    direct_product,
    dual,
    find_embedding,
    find_isomorphism,
    generated_subalgebra,
    is_subdirect_embedding,
    least_relabeling,
    natural_order,
    validate,
)

FLAT4_ADD = tuple(tuple(i if i == j else 0 for j in range(4)) for i in range(4))


def s4k(k):
    return catalog.get(f"S_(4,{k})").semiring


def test_validate_height1_tables():
    assert validate(FLAT4_ADD, s4k(1).mul).valid
    assert validate(FLAT4_ADD, s4k(4).mul).valid


def test_valid_inputs_give_equal_reports():
    first, second = validate(FLAT4_ADD, s4k(1).mul), validate([[0, 1], [1, 1]], [[0, 0], [0, 1]])
    assert first == second == ValidationReport(True, ())
    assert hash(first) == hash(second)


def test_bool_entries_are_malformed():
    with pytest.raises(MalformedTableError):
        validate([[False, True], [True, True]], [[0, 0], [0, 0]])
    with pytest.raises(MalformedTableError):
        FiniteAiSemiring.from_tables([[0, 1], [1, 1]], [[0, 0], [0, True]])
    with pytest.raises(MalformedTableError):
        validate(5, [[0]])
    with pytest.raises(MalformedTableError, match="strings"):
        FiniteAiSemiring.from_tables([[0, 1], [1, 1]], [[0, 0], [0, 0]], elements=[1, 2])


def test_from_tables_reads_each_table_once():
    add, mul = [[0, 1], [1, 1]], [[0, 0], [0, 1]]
    expected = FiniteAiSemiring.from_tables(add, mul)
    assert expected.order == 2
    # iterators are spent by a first read, so a second read would see no rows
    for once in (
        (map(list, add), map(list, mul)),
        ((row for row in add), mul),
        (add, (row for row in mul)),
    ):
        assert FiniteAiSemiring.from_tables(*once) == expected


def test_public_names_snapshot():
    import aisemiring

    assert sorted(aisemiring.__all__) == sorted(
        "CensusResult FiniteAiSemiring Identity InvalidSemiringError MalformedTableError Morphism "
        "NaturalOrder SimpleIdentity Term TermSyntaxError ValidationReport Word BasisReport "
        "BudgetExceededError additive_height canonical_form check_basis counterexample "
        "direct_product dual enumerate_ai_semirings enumerate_semilattices eval_term "
        "find_embedding find_isomorphism generated_subalgebra is_subdirect_embedding "
        "natural_order parse_identity parse_term satisfies substitute "
        "validate word".split()
    )
    assert all(hasattr(aisemiring, name) for name in aisemiring.__all__)


def test_validate_reports_first_witness_per_law():
    # 2-element join addition with a non-associative multiplication
    add = ((0, 1), (1, 1))
    mul = ((1, 0), (0, 0))
    report = validate(add, mul)
    assert not report.valid
    laws = [law for law, _ in report.violations]
    assert "mul-associativity" in laws
    assert len(laws) == len(set(laws))
    # an idempotent addition that is not commutative: distributivity is
    # checked on every summand pair, and the first witness has b > c
    add = ((0, 0, 0), (0, 1, 0), (0, 1, 2))
    mul = ((0, 0, 0), (0, 0, 0), (0, 1, 0))
    assert validate(add, mul).violations == (
        ("add-commutativity", (1, 2)),
        ("add-associativity", (1, 2, 1)),
        ("mul-associativity", (2, 2, 1)),
        ("left-distributivity", (2, 2, 1)),
    )


def test_validate_malformed_is_distinct_from_invalid():
    with pytest.raises(MalformedTableError):
        validate(((0, 1), (1, 1)), ((0, 1),))
    with pytest.raises(MalformedTableError):
        validate(((0, 1), (1, 1)), ((0, 5), (0, 1)))
    with pytest.raises(InvalidSemiringError):
        FiniteAiSemiring.from_tables(((0, 1), (1, 1)), ((1, 0), (0, 0)))
    with pytest.raises(MalformedTableError, match="^empty table$"):
        validate((), ())


def _reference_validate(add, mul):
    # the six-loop validate that checked every law on every call; the
    # reference for the one that caches the laws of each addition
    add, mul = tuple(map(tuple, add)), tuple(map(tuple, mul))
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
    for a, b, c in itertools.product(rng, rng, rng):
        if add[add[a][b]][c] != add[a][add[b][c]]:
            violations.append(("add-associativity", (a, b, c)))
            break
    for a, b, c in itertools.product(rng, rng, rng):
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            violations.append(("mul-associativity", (a, b, c)))
            break
    for a, b, c in itertools.product(rng, rng, rng):
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            violations.append(("left-distributivity", (a, b, c)))
            break
    for a, b, c in itertools.product(rng, rng, rng):
        if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
            violations.append(("right-distributivity", (a, b, c)))
            break
    return ValidationReport(valid=not violations, violations=tuple(violations))


def _validate_cases(censuses):
    """The members of ``censuses`` and of an order-5 census, each also with
    one entry changed, and random tables of orders 1-5.  At order 5 only the
    classes over two of the cheaper additions are taken, since the whole
    order-5 census takes seconds."""
    rng = random.Random(15)
    census = [(S.add, S.mul) for result in censuses for S in result.semirings]
    census += [
        (add, mul) for i in (5, 7) for _, add, mul in _census_for_addition(enumerate_semilattices(5)[i])
    ]
    perturbed = []
    for add, mul in census:
        n = len(add)
        if n == 1:
            continue
        tables = [list(map(list, add)), list(map(list, mul))]
        which, a, b = rng.randrange(2), rng.randrange(n), rng.randrange(n)
        tables[which][a][b] = rng.choice([v for v in range(n) if v != tables[which][a][b]])
        perturbed.append(tuple(tuple(map(tuple, t)) for t in tables))
    def table(n):
        return tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))

    randoms = []
    for n in (1, 2, 3, 4, 5):
        for _ in range(200):
            randoms.append((table(n), table(n)))
            randoms.append((rng.choice(enumerate_semilattices(n)), table(n)))
    return census + perturbed + randoms


def test_validate_matches_the_reference(order3_census, order4_census):
    censuses = (enumerate_ai_semirings(1), enumerate_ai_semirings(2), order3_census, order4_census)
    cases = _validate_cases(censuses)
    laws = {law for add, mul in cases for law, _ in _reference_validate(add, mul).violations}
    assert len(laws) == 6  # every law is broken somewhere, so every witness is compared
    for add, mul in cases:
        expected = _reference_validate(add, mul)
        _add_violations.cache_clear()
        assert validate(add, mul) == expected  # cold: this addition is not cached
        assert validate(add, mul) == expected  # warm: it is now
        assert validate([list(r) for r in add], [list(r) for r in mul]) == expected
        assert _add_violations.cache_info().hits == 2


def test_validate_cache_never_skips_the_table_check():
    # True == 1 and hash(True) == hash(1), so a cached int addition would
    # answer for the same values with a bool entry if the check came later
    add, mul = ((0, 1), (1, 1)), ((0, 0), (0, 1))
    assert validate(add, mul).valid
    with pytest.raises(MalformedTableError):
        validate(((0, True), (True, True)), mul)
    with pytest.raises(MalformedTableError):
        validate([[0, 1], [True, 1]], mul)
    with pytest.raises(MalformedTableError):
        validate(add, ((0, 0), (0, True)))


def _reference_least_relabeling(table, perms):
    # the per-cell key that least_relabeling built before it relabeled whole rows
    n = len(table)
    rng = range(n)
    best, attained = None, []
    for perm in perms:
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        key = bytes(perm[table[inv[a]][inv[b]]] for a in rng for b in rng)
        if best is None or key < best:
            best, attained = key, [perm]
        elif key == best:
            attained.append(perm)
    return best, attained


def test_least_relabeling_matches_the_reference(order3_census, order4_census):
    censuses = (enumerate_ai_semirings(1), enumerate_ai_semirings(2), order3_census, order4_census)
    for result in censuses:
        n = result.order
        perms = list(itertools.permutations(range(n)))
        for add in enumerate_semilattices(n):
            assert least_relabeling(add, perms) == _reference_least_relabeling(add, perms)
        auts = {add: _reference_least_relabeling(add, perms)[1] for add in enumerate_semilattices(n)}
        for S in result.semirings:
            assert least_relabeling(S.mul, perms) == _reference_least_relabeling(S.mul, perms)
            assert least_relabeling(S.mul, auts[S.add]) == _reference_least_relabeling(S.mul, auts[S.add])


def test_natural_order_tops():
    for k in (1, 20, 58):
        S = s4k(k)
        order = natural_order(S)
        assert S.elements[order.top] == "1"
        atoms = [a for a in range(4) if a != order.top]
        for a, b in itertools.combinations(atoms, 2):
            assert not order.leq[a][b] and not order.leq[b][a]
    L2 = catalog.get("L2").semiring
    assert L2.elements[natural_order(L2).top] == "1"


def _longest_chain(S):
    """Edges in the longest chain a0 < a1 < ... under a + b = b, by trying every sequence."""
    rng = range(S.order)
    return max(
        len(chain) - 1
        for k in range(1, S.order + 1)
        for chain in itertools.permutations(rng, k)
        if all(S.add[a][b] == b for a, b in zip(chain, chain[1:]))
    )


def test_natural_order_is_read_off_the_addition(order3_census, order4_census, cat):
    censuses = [enumerate_ai_semirings(1), enumerate_ai_semirings(2), order3_census, order4_census]
    semirings = [S for result in censuses for S in result.semirings] + [e.semiring for e in cat.values()]
    assert len(semirings) == 1 + 6 + 61 + 866 + 74
    for S in semirings:
        rng = range(S.order)
        order = natural_order(S)
        assert [b for b in rng if all(S.add[a][b] == b for a in rng)] == [order.top], S.name
        assert order.leq == tuple(tuple(S.add[a][b] == b for b in rng) for a in rng), S.name
        assert additive_height(S) == _longest_chain(S), S.name


def test_additive_height():
    assert additive_height(s4k(7)) == 1
    one = FiniteAiSemiring.from_tables(((0,),), ((0,),))
    assert additive_height(one) == 0
    # 4-element chain with meet multiplication: height 3
    chain_add = tuple(tuple(max(i, j) for j in range(4)) for i in range(4))
    chain_mul = tuple(tuple(min(i, j) for j in range(4)) for i in range(4))
    chain = FiniteAiSemiring.from_tables(chain_add, chain_mul)
    assert additive_height(chain) == 3


def test_dual_is_involution_and_pairs():
    for k in range(1, 59):
        S = s4k(k)
        assert dual(dual(S)).mul == S.mul
    assert find_isomorphism(dual(s4k(47)), s4k(21)) is not None
    assert find_isomorphism(dual(s4k(30)), s4k(45)) is not None


def test_direct_product_shapes():
    S7 = catalog.get("S7").semiring
    P = direct_product(S7, S7)
    assert P.order == 9
    assert validate(P.add, P.mul).valid
    one = FiniteAiSemiring.from_tables(((0,),), ((0,),))
    Q = direct_product(S7, one)
    assert find_isomorphism(Q, S7) is not None
    T2 = catalog.get("T2").semiring
    M2 = catalog.get("M2").semiring
    R = direct_product(T2, M2)
    from aisemiring.construct import is_flat

    assert not is_flat(R)


@pytest.mark.parametrize(("left", "right"), [("T2", "S7"), ("S7", "T2"), ("S7", "S_(4,12)"), ("S_(4,12)", "M2")])
def test_direct_product_cells_on_unequal_orders(left, right):
    """On unequal orders row-major pairs (i * m + j) differ from column-major
    ones, so every cell pins the pair index."""
    S, T = catalog.get(left).semiring, catalog.get(right).semiring
    n, m = S.order, T.order
    P = direct_product(S, T)
    assert P.order == n * m
    for i, j in itertools.product(range(n), range(m)):
        assert P.elements[i * m + j] == f"({S.elements[i]},{T.elements[j]})"
    for (i1, j1), (i2, j2) in itertools.product(itertools.product(range(n), range(m)), repeat=2):
        a, b = i1 * m + j1, i2 * m + j2
        assert P.add[a][b] == S.add[i1][i2] * m + T.add[j1][j2]
        assert P.mul[a][b] == S.mul[i1][i2] * m + T.mul[j1][j2]


def test_generated_subalgebra():
    S15 = s4k(15)
    sub, inc = generated_subalgebra(S15, (0, 1, 2))
    assert sub.elements == ("1", "2", "3")
    assert find_isomorphism(sub, catalog.get("S2").semiring) is not None
    assert inc.mapping == (0, 1, 2)

    whole, _ = generated_subalgebra(S15, range(4))
    assert whole.order == 4

    S20 = s4k(20)
    sub, inc = generated_subalgebra(S20, (3,))
    assert sub.elements == ("1", "3", "4")
    assert find_isomorphism(sub, catalog.get("S10").semiring) is not None
    assert validate(sub.add, sub.mul).valid

    L2 = catalog.get("L2").semiring
    with pytest.raises(ValueError, match="nonempty"):
        generated_subalgebra(L2, ())
    with pytest.raises(ValueError, match="out of range"):
        generated_subalgebra(L2, (2,))


def test_canonical_form_permutation_invariance():
    S = s4k(16)
    key = canonical_form(S)
    for perm in itertools.permutations(range(4)):
        inv = [0] * 4
        for i, p in enumerate(perm):
            inv[p] = i
        add = tuple(tuple(perm[S.add[inv[a]][inv[b]]] for b in range(4)) for a in range(4))
        mul = tuple(tuple(perm[S.mul[inv[a]][inv[b]]] for b in range(4)) for a in range(4))
        relabeled = FiniteAiSemiring.from_tables(add, mul)
        assert canonical_form(relabeled) == key


def test_canonical_form_separates_and_matches():
    assert canonical_form(catalog.get("S2").semiring) != canonical_form(catalog.get("S4").semiring)
    assert canonical_form(s4k(16)) == canonical_form(dual(s4k(41)))
    assert canonical_form(s4k(4)) != canonical_form(s4k(8))
    flat9 = construct.flat_from_semigroup(construct.cyclic_group_with_zero(8))
    assert flat9.order == 9
    with pytest.raises(ValueError, match="order <= 8"):
        canonical_form(flat9)


def test_find_isomorphism_examples():
    from aisemiring.construct import sc

    assert find_isomorphism(s4k(8), sc("ab")) is not None
    assert find_isomorphism(s4k(9), sc("aaa")) is not None
    S = s4k(33)
    identity = find_isomorphism(S, S)
    assert identity is not None and identity.mapping == (0, 1, 2, 3)


def test_find_isomorphism_agrees_with_canonical_form():
    names = ["S2", "S4", "S6", "S10", "S5", "S9", "L2", "T2", "S7"]
    for a, b in itertools.combinations_with_replacement(names, 2):
        A = catalog.get(a).semiring
        B = catalog.get(b).semiring
        if A.order != B.order:
            continue
        iso = find_isomorphism(A, B) is not None
        assert iso == (canonical_form(A) == canonical_form(B)), (a, b)


def test_find_embedding():
    S7 = catalog.get("S7").semiring
    assert find_embedding(S7, s4k(11)) is not None
    assert find_embedding(S7, s4k(1)) is None
    S = s4k(5)
    emb = find_embedding(S, S)
    assert emb is not None and emb.mapping == (0, 1, 2, 3)


def test_subdirect_embedding():
    S2 = catalog.get("S2").semiring
    S5 = catalog.get("S5").semiring
    S7 = catalog.get("S7").semiring
    T2 = catalog.get("T2").semiring
    found = is_subdirect_embedding(s4k(41), S2, S5)
    assert found is not None
    assert len(set(found.mapping)) == found.source.order
    assert is_subdirect_embedding(S7, T2, T2) is None
    # nine elements do not fit injectively into L2 x T2
    L2 = catalog.get("L2").semiring
    assert is_subdirect_embedding(catalog.resolve("@prod:S7,S7"), L2, T2) is None


def test_products_past_the_built_order_are_refused():
    T2 = catalog.get("T2").semiring
    big = catalog.resolve("@prod:S_(4,1),@prod:S_(4,1),S_(4,1)")
    assert big.order == core.MAX_BUILT_ORDER == construct.MAX_BUILT_ORDER == 64
    # the bound is checked before A x B is built, so the search never starts
    with pytest.raises(ValueError, match="more than 64"):
        direct_product(big, T2)
    with pytest.raises(ValueError, match="more than 64"):
        is_subdirect_embedding(T2, T2, big)


def test_morphism_rejects_non_homomorphisms():
    S = catalog.get("L2").semiring
    T = catalog.get("R2").semiring
    with pytest.raises(ValueError):
        Morphism(source=S, target=T, mapping=(1, 0))
    with pytest.raises(ValueError, match="^mapping must assign every source element$"):
        Morphism(source=S, target=T, mapping=(0,))


def test_deterministic_morphism_output():
    found1 = find_embedding(catalog.get("S7").semiring, s4k(11))
    found2 = find_embedding(catalog.get("S7").semiring, s4k(11))
    assert found1.mapping == found2.mapping


def _brute_force_homs(S, T):
    """Every injective map S -> T, in lexicographic image order, kept if it
    preserves both tables."""
    pairs = list(itertools.product(range(S.order), repeat=2))
    return [
        f
        for f in itertools.permutations(range(T.order), S.order)
        if all(
            T.add[f[a]][f[b]] == f[S.add[a][b]] and T.mul[f[a]][f[b]] == f[S.mul[a][b]] for a, b in pairs
        )
    ]


def test_search_hom_lists_every_injective_hom_in_order():
    entries = [catalog.get(name).semiring for name in catalog.names()]
    small = [S for S in entries if S.order <= 3]
    pairs = list(itertools.product(small, repeat=2))
    rng = random.Random(24)
    order4 = [T for T in entries if T.order == 4]
    pairs += [(rng.choice(entries), rng.choice(order4)) for _ in range(150)]
    pairs += [(S, S) for S in rng.sample(order4, 10)] + [(dual(s4k(41)), s4k(16)), (dual(s4k(47)), s4k(21))]
    # 3x3 products, the targets of the subdirect path above order 4; the first three are subdirect-in claims
    triples = [("S_(4,6)", "S6", "S6"), ("S_(4,12)", "S4", "S6"), ("S_(4,47)", "S4", "S9"), ("S7", "S7", "S15")]
    for S, A, B in ([catalog.get(name).semiring for name in names] for names in triples):
        pairs.append((S, direct_product(A, B)))
    found = []
    for S, T in pairs:
        expected = _brute_force_homs(S, T)
        assert list(core._search_hom(S, T)) == expected, (S.name, T.name)
        found += expected
    assert len(found) >= 60 and any(len(f) == 4 for f in found)  # not a comparison of empty lists
