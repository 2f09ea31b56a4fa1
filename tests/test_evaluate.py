import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisemiring import catalog, construct, criteria, evaluate
from aisemiring.core import FiniteAiSemiring, direct_product, dual, find_embedding
from aisemiring.evaluate import (
    BudgetExceededError,
    BulkEvaluator,
    UnassignedVariableError,
    check_basis,
    counterexample,
    eval_term,
    eval_word,
    satisfies,
)
from aisemiring.terms import SimpleIdentity, Term, Word, parse_identity, parse_term


def S(name):
    return catalog.get(name).semiring


def test_eval_term_examples():
    s44 = S("S_(4,4)")
    t = parse_term("xy")
    # elements "1".."4" sit at indices 0..3
    assert eval_term(s44, t, {"x": 2, "y": 3}) == 1  # 3*4 = 2
    assert eval_term(s44, parse_term("x"), {"x": 3}) == 3
    s7 = S("S7")
    assert eval_term(s7, t, {"x": 0, "y": 1}) == 1  # 1*a = a
    with pytest.raises(UnassignedVariableError):
        eval_term(s44, t, {"x": 0})


def test_unassigned_variable_error_prints_the_plain_message():
    with pytest.raises(UnassignedVariableError) as caught:
        eval_term(S("S_(4,4)"), parse_term("xy"), {"x": 0})
    assert str(caught.value) == "variable 'y' has no value"


def test_satisfies_examples():
    assert satisfies(S("S_(4,20)"), parse_identity("x^4 ≈ x^2"))
    assert satisfies(S("S_(4,1)"), parse_identity("x ≈ x"))
    assert not satisfies(S("S_(4,4)"), parse_identity("xy ≈ yx"))


def test_counterexample_is_lexicographically_first():
    s44 = S("S_(4,4)")
    witness = counterexample(s44, parse_identity("xy ≈ yx"))
    assert witness == {"x": 2, "y": 3}
    assert counterexample(s44, parse_identity("x ≈ x")) is None
    t2 = S("T2")
    assert counterexample(t2, parse_identity("x ≈ x^2")) == {"x": 0}
    assert not satisfies(S("S_(4,1)"), parse_identity("x ≈ y"))


def test_budget_is_exact_never_sampled():
    s = S("S_(4,1)")
    # 12 variables exceed the default 1e7 budget on 4 elements; the identity
    # holds because every product lands on the top
    big = parse_identity("x1x2x3x4x5x6x7x8x9x10x11x12 ≈ x12x11x10x9x8x7x6x5x4x3x2x1")
    with pytest.raises(BudgetExceededError):
        satisfies(s, big)
    assert counterexample(s, big, budget=4**12) is None


def test_check_basis_reports_witnesses():
    report = check_basis(S("S_(4,1)"), [parse_identity("x ≈ y"), parse_identity("x ≈ x")])
    assert not report.all_hold
    failed = report.verdicts[0]
    assert failed.witness == {"x": 0, "y": 1}
    assert report.verdicts[1].holds


WORDS = [
    "x", "y", "xx", "xy", "yx", "xyx", "xxy", "yyx", "xyy",
]


def _random_identity(rng):
    lhs = " + ".join(rng.sample(WORDS, rng.randint(1, 3)))
    rhs = " + ".join(rng.sample(WORDS, rng.randint(1, 3)))
    return parse_identity(f"{lhs} ≈ {rhs}")


def test_isomorphism_invariance_on_catalog_pairs():
    rng = random.Random(1)
    pairs = [("S_(4,16)", "@dual:S_(4,41)"), ("S_(4,8)", "@sc:ab"), ("S7", "@mc:a")]
    for name, ref in pairs:
        A = S(name)
        B = catalog.resolve(ref)
        for _ in range(20):
            identity = _random_identity(rng)
            assert satisfies(A, identity) == satisfies(B, identity)


def test_duality_reverses_words():
    rng = random.Random(2)
    for name in ("S_(4,30)", "S_(4,47)", "S_(4,12)", "S4"):
        A = S(name)
        D = dual(A)
        for _ in range(25):
            identity = _random_identity(rng)
            assert satisfies(D, identity) == satisfies(A, identity.reverse())


def test_subalgebra_monotonicity():
    rng = random.Random(3)
    big = S("S_(4,20)")
    small = S("S10")
    assert find_embedding(small, big) is not None
    for _ in range(40):
        identity = _random_identity(rng)
        if satisfies(big, identity):
            assert satisfies(small, identity)


def test_product_satisfaction_is_componentwise():
    rng = random.Random(4)
    A, B = S("S2"), S("T2")
    P = direct_product(A, B)
    for _ in range(40):
        identity = _random_identity(rng)
        assert satisfies(P, identity) == (satisfies(A, identity) and satisfies(B, identity))


def test_identity_splits_into_simple_identities():
    # u ≈ v holds exactly when every u ≈ u + v_j and v ≈ v + u_i does
    rng = random.Random(5)
    for name in ("S_(4,4)", "S2", "T2", "S_(4,37)"):
        algebra = S(name)
        for _ in range(25):
            identity = _random_identity(rng)
            u, v = identity.lhs, identity.rhs
            members = [SimpleIdentity(u, w) for w in v.words] + [SimpleIdentity(v, w) for w in u.words]
            assert satisfies(algebra, identity) == all(
                satisfies(algebra, m.as_identity()) for m in members
            )


def test_bulk_evaluator_matches_satisfies():
    rng = random.Random(6)
    for name in sorted(criteria.CRITERIA):
        algebra = S(name)
        bulk = BulkEvaluator(algebra, ("x", "y", "z"))
        for _ in range(60):
            u = parse_term(" + ".join(rng.sample(WORDS, rng.randint(1, 3))))
            q = parse_term(rng.choice(WORDS)).words[0]
            expected = satisfies(
                algebra, parse_identity(f"{u} ≈ {u} + {q}")
            )
            assert bulk.absorbs(bulk.term_vector(u), bulk.word_vector(q)) == expected


def _decode(vector, count):
    """The value at each of the first ``count`` assignments of a bulk vector,
    or None where not exactly one element's mask has the bit."""
    assert all(mask >> count == 0 for mask in vector)  # no bit beyond the last assignment
    values = []
    for i in range(count):
        hits = [e for e, mask in enumerate(vector) if mask >> i & 1]
        values.append(hits[0] if len(hits) == 1 else None)
    return values


def test_bulk_vectors_match_brute_force():
    rng = random.Random(8)
    variables = ("x", "y", "z")
    checked = 0
    for name in catalog.names():
        base = S(name)
        if base.order > 4:
            continue
        for algebra in (base, dual(base)):
            bulk = BulkEvaluator(algebra, variables)
            assignments = [
                dict(zip(variables, values))
                for values in itertools.product(range(algebra.order), repeat=len(variables))
            ]
            for _ in range(4):
                words = [
                    Word(tuple(rng.choice(variables) for _ in range(rng.randint(1, 4))))
                    for _ in range(rng.randint(1, 3))
                ]
                t = Term(tuple(words))
                w = words[0]
                assert _decode(bulk.word_vector(w), len(assignments)) == [
                    eval_word(algebra, w, a) for a in assignments
                ]
                assert _decode(bulk.term_vector(t), len(assignments)) == [
                    eval_term(algebra, t, a) for a in assignments
                ]
                checked += 1
    assert checked >= 4 * 2 * 58


def test_bulk_evaluator_refuses_a_pool_over_the_budget():
    variables = [f"x{i}" for i in range(12)]  # 4**12 assignments, over DEFAULT_BUDGET
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            BulkEvaluator(S("S_(4,1)"), variables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before any column is built


def test_deleted_bulk_evaluator_frees_its_columns():
    variables = [f"x{i}" for i in range(10)]  # 4**10 assignments
    tracemalloc.start()
    try:
        bulk = BulkEvaluator(S("S_(4,4)"), variables)
        held = tracemalloc.get_traced_memory()[0]
        del bulk
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held > 4 << 20  # 4 masks of 4**10 bits for each of the 10 variables
    assert left < 1 << 20  # no cache keeps the masks of a deleted evaluator


def _reference_counterexample(S, identity):
    """Brute force: every assignment in lexicographic order, one dict each."""
    variables = sorted(identity.variables)
    for values in itertools.product(range(S.order), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if eval_term(S, identity.lhs, assignment) != eval_term(S, identity.rhs, assignment):
            return assignment
    return None


def _random_word(rng, letters):
    return "".join(
        rng.choice(letters) + (f"^{rng.randint(2, 3)}" if rng.random() < 0.2 else "")
        for _ in range(rng.randint(1, 4))
    )


def _random_wide_identity(rng, letters):
    def side():
        return " + ".join(_random_word(rng, letters) for _ in range(rng.randint(1, 3)))

    return parse_identity(f"{side()} ≈ {side()}")


def test_counterexample_matches_brute_force():
    rng = random.Random(7)
    small = [catalog.get(name).semiring for name in catalog.names()]
    small += [dual(A) for A in small[::3]]
    products = [direct_product(S("T2"), S("S_(4,4)")), direct_product(S("S_(4,47)"), S("L2"))]
    products += [direct_product(S("S_(4,12)"), S("S_(4,30)")), direct_product(S("S7"), S("S_(4,20)"))]
    assert sorted({P.order for P in products}) == [8, 12, 16]
    cases = [(rng.choice(small), "xyzw"[: rng.randint(1, 4)]) for _ in range(600)]
    cases += [(rng.choice(products), "xyz"[: rng.randint(1, 3)]) for _ in range(60)]
    held = 0
    for algebra, letters in cases:
        identity = _random_wide_identity(rng, letters)
        expected = _reference_counterexample(algebra, identity)
        assert counterexample(algebra, identity) == expected, (algebra.name, str(identity))
        held += expected is None
    assert 0 < held < len(cases)


def test_bundled_bases_match_brute_force_on_the_catalog():
    algebras = [catalog.get(name).semiring for name in catalog.names()]
    for name in catalog.BASIS_NAMES:
        for identity in catalog.expand_basis(name):
            for algebra in algebras:
                assert counterexample(algebra, identity) == _reference_counterexample(algebra, identity)


def test_budget_is_checked_before_the_search():
    trivial = parse_identity("x1x2x3x4x5x6x7x8x9x10x11x12 ≈ x1x2x3x4x5x6x7x8x9x10x11x12")
    with pytest.raises(BudgetExceededError):
        counterexample(S("S_(4,1)"), trivial)


def test_many_variables_do_not_recurse():
    names = [f"x{i:04d}" for i in range(2000)]
    # the sides differ, and a one-element semiring satisfies every identity
    wide = parse_identity(" + ".join(names) + " ≈ " + " + ".join(a + b for a, b in zip(names, names[1:])))
    one = FiniteAiSemiring.from_tables([[0]], [[0]])
    assert counterexample(one, wide) is None
    # in L2 a word takes the value of its first letter; the sides first differ
    # when only the last variable, the head of the rhs, is 1
    names = names[:1200]
    deep = parse_identity("".join(names[:600]) + " ≈ " + "".join([names[-1]] + names[600:-1]))
    witness = counterexample(S("L2"), deep, budget=2 ** 1200)
    assert witness == {**dict.fromkeys(names, 0), names[-1]: 1}


def test_memo_is_bounded(monkeypatch):
    # x01..x10 stay apart on both sides until the separator x11 is assigned,
    # so the 2**11 - 2 subtrees above it have distinct states, and all of them
    # hold; then each side is one element plus the block's word, the same on
    # both sides, so no block is decided and the word cache stays empty; a memo
    # keeping every state would take about 1.8 MB
    names = [f"x{i:02d}" for i in range(1, 11)]
    apart = [x for a in names for x in (a, "x11")][:-1]
    block = "".join(f"x{i}" for i in range(12, 22))
    commuted = parse_identity(f"{''.join(apart)} + {block} ≈ {''.join(reversed(apart))} + {block}")
    assert len(commuted.variables) - _tail_length(2) == 11
    monkeypatch.setattr(evaluate, "MEMO_LETTERS", 64 * 2 * (len(apart) + 10))  # 64 entries
    m2 = S("M2")  # built before the measurement
    tracemalloc.start()
    try:
        assert counterexample(m2, commuted) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


def _square(name):
    A = S(name)
    return direct_product(A, A)


def test_four_variable_squares_match_brute_force():
    # order-16 S x S with four variables, where nearly all the search is at
    # the last variable: basis identities in the square of their own
    # semiring hold, and in the square of another one mostly fail
    cases = [("S_(4,4)", "bqx6 ≈ bqx6 + e"), ("S_(4,20)", "bqx6 ≈ bqx6 + e")]
    for name, other in [("S_(4,4)", "S_(4,20)"), ("S_(4,20)", "S_(4,47)"), ("S_(4,47)", "S_(4,4)")]:
        for identity in catalog.expand_basis(name):
            if len(identity.variables) == 4:
                cases += [(name, str(identity)), (other, str(identity))]
    held = 0
    for name, text in cases:
        square, identity = _square(name), parse_identity(text)
        expected = _reference_counterexample(square, identity)
        assert counterexample(square, identity) == expected, (name, text)
        held += expected is None
    assert 0 < held < len(cases)


def test_repeated_last_states_match_brute_force(monkeypatch):
    # on the 4 elements of S_(4,4) the block is the last five of eight
    # variables; the prefix x1x2x3 takes few values, so the states at the block
    # repeat under many of the 4**3 prefixes, and the held memo decides each
    # state's block once
    assert _tail_length(4) == 5
    calls = []
    block_diff = evaluate._block_diff
    monkeypatch.setattr(evaluate, "_block_diff", lambda *args: calls.append(1) or block_diff(*args))
    s44 = S("S_(4,4)")
    for text in (
        "x1x2x3x4x5x6x7x8 ≈ x1x2x3x4x5x6x7x8 + x8",
        "x1x2x3x4x5x6x7 + x8 ≈ x1x2x3x4x5x6x7 + x8 + x8x1",
    ):
        calls.clear()
        assert counterexample(s44, parse_identity(text)) is None
        assert len(calls) < 4 ** 3 // 2  # fewer blocks than half the prefixes
    identities = [
        parse_identity(text)
        for text in (
            "xyzw ≈ xyzw + w",
            "xyz + w ≈ xyz + w + wx",
            "xyz + w ≈ xyz + w + wz",
            "xy + zw ≈ xy + zw + w^2",
            "x^2yw + z ≈ x^2yw + z + zw",
        )
    ]
    held = failed = 0
    for name in catalog.names():
        algebra = S(name)
        for identity in identities:
            expected = _reference_counterexample(algebra, identity)
            assert counterexample(algebra, identity) == expected, (name, str(identity))
            held += expected is None
            failed += expected is not None
    assert held and failed


def test_word_columns_are_bounded(monkeypatch):
    # each side is ten words, one per block letter, and each word keeps
    # x01..x06 apart with its block letter, so each of the 2**6 prefixes above
    # the block gives 20 words of its own there, each stored with a lane int of
    # BLOCK_BITS bytes: a cache keeping them all would take about 1.7 MB, while
    # a memo keeping every state, not only 16, would take about 0.6 MB
    names = [f"x{i:02d}" for i in range(1, 17)]
    words = [[x for a in names[:6] for x in (a, b)] for b in names[6:]]
    commuted = parse_identity(
        " + ".join("".join(w) for w in words) + " ≈ " + " + ".join("".join(reversed(w)) for w in words)
    )
    assert len(commuted.variables) - _tail_length(2) == 6
    monkeypatch.setattr(evaluate, "MEMO_LETTERS", 16 * 2 * sum(map(len, words)))  # 16 entries
    m2 = S("M2")  # built before the measurement
    tracemalloc.start()
    try:
        assert counterexample(m2, commuted) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _tail_length(n):
    """The number of last variables decided as one block on n elements."""
    tail = 1
    while n ** (tail + 1) <= evaluate.BLOCK_BITS:
        tail += 1
    return tail


def _block_identity(rng, names):
    word = rng.sample(names, len(names))  # every variable once, so all n**k assignments count
    kind = rng.randrange(3)
    if kind == 0:  # holds exactly where the product commutes enough
        return parse_identity("".join(word) + " ≈ " + "".join(reversed(word)))
    if kind == 1:
        cut = rng.randrange(1, len(word))
        return parse_identity("".join(word) + " ≈ " + "".join(word[cut:] + word[:cut]))
    extra = "".join(rng.choice(names) for _ in range(rng.randint(1, 3)))
    return parse_identity(f"{''.join(word)} + {word[-1]} ≈ {''.join(word)} + {word[-1]} + {extra}")


def test_blocks_match_brute_force_below_at_and_above_the_block_size():
    # k is the block length and one less or more, so the whole space is one
    # block, exactly BLOCK_BITS assignments, or blocks under a prefix
    rng = random.Random(9)
    algebras = [S(name) for name in catalog.names() if S(name).order <= 4][::3] + [_square("S_(4,4)")]
    assert sorted({A.order for A in algebras}) == [2, 3, 4, 16]
    sizes = set()
    held = failed = 0
    for algebra in algebras:
        n = algebra.order
        tail = _tail_length(n)
        for k in (tail - 1, tail, tail + 1):
            if k < 2:  # one variable gives only trivial identities here
                continue
            names = [f"x{i:02d}" for i in range(1, k + 1)]
            sizes.add((n ** k > evaluate.BLOCK_BITS) - (n ** k < evaluate.BLOCK_BITS))
            for _ in range(2):
                identity = _block_identity(rng, names)
                expected = _reference_counterexample(algebra, identity)
                assert counterexample(algebra, identity) == expected, (algebra.name, str(identity))
                held += expected is None
                failed += expected is not None
    assert sizes == {-1, 0, 1}
    assert held and failed


def test_failures_at_the_first_and_last_assignment_of_a_block():
    n = 2
    k = _tail_length(n) + 2  # the block lies under a prefix of two variables
    names = [f"x{i:02d}" for i in range(1, k + 1)]
    # in L2 a word is its first letter: the sides differ iff x01 != x02, first
    # at x02 = 1 with every variable of the block 0
    swapped = parse_identity("".join(names) + " ≈ " + "".join([names[1], names[0]] + names[2:]))
    assert counterexample(S("L2"), swapped) == {**dict.fromkeys(names, 0), names[1]: 1}
    # in D2 a word is the meet of its letters: the sides differ iff x01 = 0 and
    # every other variable is 1, the last assignment of the block under 0, 1
    dropped = parse_identity("".join(names) + " ≈ " + "".join(names[1:]))
    assert counterexample(S("D2"), dropped) == {**dict.fromkeys(names, 1), names[0]: 0}
    for algebra, identity in ((S("L2"), swapped), (S("D2"), dropped)):
        assert counterexample(algebra, identity) == _reference_counterexample(algebra, identity)


def test_block_word_masks_are_bounded(monkeypatch):
    # x01..x18 stay apart in both words, so each of the 2**(19 - block length)
    # prefixes above the block gives its own words there, each stored with a
    # lane int of BLOCK_BITS bytes; a cache keeping them all would take about 1.6 MB
    names = [f"x{i:02d}" for i in range(1, 20)]
    assert 2 ** (len(names) - _tail_length(2)) >= 512
    left = [x for a in names[:-1] for x in (a, names[-1])]
    rotated = parse_identity("".join(left) + " ≈ " + "".join(left[-1:] + left[:-1]))
    monkeypatch.setattr(evaluate, "MEMO_LETTERS", 64 * 2 * len(left))
    m2 = S("M2")  # built before the measurement
    tracemalloc.start()
    try:
        assert counterexample(m2, rotated) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


def _flat_cyclic(k):
    """The cyclic group of order k with a zero at index 0, made flat: a + a = a
    and a + b = 0 otherwise.  Built unchecked, so k + 1 may exceed the order
    that ``@flatext:zN`` builds."""
    n = k + 1
    mul = tuple(tuple((a + b - 2) % k + 1 if a and b else 0 for b in range(n)) for a in range(n))
    elements = ("0",) + tuple(f"g{i}" for i in range(k))
    return FiniteAiSemiring(name=f"flat Z{k}", elements=elements, add=construct.flat_addition(n, 0), mul=mul)


def test_wide_lanes_match_brute_force():
    # above 16 elements a byte cannot hold a pair of values, so the block has
    # wider lanes; on 24 elements it is the last two of three variables, on 64
    # the last of two
    rng = random.Random(10)
    product24 = catalog.resolve("@prod:S_(4,4),@prod:T2,S7")
    product64 = catalog.resolve("@prod:S_(4,4),@prod:S_(4,4),S_(4,20)")
    assert (product24.order, product64.order) == (24, 64)
    for algebra, letters in ((product24, "xyz"), (product64, "xy")):
        held = failed = 0
        for _ in range(30):
            identity = _random_wide_identity(rng, letters[: rng.randint(1, len(letters))])
            expected = _reference_counterexample(algebra, identity)
            assert counterexample(algebra, identity) == expected, (algebra.order, str(identity))
            held += expected is None
            failed += expected is not None
        assert held and failed


def test_wide_lanes_fail_at_the_first_and_last_assignment_of_a_block():
    product24 = catalog.resolve("@prod:S_(4,4),@prod:T2,S7")
    product64 = catalog.resolve("@prod:S_(4,4),@prod:S_(4,4),S_(4,20)")
    flat24, flat64 = catalog.resolve("@flatext:z23"), catalog.resolve("@flatext:z63")
    flat257 = _flat_cyclic(256)
    # in a flat cyclic group with a zero, xy + xyxy is e where xy = e and 0
    # elsewhere, and adding x changes it unless x = e, so the first failure is
    # x = g1 with its inverse, the last element, in every letter of the block
    inverse = "xy + xyxy ≈ xy + xyxy + x"
    cases = [
        (product24, "x^2yz ≈ xyz", {"x": 1, "y": 0, "z": 0}),
        (flat24, "xy + xz + xyxy ≈ xy + xz + xyxy + x", {"x": 2, "y": 23, "z": 23}),
        (product64, "x ≈ x + y", {"x": 1, "y": 0}),
        (flat64, inverse, {"x": 2, "y": 63}),
        (flat257, "x ≈ x + y", {"x": 1, "y": 0}),  # lanes of four bytes
        (flat257, inverse, {"x": 2, "y": 256}),
    ]
    for algebra, text, witness in cases:
        identity = parse_identity(text)
        assert counterexample(algebra, identity) == witness, (algebra.order, text)
        assert _reference_counterexample(algebra, identity) == witness


def test_lane_ops_look_up_every_pair():
    # one lane for each pair (a, b): the result lane must hold table[a][b],
    # for lanes of one byte (n <= 16), two bytes and four bytes (n > 256)
    rng = random.Random(11)
    for n, width in ((2, 1), (16, 1), (17, 2), (256, 2), (257, 4)):
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        pairs = [(a, b) for a in range(n) for b in range(n)]

        def lanes(values):
            return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")

        op = evaluate._lane_op(table, n, width, width * len(pairs))
        out = op(lanes(a for a, _ in pairs), lanes(b for _, b in pairs))
        assert out == lanes(table[a][b] for a, b in pairs), n


def test_block_contexts_keep_under_their_stated_bound():
    # a cached block context keeps no element lanes, which take 264 KB at 257
    # elements, only its letters' lanes and ``ones``: under 12 KB an entry up
    # to 256 elements and 8n bytes above; the block lies under a prefix in the
    # last check on each algebra, where the element lanes are used
    algebras = [
        catalog.resolve("@prod:S_(4,4),@prod:T2,S7"),
        catalog.resolve("@prod:S_(4,4),@prod:S_(4,4),S_(4,20)"),
        _flat_cyclic(256),
    ]
    texts = ["x ≈ x + x^2", "xy + xyxy ≈ xy + xyxy + x", "xyz ≈ xyz + zx"]
    cases = [(algebras[0], texts), (algebras[1], texts), (algebras[2], texts[:2])]
    identities = {text: parse_identity(text) for text in texts}
    evaluate._block_context.cache_clear()
    tracemalloc.start()
    try:
        for algebra, checked in cases:
            for text in checked:
                counterexample(algebra, identities[text])
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    entries = evaluate._block_context.cache_info().currsize
    assert entries == 8
    assert kept < entries * 12 * 1024


# letters whose sorted order is not the order they appear in: x10 < x2 and B < a
_NAME_POOLS = (
    ["x2", "x10", "a", "B", "z7", "x100", "b", "A", "y", "x11", "Z"],
    ["a", "B", "x2", "x10", "Z", "x11", "y", "A", "b", "x100", "z7"],
)


def test_witnesses_follow_sorted_names_in_and_above_the_block():
    # k = tail puts every variable in the block, where its lanes are keyed by
    # name; k = tail + 1 puts one variable above it, where the search relabels
    rng = random.Random(12)
    algebras = [S("D2"), S("S_(4,20)"), _square("S_(4,4)"), catalog.resolve("@prod:S_(4,4),@prod:T2,S7")]
    assert [A.order for A in algebras] == [2, 4, 16, 24]  # 24 gives lanes of two bytes
    searched = set()
    for algebra in algebras:
        n = algebra.order
        tail = _tail_length(n)
        held = failed = 0
        for k in (tail, tail + 1):
            searched.add(evaluate._block_context(n, k)[0] > 0)
            for pool in _NAME_POOLS:
                names = pool[:k]
                assert names != sorted(names)
                word = "".join(names)
                extra = "".join(rng.choice(names) for _ in range(2))
                texts = [
                    f"{word} ≈ {''.join(reversed(names))}",
                    f"{names[-1]}^2{word} ≈ {word}",
                    f"{word} + {names[0]} ≈ {word} + {names[0]} + {extra}",
                ]
                for text in texts:
                    identity = parse_identity(text)
                    expected = _reference_counterexample(algebra, identity)
                    witness = counterexample(algebra, identity)
                    assert witness == expected, (n, text)
                    if witness is not None:
                        assert list(witness) == sorted(names)
                    held += expected is None
                    failed += expected is not None
        assert held and failed, n
    assert searched == {False, True}
