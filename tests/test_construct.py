import itertools

import pytest

from aisemiring import catalog
from aisemiring.construct import (
    FiniteSemigroup,
    NotFlatError,
    NotZeroCancellativeError,
    cyclic_elements,
    cyclic_group_with_zero,
    flat_from_semigroup,
    idempotent_extension,
    is_abelian_group_with_zero,
    is_flat,
    is_zero_cancellative,
    m,
    mc,
    noncyclic_is_order_ideal,
    nfb_witness,
    null_extension,
    s,
    sc,
    semigroup_reduct,
    semiring_index,
    word_semiring,
)
from aisemiring.core import MalformedTableError, direct_product, find_embedding, find_isomorphism, natural_order, validate


def S(name):
    return catalog.get(name).semiring


def test_zero_cancellative():
    s7_reduct = semigroup_reduct(S("S7"))
    assert s7_reduct.zero is not None
    assert is_zero_cancellative(s7_reduct)

    null2 = FiniteSemigroup(elements=("0", "n"), mul=((0, 0), (0, 0)), zero=0)
    assert is_zero_cancellative(null2)

    # ab = ac = d != 0 with b != c
    bad = FiniteSemigroup(
        elements=("0", "a", "b", "c", "d"),
        mul=(
            (0, 0, 0, 0, 0),
            (0, 0, 4, 4, 0),
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0),
        ),
        zero=0,
    )
    assert not is_zero_cancellative(bad)
    with pytest.raises(NotZeroCancellativeError):
        flat_from_semigroup(bad)
    # x * y = y off the zero: 1 * 1 = 2 * 1 = 1 breaks right 0-cancellativity
    right_zero = FiniteSemigroup(elements=("0", "1", "2"), mul=((0, 0, 0), (0, 1, 2), (0, 1, 2)), zero=0)
    with pytest.raises(NotZeroCancellativeError) as info:
        flat_from_semigroup(right_zero)
    assert (info.value.side, info.value.triple) == ("right", (1, 1, 2))
    with pytest.raises(ValueError):
        is_zero_cancellative(FiniteSemigroup(elements=("x",), mul=((0,),)))
    # the first (a, b, c) in row-major order with (ab)c != a(bc)
    with pytest.raises(ValueError, match=r"multiplication not associative at \(0,0,1\)"):
        FiniteSemigroup(elements=("0", "1"), mul=((1, 0), (0, 0)))


def test_semigroup_element_names_are_distinct_strings():
    for elements in ((1, 2), ("a", "a"), ("a",), "ab"):
        with pytest.raises(MalformedTableError, match="element names"):
            FiniteSemigroup(elements=elements, mul=((0, 0), (0, 0)), zero=0)
    assert FiniteSemigroup(elements=["a", "b"], mul=((0, 0), (0, 0)), zero=0).elements == ("a", "b")


def test_flat_from_groups():
    z3 = flat_from_semigroup(cyclic_group_with_zero(3))
    assert find_isomorphism(z3, S("S_(4,37)")) is not None
    z2 = flat_from_semigroup(cyclic_group_with_zero(2))
    assert find_isomorphism(z2, S("S10")) is not None
    one = flat_from_semigroup(cyclic_group_with_zero(1))
    assert one.order == 2  # zero plus the trivial group
    assert is_flat(z3) and is_flat(z2)

    just_zero = flat_from_semigroup(FiniteSemigroup(elements=("0",), mul=((0,),), zero=0))
    assert just_zero.order == 1


def test_abelian_group_with_zero():
    assert is_abelian_group_with_zero(cyclic_group_with_zero(3))
    assert is_abelian_group_with_zero(semigroup_reduct(S("S_(4,37)")))
    assert not is_abelian_group_with_zero(semigroup_reduct(S("S7")))
    assert not is_abelian_group_with_zero(semigroup_reduct(S("S_(4,1)")))
    z2 = ((0, 1), (1, 0))
    assert not is_abelian_group_with_zero(FiniteSemigroup(("e", "g"), z2))  # no zero
    assert not is_abelian_group_with_zero(FiniteSemigroup(("0",), ((0,),), zero=0))  # only the zero
    constant = ((0, 0, 0), (0, 1, 1), (0, 1, 1))  # every product of nonzero elements is a: no identity
    assert not is_abelian_group_with_zero(FiniteSemigroup(("0", "a", "b"), constant, zero=0))


def test_word_semirings_match_catalog():
    assert find_isomorphism(sc("ab"), S("S_(4,8)")) is not None
    assert find_isomorphism(s("ab"), S("S_(4,4)")) is not None
    assert find_isomorphism(mc("a"), S("S7")) is not None
    assert find_isomorphism(m("a"), S("S7")) is not None
    assert find_isomorphism(sc("aaa"), S("S_(4,9)")) is not None
    assert find_isomorphism(s("a"), S("T2")) is not None


def test_word_semiring_carriers():
    W = sc("ab")
    assert set(W.elements) == {"0", "a", "b", "ab"}
    M = mc("a")
    assert set(M.elements) == {"0", "1", "a"}
    # commutative subwords are divisor multisets, plain ones contiguous factors
    assert set(sc("aba").elements) == {"0", "a", "b", "ab", "aa", "aab"}
    assert set(s("aba").elements) == {"0", "a", "b", "ab", "ba", "aba"}
    multi = word_semiring(("ab", "c"), commutative=True, monoid=False)
    assert set(multi.elements) == {"0", "a", "b", "c", "ab"}
    # at most 64 elements, refused before any table is built
    assert sc("abcdef").order == s("abcdefghij").order + 8 == 64
    for build, words in ((sc, ("abcdefgh",)), (s, ("a" * 64,)), (m, ("a" * 63,)), (s, ("abcdefghij", "klmnopqrst"))):
        with pytest.raises(ValueError, match="more than 64"):
            build(*words)
    with pytest.raises(ValueError, match="more than 64"):
        cyclic_group_with_zero(64)


def test_word_semirings_are_flat_and_zero_cancellative():
    for build in (sc, s, mc, m):
        for text in ("a", "ab", "aba"):
            W = build(text)
            assert validate(W.add, W.mul).valid
            assert is_flat(W)
            assert is_zero_cancellative(semigroup_reduct(W))


def test_monoid_word_semiring_family():
    # M on a^(n-2) has n elements and contains the 3-element witness
    for n in range(3, 9):
        W = m("a" * (n - 2))
        assert W.order == n
        assert find_embedding(S("S7"), W) is not None


def test_extensions():
    ie = idempotent_extension(S("S2"))
    assert find_isomorphism(ie, S("S_(4,15)")) is not None

    one = flat_from_semigroup(cyclic_group_with_zero(1))
    sub, _ = __import__("aisemiring.core", fromlist=["generated_subalgebra"]).generated_subalgebra(
        one, (0,)
    )
    ne1 = null_extension(sub)
    assert find_isomorphism(ne1, S("T2")) is not None
    # a new element whose name is taken is primed
    assert null_extension(null_extension(S("T2"))).elements == ("0", "1", "b", "b'")

    ne7 = null_extension(S("S7"))
    from aisemiring.core import is_subdirect_embedding

    assert is_subdirect_embedding(ne7, S("S7"), S("T2")) is not None

    with pytest.raises(NotFlatError):
        null_extension(S("S_(4,38)"))


def test_cyclic_structure():
    s7 = S("S7")
    assert cyclic_elements(s7) == {0, 2}
    assert noncyclic_is_order_ideal(s7)
    assert semiring_index(s7) == 2

    s41 = S("S_(4,1)")
    assert semiring_index(s41) == 2  # squares land on the top for good
    assert cyclic_elements(s41) == {0}

    s438 = S("S_(4,38)")  # multiplicatively idempotent
    assert semiring_index(s438) == 1
    assert cyclic_elements(s438) == {0, 1, 2, 3}

    s49 = S("S_(4,9)")  # powers of every atom fall to the top and stay
    assert cyclic_elements(s49) == {0}
    assert noncyclic_is_order_ideal(s49)


def test_nfb_witness():
    assert nfb_witness(S("S_(4,11)")).conclusion
    assert nfb_witness(S("S_(4,50)")).conclusion
    rep = nfb_witness(S("S_(4,1)"))
    assert not rep.conclusion and rep.s7_embedding is None
    assert not nfb_witness(S("T2")).conclusion


def test_flatness():
    assert is_flat(S("S7"))
    assert not is_flat(direct_product(S("S7"), S("S7")))
    assert is_flat(S("S_(4,1)"))
    assert not is_flat(S("S_(4,38)"))


def test_cyclic_set_of_flat_products_is_upward_closed():
    flats = [e.semiring for e in catalog.entries(flat=True)]
    assert len(flats) > 30
    for A, B in itertools.product(flats, repeat=2):
        P = direct_product(A, B)
        cyc = cyclic_elements(P)
        order = natural_order(P)
        for a in cyc:
            for b in range(P.order):
                if order.leq[a][b]:
                    assert b in cyc, (A.name, B.name)
