import ast
import hashlib
import inspect
import itertools

import pytest

from aisemiring import catalog, census, core
from aisemiring.catalog import BASIS_NAMES, CatalogEntry, CatalogError, Claim, expand_basis
from aisemiring.core import (
    FiniteAiSemiring,
    InvalidSemiringError,
    additive_height,
    canonical_form,
    direct_product,
    dual,
    find_embedding,
    find_isomorphism,
    is_subdirect_embedding,
    natural_order,
    validate,
)
from aisemiring.evaluate import check_basis, counterexample
from aisemiring.terms import Identity, Term, Word, parse_identity


def test_every_entry_validates(cat):
    for entry in cat.values():
        S = entry.semiring
        assert validate(S.add, S.mul).valid, entry.name


def test_order4_entries_share_the_height1_addition(cat):
    flat_add = tuple(tuple(i if i == j else 0 for j in range(4)) for i in range(4))
    for k in range(1, 59):
        S = cat[f"S_(4,{k})"].semiring
        assert S.add == flat_add
        assert S.elements == ("1", "2", "3", "4")
        assert additive_height(S) == 1
        assert S.elements[natural_order(S).top] == "1"


def test_catalog_is_pinned_by_its_digest():
    # names in order, tables, statuses, bases and claims in order
    digest, claims = hashlib.sha256(), 0
    for name in catalog.names():
        entry = catalog.get(name)
        basis = None if entry.basis is None else [str(identity) for identity in entry.basis]
        listed = [(c.kind, c.args, c.label) for c in entry.claims]
        digest.update(repr((name, entry.semiring.to_dict(), entry.status, basis, listed)).encode())
        claims += len(listed)
    assert (len(catalog.names()), claims) == (74, 53)
    assert digest.hexdigest() == "9e73fec1b48565a853ab1c7e34fe58a7de532009488bf16c65e6b4b43e630434"


def test_status_partition():
    fb = catalog.entries(order=4, status="finitely-based")
    nfb = catalog.entries(order=4, status="nonfinitely-based")
    assert len(fb) == 49
    assert len(nfb) == 9
    assert {e.name for e in nfb} == {
        "S_(4,11)", "S_(4,13)", "S_(4,24)", "S_(4,25)", "S_(4,26)",
        "S_(4,28)", "S_(4,31)", "S_(4,49)", "S_(4,50)",
    }


def test_get_and_aliases():
    assert catalog.get("S_(4, 8)").name == "S_(4,8)"
    assert catalog.get("s7").name == "S7"
    with pytest.raises(CatalogError):
        catalog.get("S_(4,59)")
    assert catalog.get("S_(4,37)").semiring.mul[2] == (0, 2, 3, 1)


def test_entry_filters():
    assert {e.name for e in catalog.entries(order=2)} == {"L2", "R2", "M2", "D2", "N2", "T2"}
    assert len(catalog.entries(order=4)) == 58
    flats = catalog.entries(order=3, flat=True)
    assert {"S7", "S2", "S4", "S6", "S10"} <= {e.name for e in flats}
    assert "S5" not in {e.name for e in flats}


def test_every_entry_has_additive_height_one(cat):
    # so a filter on additive height would select every entry
    assert {name: additive_height(entry.semiring) for name, entry in cat.items()} == dict.fromkeys(cat, 1)


def test_catalog_keys_are_pairwise_distinct(cat):
    keys = {}
    for entry in cat.values():
        key = canonical_form(entry.semiring)
        assert key not in keys, (entry.name, keys.get(key))
        keys[key] = entry.name


def test_derived_subalgebras_are_not_hand_typed(cat):
    # the derivations pin them: S2, S4 from carrier subsets, S6 the reverse of
    # S4, S10 generated from the single element "4"
    from aisemiring.core import dual, generated_subalgebra

    sub, _ = generated_subalgebra(cat["S_(4,15)"].semiring, (0, 1, 2))
    assert sub.mul == cat["S2"].semiring.mul
    sub, _ = generated_subalgebra(cat["S_(4,47)"].semiring, (0, 1, 2))
    assert sub.mul == cat["S4"].semiring.mul
    assert dual(cat["S4"].semiring).mul == cat["S6"].semiring.mul
    sub, _ = generated_subalgebra(cat["S_(4,20)"].semiring, (3,))
    assert sub.elements == ("1", "3", "4")


def test_pinned_order3_members_live_in_the_census(order3_census):
    keys = {canonical_form(S) for S in order3_census.semirings}
    for name in ("S5", "S9", "S13", "S14", "S15", "S2", "S4", "S6", "S10"):
        assert canonical_form(catalog.get(name).semiring) in keys


# name: (embedded 2-element entries, (order-4 entry, its other subdirect factor))
_ORDER3_CLAIMS = {
    "S5": (("L2", "T2"), ("S_(4,41)", "S2")),
    "S9": (("L2", "M2"), ("S_(4,47)", "S4")),
    "S13": (("D2", "T2"), ("S_(4,42)", "S2")),
    "S14": (("R2", "M2"), ("S_(4,30)", "S4")),
    "S15": (("M2", "D2"), ("S_(4,48)", "S4")),
}


def test_typed_order3_entries_are_the_unique_census_classes_with_their_claims(cat, order3_census):
    for name, (embeds, (big, partner)) in _ORDER3_CLAIMS.items():
        # the order-4 entry states the claim this spec completes
        assert ("subdirect-in", (partner, name)) in {(c.kind, c.args) for c in cat[big].claims}
        matches = [
            M
            for M in order3_census.semirings
            if all(find_embedding(cat[e].semiring, M) is not None for e in embeds)
            and is_subdirect_embedding(cat[big].semiring, cat[partner].semiring, M) is not None
        ]
        assert len(matches) == 1, (name, len(matches))
        S, M = cat[name].semiring, matches[0]
        assert (S.elements, S.add, S.mul) == (M.elements, M.add, M.mul), name


def test_building_runs_no_census_and_no_homomorphism_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("building the catalog searched")

    monkeypatch.setattr(census, "enumerate_ai_semirings", refuse)
    monkeypatch.setattr(core, "_search_hom", refuse)
    assert tuple(catalog._catalog.__wrapped__()) == catalog.names()
    imports = [node for node in ast.walk(ast.parse(inspect.getsource(catalog))) if isinstance(node, ast.ImportFrom)]
    assert all(node.module != "census" and "census" not in {a.name for a in node.names} for node in imports)


def test_bases_present_for_the_ten_entries():
    assert set(BASIS_NAMES) == {
        "S_(4,4)", "S_(4,14)", "S_(4,20)", "S_(4,15)", "S_(4,41)",
        "S_(4,42)", "S_(4,30)", "S_(4,47)", "S_(4,48)", "S_(4,12)",
    }
    for name in BASIS_NAMES:
        entry = catalog.get(name)
        assert entry.basis is not None and entry.status == "finitely-based"


def test_scheme_expansion():
    basis = expand_basis("S_(4,12)")
    assert len(basis) == 59
    # a fully dropped scheme instance degenerates to a trivial identity
    assert parse_identity("x1^2 + x4^2 ≈ x1^2x4^2") in basis
    assert parse_identity("x2 + x2y2 ≈ x2 + x2y2 + x2y2^2") in basis
    with pytest.raises(CatalogError):
        expand_basis("S_(4,1)")


def test_resolve_constructors():
    assert find_isomorphism(catalog.resolve("@dual:S_(4,41)"), catalog.get("S_(4,16)").semiring)
    assert catalog.resolve("@prod:L2,T2").order == 4
    assert catalog.resolve("@flatext:z2").order == 3
    assert catalog.resolve("@ie:S2").order == 4
    with pytest.raises(ValueError):
        catalog.resolve("@flatext:q8")
    with pytest.raises(CatalogError):
        catalog.resolve("missing-name")


def test_resolve_nested_references():
    left = catalog.resolve("@prod:@prod:T2,T2,T2")
    right = catalog.resolve("@prod:T2,@prod:T2,T2")
    assert left.order == right.order == 8
    assert find_isomorphism(left, right) is not None
    assert catalog.resolve("@prod:S_(4,1), @dual:L2").order == 8
    assert catalog.resolve("@prod:@sc:ab,@sc:a,b") == direct_product(
        catalog.resolve("@sc:ab"), catalog.resolve("@sc:a,b")
    )
    assert catalog.resolve("@prod:@dual:S_(4,1),@sc:a,b") == direct_product(
        catalog.resolve("@dual:S_(4,1)"), catalog.resolve("@sc:a,b")
    )
    # a word list used as a left operand ends at its first comma, leaving "b,T2"
    with pytest.raises(CatalogError):
        catalog.resolve("@prod:@sc:a,b,T2")
    # the inner product takes both names, so the outer one has no right operand
    with pytest.raises(ValueError):
        catalog.resolve("@prod:@prod:T2,T2")
    with pytest.raises(ValueError):
        catalog.resolve("@prod:T2")
    with pytest.raises(ValueError):
        catalog.resolve("@nope:T2")


def test_resolve_bounds():
    depth = catalog.MAX_REFERENCE_DEPTH
    assert catalog.resolve("@dual:" * depth + "T2").order == 2
    for ref in ("@dual:" * (depth + 1) + "T2", "@dual:" * 1200 + "T2", "@prod:" * 1200 + "T2" + ",T2" * 1200):
        with pytest.raises(ValueError, match="nests more than"):
            catalog.resolve(ref)
    big = "@prod:S_(4,1),@prod:S_(4,1),S_(4,1)"
    assert catalog.resolve(big).order == core.MAX_BUILT_ORDER == 64
    with pytest.raises(ValueError, match="more than 64"):
        catalog.resolve(f"@prod:T2,{big}")
    # word semirings and flat cyclic groups share the bound: 63 divisors plus
    # the zero fit, 255 do not
    assert catalog.resolve("@sc:abcdef").order == 64
    for ref in ("@sc:abcdefgh", "@mc:abcdef", "@flatext:z64", "@s:" + "abcdefghij" * 4, "@s:abcdefghij,klmnopqrst"):
        with pytest.raises(ValueError, match="more than 64"):
            catalog.resolve(ref)
    # the README's examples resolve
    readme = {"@prod:@prod:T2,T2,T2": 8, "@prod:T2,@prod:T2,T2": 8, "@prod:S_(4,1),@dual:L2": 8, "@prod:T2,@sc:a,b": 6}
    assert {ref: catalog.resolve(ref).order for ref in readme} == readme


def test_isomorphism_search_agrees_with_canonical_form_on_all_pairs(cat):
    by_order = {}
    for entry in cat.values():
        by_order.setdefault(entry.semiring.order, []).append(entry.semiring)
    for group in by_order.values():
        keys = {S.name: canonical_form(S) for S in group}
        for A, B in itertools.combinations(group, 2):
            assert (find_isomorphism(A, B) is not None) == (keys[A.name] == keys[B.name]), (
                A.name,
                B.name,
            )


def test_verify_all_claims_passes():
    results = catalog.verify_all_claims()
    assert results
    failures = [r for r in results if not r.ok]
    assert failures == []
    # smoke claim present
    assert any(r.entry == "S_(4,14)" and r.claim.kind == "isomorphic-to" for r in results)
    # every bundled basis and every nonfinite-basis witness is a claim
    kinds = {kind: {r.entry for r in results if r.claim.kind == kind} for kind in ("basis-holds", "nfb-witness")}
    assert kinds["basis-holds"] == set(BASIS_NAMES)
    assert kinds["nfb-witness"] == {e.name for e in catalog.entries(order=4, status="nonfinitely-based")}
    assert len(results) == 53


def test_failing_basis_and_witness_claims_are_reported():
    commutes = expand_basis("S_(4,14)")[:1]  # xy ≈ yx
    entry = CatalogEntry(
        name="S_(4,4)",
        semiring=catalog.get("S_(4,4)").semiring,
        status="finitely-based",
        basis=commutes,
        claims=(),
    )
    result = catalog.verify_claim(entry, Claim("basis-holds", (), "xy ≈ yx holds"))
    assert str(commutes[0]) == "xy ≈ yx" and not result.ok
    witness = Claim("nfb-witness", (), "witness")
    assert not catalog.verify_claim(catalog.get("S_(4,1)"), witness).ok
    assert catalog.verify_claim(catalog.get("S_(4,49)"), witness).ok


def test_building_refuses_an_invalid_table(monkeypatch):
    left_zero_add = ((0, 0, 0), (1, 1, 1), (2, 2, 2))  # idempotent, not commutative
    broken = lambda S: FiniteAiSemiring(name="", elements=S.elements, add=left_zero_add, mul=S.mul)  # noqa: E731
    monkeypatch.setattr(catalog, "dual", broken)
    with pytest.raises(InvalidSemiringError, match="^S6: not an ai-semiring: add-commutativity$"):
        catalog._catalog.__wrapped__()
    monkeypatch.undo()
    # a hand-typed table is refused by name: (1 * 3) * 2 = 2 but 1 * (3 * 2) = 1
    monkeypatch.setitem(catalog._ORDER4_MUL, 1, "1211111111111111")
    with pytest.raises(InvalidSemiringError, match=r"^S_\(4,1\): not an ai-semiring: mul-associativity"):
        catalog._catalog.__wrapped__()
    monkeypatch.undo()
    # a broken table that a derivation reads is named, not the derived entry (S2)
    monkeypatch.setitem(catalog._ORDER4_MUL, 15, "1211111111111111")
    with pytest.raises(InvalidSemiringError, match=r"^S_\(4,15\): "):
        catalog._catalog.__wrapped__()



def test_every_claim_kind_is_one_row_of_the_checks():
    claims = [claim for entry in catalog.entries() for claim in entry.claims]
    assert {claim.kind for claim in claims} == set(catalog._CHECKS)
    for claim in claims:  # a row takes the entry and one semiring per arg
        assert len(inspect.signature(catalog._CHECKS[claim.kind]).parameters) == 1 + len(claim.args), claim


def _s7_clash(S):
    """An identity p ≈ q in x, y that holds in S and fails in S7, or None.

    S7 is generated by its 1 and a, so S7 lies in the variety of S iff
    x -> 1, y -> a extends to the free algebra F_S(2). Its elements are the
    functions S x S -> S of the terms in x and y; closing the pairs
    (function, value in S7) under + and under products in both orders must
    give each function one S7 value. A function reached with two values by
    terms p and q is a clash, and p ≈ q is returned."""
    S7 = catalog.get("S7").semiring
    pairs = list(itertools.product(range(S.order), repeat=2))
    cells = range(len(pairs))
    x, y = Term([Word(("x",))]), Term([Word(("y",))])
    # function -> (its S7 value, the first term found for it); 0 is S7's "1", 1 its "a"
    known = {tuple(a for a, _ in pairs): (0, x), tuple(b for _, b in pairs): (1, y)}
    frontier = list(known)
    while frontier:
        new = []
        for f in list(known):
            for g in frontier:
                (u, p), (v, q) = known[f], known[g]
                for h, value, term in (
                    (tuple(S.add[f[i]][g[i]] for i in cells), S7.add[u][v], p + q),
                    (tuple(S.mul[f[i]][g[i]] for i in cells), S7.mul[u][v], p * q),
                    (tuple(S.mul[g[i]][f[i]] for i in cells), S7.mul[v][u], q * p),
                ):
                    if h not in known:
                        known[h] = value, term
                        new.append(h)
                    elif known[h][0] != value:
                        return Identity(known[h][1], term)
        frontier = new
    return None


def test_s7_lies_in_the_variety_of_exactly_the_nonfinitely_based_entries():
    S7 = catalog.get("S7").semiring
    clashes = {}
    for entry in catalog.entries(order=4):
        clash = _s7_clash(entry.semiring)
        assert (clash is None) == (entry.status == "nonfinitely-based"), entry.name
        if clash is not None:
            assert counterexample(entry.semiring, clash) is None, (entry.name, str(clash))
            assert counterexample(S7, clash) is not None, (entry.name, str(clash))
            clashes[entry.name] = clash
    assert len(clashes) == 49


def test_duals_keep_status_and_reversed_bases():
    twins = {}
    for entry in catalog.entries(order=4):
        twin = catalog.get(catalog.classify(dual(entry.semiring)))
        assert twin.status == entry.status, entry.name
        twins[entry.name] = twin.name
    assert all(twins[twin] == name for name, twin in twins.items())
    assert sum(name == twin for name, twin in twins.items()) == 26
    nfb = {entry.name for entry in catalog.entries(order=4, status="nonfinitely-based")}
    assert {name: twin for name, twin in twins.items() if name in nfb and name != twin} == {
        "S_(4,13)": "S_(4,24)", "S_(4,24)": "S_(4,13)", "S_(4,31)": "S_(4,49)", "S_(4,49)": "S_(4,31)",
    }
    for name in BASIS_NAMES:
        entry = catalog.get(name)
        reversed_basis = [identity.reverse() for identity in entry.basis]
        assert check_basis(dual(entry.semiring), reversed_basis).all_hold, name
