"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible under pytest -s)."""

import contextlib
import io
import itertools
import json
import time

import pytest

from aisemiring import catalog, cli, construct, criteria
from aisemiring.census import enumerate_ai_semirings
from aisemiring.core import (
    additive_height,
    canonical_form,
    direct_product,
    find_embedding,
    find_isomorphism,
    is_subdirect_embedding,
    natural_order,
    validate,
)
from aisemiring.derivation import (
    bundled_certificate_names,
    load_bundled_certificate,
    verify_certificate,
)
from aisemiring.evaluate import check_basis, satisfies
from aisemiring.terms import SimpleIdentity, Term, Word


def _report(number: int, ok: bool, message: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, message


def test_acceptance_1_census_counts(order4_census):
    t0 = time.monotonic()
    c2 = enumerate_ai_semirings(2)
    c3 = enumerate_ai_semirings(3)
    small_elapsed = time.monotonic() - t0
    counts = (c2.count, c3.count, order4_census.count, len(order4_census.height1))
    ok = counts == (6, 61, 866, 58)
    ok = ok and small_elapsed < 10.0 and order4_census.elapsed < 600.0
    _report(
        1,
        ok,
        f"census counts {counts} (expected (6, 61, 866, 58)); "
        f"orders 2-3 in {small_elapsed:.2f}s, order 4 in {order4_census.elapsed:.2f}s",
    )


def test_acceptance_2_table_fidelity(order4_census):
    entries = [catalog.get(f"S_(4,{k})") for k in range(1, 59)]
    ok = True
    for entry in entries:
        S = entry.semiring
        ok = ok and validate(S.add, S.mul).valid
        ok = ok and additive_height(S) == 1
        ok = ok and S.elements[natural_order(S).top] == "1"
    catalog_keys = {canonical_form(e.semiring) for e in entries}
    census_keys = {canonical_form(S) for S in order4_census.height1}
    ok = ok and len(catalog_keys) == 58 and catalog_keys == census_keys
    _report(2, ok, "58 tables validate, height 1, top 1, and match the census bijectively")


def test_acceptance_3_basis_satisfaction():
    t0 = time.monotonic()
    failures = []
    for name in catalog.BASIS_NAMES:
        entry = catalog.get(name)
        report = check_basis(entry.semiring, entry.basis)
        if not report.all_hold:
            failures.append(name)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _report(3, ok, f"ten bundled bases hold exhaustively in {elapsed:.2f}s; failures: {failures}")


# identities of the acceptance-4 pool that hold in each criterion's semiring,
# counted by a separate loop over BulkEvaluator vectors
HOLDS = {
    "D2": 253587, "L2": 271752, "M2": 351960, "N2": 359310, "R2": 271752,
    "S10": 175380, "S2": 381360, "S4": 344112, "S6": 344112, "T2": 386580,
}


def test_acceptance_4_criterion_oracle_equivalence():
    # the shipped sweep: every u ≈ u + q over x, y, z with words of length at
    # most 3 and at most 3 summands in u, each criterion against its oracle
    t0 = time.monotonic()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            ["criteria", "--sweep", "--variables", "xyz", "--max-length", "3", "--max-summands", "3", "--json"]
        )
    sweep = json.loads(out.getvalue())
    names = sorted(criteria.CRITERIA)

    # the same pool, judged by the criteria alone
    words = [Word(t) for k in (1, 2, 3) for t in itertools.product("xyz", repeat=k)]
    reverse_of = {w: w.reverse() for w in words}
    duality_breaks = 0
    delta_breaks = 0
    for r in (1, 2, 3):
        for u_words in itertools.combinations(words, r):
            u = Term(u_words)
            # the transversal family recognises the tail pattern exactly
            tails = frozenset(w.tail for w in u.words)
            if (tails in criteria.delta(u)) != criteria.property_t(u):
                delta_breaks += 1
            u_rev = Term(tuple(reverse_of[w] for w in u.words))
            # the criteria keep the base of the term being judged, so every q
            # is judged against u, then every reversed q against u_rev
            s6 = [criteria.holds_s6(SimpleIdentity(u, q)).holds for q in words]
            s4 = [criteria.holds_s4(SimpleIdentity(u_rev, reverse_of[q])).holds for q in words]
            duality_breaks += sum(a != b for a, b in zip(s6, s4))
    elapsed = time.monotonic() - t0
    identities = sweep["identities"]
    # no criterion may be vacuous: each must see identities that hold and fail
    vacuous = [name for name in names if not 0 < sweep["holds"].get(name, 0) < identities]
    ok = (
        code == 0
        and (identities, sweep["comparisons"]) == (386841, 386841 * len(names))
        and sweep["holds"] == HOLDS
        and not sweep["disagreements"]
        and duality_breaks == 0
        and delta_breaks == 0
        and not vacuous
    )
    _report(
        4,
        ok,
        f"{sweep['comparisons']} criterion/oracle comparisons over {identities} simple "
        f"identities, {len(sweep['disagreements'])} disagreements, {duality_breaks} duality breaks, "
        f"{delta_breaks} transversal breaks, vacuous: {vacuous or 'none'}, "
        f"holds {'as pinned' if sweep['holds'] == HOLDS else sweep['holds']}, in {elapsed:.1f}s"
        + (f"; first: {sweep['disagreements'][:3]}" if sweep["disagreements"] else ""),
    )


def test_acceptance_5_structural_claims():
    checks = [
        find_isomorphism(catalog.get("S_(4,8)").semiring, catalog.resolve("@sc:ab")),
        find_isomorphism(catalog.get("S_(4,9)").semiring, catalog.resolve("@sc:aaa")),
        find_isomorphism(catalog.get("S7").semiring, catalog.resolve("@mc:a")),
        find_isomorphism(catalog.get("S7").semiring, catalog.resolve("@m:a")),
        find_isomorphism(catalog.get("S_(4,37)").semiring, catalog.resolve("@flatext:z3")),
        find_isomorphism(catalog.get("S_(4,16)").semiring, catalog.resolve("@dual:S_(4,41)")),
        find_isomorphism(catalog.get("S_(4,21)").semiring, catalog.resolve("@dual:S_(4,47)")),
        find_isomorphism(catalog.get("S_(4,46)").semiring, catalog.resolve("@dual:S_(4,48)")),
        find_isomorphism(catalog.get("S_(4,45)").semiring, catalog.resolve("@dual:S_(4,30)")),
        find_isomorphism(catalog.get("S_(4,15)").semiring, catalog.resolve("@ie:S2")),
    ]
    subdirects = [
        ("S_(4,20)", "S10", "T2"),
        ("S_(4,41)", "S2", "S5"),
        ("S_(4,42)", "S2", "S13"),
        ("S_(4,30)", "S4", "S14"),
        ("S_(4,47)", "S4", "S9"),
        ("S_(4,48)", "S4", "S15"),
        ("S_(4,6)", "S6", "S6"),
        ("S_(4,12)", "S4", "S6"),
    ]
    for name, a, b in subdirects:
        checks.append(
            is_subdirect_embedding(
                catalog.get(name).semiring, catalog.get(a).semiring, catalog.get(b).semiring
            )
        )
    direct_ok = all(found is not None for found in checks)
    claim_results = catalog.verify_all_claims()
    all_claims_ok = all(r.ok for r in claim_results)
    ok = direct_ok and all_claims_ok
    _report(
        5,
        ok,
        f"{len(checks)} acceptance claims hold directly; "
        f"{sum(r.ok for r in claim_results)}/{len(claim_results)} catalog claims pass",
    )


def test_acceptance_6_nfb_witnesses():
    positives = [
        "S_(4,11)", "S_(4,13)", "S_(4,24)", "S_(4,25)", "S_(4,26)",
        "S_(4,28)", "S_(4,31)", "S_(4,49)", "S_(4,50)",
    ]
    wrong = []
    for name in positives:
        if not construct.nfb_witness(catalog.get(name).semiring).conclusion:
            wrong.append(name)
    for name in ("S_(4,1)", "T2"):
        if construct.nfb_witness(catalog.get(name).semiring).conclusion:
            wrong.append(name)
    _report(6, not wrong, f"nine witnesses positive, two negative; wrong: {wrong}")


def test_acceptance_7_extension_propositions():
    T2 = catalog.get("T2").semiring
    M2 = catalog.get("M2").semiring
    flats = [e for e in catalog.entries(flat=True)]
    failures = []
    for entry in flats:
        S = entry.semiring
        if is_subdirect_embedding(construct.null_extension(S), S, T2) is None:
            failures.append((entry.name, "null extension"))
        if is_subdirect_embedding(construct.idempotent_extension(S), S, M2) is None:
            failures.append((entry.name, "idempotent extension"))
    S7 = catalog.get("S7").semiring
    product_flat = construct.is_flat(direct_product(S7, S7))
    ok = not failures and not product_flat
    _report(
        7,
        ok,
        f"{len(flats)} flat catalog algebras extend subdirectly into SxT2 and SxM2; "
        f"S7xS7 flat: {product_flat}; failures: {failures}",
    )


def test_acceptance_8_derivation_certificates(cat):
    names = bundled_certificate_names()
    failures = []
    for name in names:
        cert = load_bundled_certificate(name)
        if not verify_certificate(cert).valid:
            failures.append((name, "does not verify"))
            continue
        for entry in cat.values():
            S = entry.semiring
            if all(satisfies(S, axiom) for axiom in cert.axioms) and not satisfies(
                S, cert.endpoints
            ):
                failures.append((name, entry.name))
    _report(
        8,
        not failures,
        f"{len(names)} bundled certificates verify and are sound on the catalog; "
        f"failures: {failures}",
    )
