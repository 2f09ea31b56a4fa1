"""Syntactic satisfaction criteria for u ≈ u + q in distinguished small semirings.

Each criterion decides a simple identity purely from word shapes (heads,
tails, letter sets, lengths, multiplicities).  Every one of them is mirrored
by the brute-force evaluator on the matching catalog semiring, and the test
suite cross-validates the two exhaustively on small identities.

Verdicts carry the name of the clause that fired:

    L2   head-match | no-head-match
    R2   tail-match | no-tail-match
    M2   letters-covered | fresh-letter
    D2   summand-letters-inside-extra | no-summand-inside-extra
    N2   extra-length-2-plus | extra-is-summand | extra-short-and-new
    T2   long-summand | extra-is-summand | all-short-and-extra-new
    S2   long-summand | length-mix-overlap | extra-is-summand |
         extra-not-a-summand | extra-in-pair-letters |
         extra-outside-pair-letters | extra-too-long
    S4   trivial | fresh-letter | no-long-summand | tail-pattern-preserved |
         tail-pattern-broken | tail-pattern-absent
    S6   as S4 with head-pattern-* rules
    S10  fresh-letter | odd-set-match | no-odd-set-match
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .terms import SimpleIdentity, Term, Word, term_measures, word_measures


@dataclass(frozen=True)
class CriterionVerdict:
    holds: bool
    rule: str

    def to_dict(self) -> dict:
        return {"holds": self.holds, "rule": self.rule}


def _two_element_L2(si: SimpleIdentity) -> CriterionVerdict:
    if word_measures(si.extra).head in term_measures(si.base).heads:
        return CriterionVerdict(True, "head-match")
    return CriterionVerdict(False, "no-head-match")


def _two_element_R2(si: SimpleIdentity) -> CriterionVerdict:
    if word_measures(si.extra).tail in term_measures(si.base).tails:
        return CriterionVerdict(True, "tail-match")
    return CriterionVerdict(False, "no-tail-match")


def _two_element_M2(si: SimpleIdentity) -> CriterionVerdict:
    if si.extra.letter_set <= si.base.variables:
        return CriterionVerdict(True, "letters-covered")
    return CriterionVerdict(False, "fresh-letter")


def _two_element_D2(si: SimpleIdentity) -> CriterionVerdict:
    extra_letters = si.extra.letter_set
    if any(w.letter_set <= extra_letters for w in si.base.words):
        return CriterionVerdict(True, "summand-letters-inside-extra")
    return CriterionVerdict(False, "no-summand-inside-extra")


def _two_element_N2(si: SimpleIdentity) -> CriterionVerdict:
    if len(si.extra) >= 2:
        return CriterionVerdict(True, "extra-length-2-plus")
    if si.extra in si.base:
        return CriterionVerdict(True, "extra-is-summand")
    return CriterionVerdict(False, "extra-short-and-new")


def _two_element_T2(si: SimpleIdentity) -> CriterionVerdict:
    if any(len(w) >= 2 for w in si.base.words):
        return CriterionVerdict(True, "long-summand")
    if si.extra in si.base:
        return CriterionVerdict(True, "extra-is-summand")
    return CriterionVerdict(False, "all-short-and-extra-new")


_TWO_ELEMENT = {
    "L2": _two_element_L2,
    "R2": _two_element_R2,
    "M2": _two_element_M2,
    "D2": _two_element_D2,
    "N2": _two_element_N2,
    "T2": _two_element_T2,
}


def holds_two_element(which: str, si: SimpleIdentity) -> CriterionVerdict:
    """Decide u ≈ u + q in one of the six 2-element ai-semirings."""
    try:
        return _TWO_ELEMENT[which.upper()](si)
    except KeyError:
        raise ValueError(f"unknown 2-element semiring {which!r}") from None


def holds_s2(si: SimpleIdentity) -> CriterionVerdict:
    """Decide u ≈ u + q in S2 from summand lengths and letter overlaps."""
    u, q = si.base, si.extra
    tm = term_measures(u)
    if any(len(w) >= 3 for w in u.words):
        return CriterionVerdict(True, "long-summand")
    singles = frozenset(x for w in tm.of_length(1) for x in w.letter_set)
    pairs = frozenset(x for w in tm.of_length(2) for x in w.letter_set)
    if singles & pairs:
        return CriterionVerdict(True, "length-mix-overlap")
    if len(q) == 1:
        if q in u:
            return CriterionVerdict(True, "extra-is-summand")
        return CriterionVerdict(False, "extra-not-a-summand")
    if len(q) == 2:
        if q.letter_set <= pairs:
            return CriterionVerdict(True, "extra-in-pair-letters")
        return CriterionVerdict(False, "extra-outside-pair-letters")
    return CriterionVerdict(False, "extra-too-long")


def _end_pattern(u: Term, end: int) -> bool:
    """Letters at one end of the summands (-1 the tail, 0 the head) occur at
    most once per summand, and only at that end."""
    ends = {w.letters[end] for w in u.words}
    for e, w in itertools.product(ends, u.words):
        k = w.count(e)
        if k > 1:
            return False
        if k == 1 and w.letters[end] != e:
            return False
    return True


def property_t(u: Term) -> bool:
    """Tail letters occur at most once per summand, and only as tails."""
    return _end_pattern(u, -1)


def property_h(u: Term) -> bool:
    """Head letters occur at most once per summand, and only as heads."""
    return _end_pattern(u, 0)


def delta(v: Term) -> frozenset[frozenset[str]]:
    """All Z with Z ∩ c(v_i) = {x} and m(x, v_i) = 1 for every summand: the
    letter sets that pick exactly one single-occurrence letter per summand."""
    letters = sorted(v.variables)
    found = []
    for r in range(1, len(letters) + 1):
        for combo in itertools.combinations(letters, r):
            Z = frozenset(combo)
            ok = True
            for w in v.words:
                hit = Z & w.letter_set
                if len(hit) != 1 or w.count(next(iter(hit))) != 1:
                    ok = False
                    break
            if ok:
                found.append(Z)
    return frozenset(found)


def _holds_pattern(si: SimpleIdentity, end: int, kind: str) -> CriterionVerdict:
    if si.is_trivial:
        return CriterionVerdict(True, "trivial")
    u, q = si.base, si.extra
    if not q.letter_set <= u.variables:
        return CriterionVerdict(False, "fresh-letter")
    if all(len(w) == 1 for w in u.words):
        return CriterionVerdict(False, "no-long-summand")
    if _end_pattern(u, end):
        if _end_pattern(Term(u.words + (q,)), end):
            return CriterionVerdict(True, f"{kind}-pattern-preserved")
        return CriterionVerdict(False, f"{kind}-pattern-broken")
    return CriterionVerdict(True, f"{kind}-pattern-absent")


def holds_s4(si: SimpleIdentity) -> CriterionVerdict:
    """Decide a nontrivial u ≈ u + q in S4; trivial inputs hold outright."""
    return _holds_pattern(si, -1, "tail")


def holds_s6(si: SimpleIdentity) -> CriterionVerdict:
    """Head-side mirror of holds_s4, deciding satisfaction in S6."""
    return _holds_pattern(si, 0, "head")


def _odd_sum_of(vectors: list[frozenset], target: frozenset) -> bool:
    """Whether ``target`` is the symmetric difference of an odd number of the
    distinct ``vectors``.  Those sums are exactly v1 ^ span{v1 ^ vi} over
    GF(2), so one elimination decides it.  No row of ``basis`` holds the pivot
    letter of an earlier row, so reducing by the rows in order clears them all."""
    first = vectors[0]
    basis: list[tuple[str, frozenset]] = []

    def reduce(vec: frozenset) -> frozenset:
        for pivot, row in basis:
            if pivot in vec:
                vec ^= row
        return vec

    for v in vectors[1:]:
        vec = reduce(first ^ v)
        if vec:
            basis.append((min(vec), vec))
    return not reduce(first ^ target)


def holds_s10(si: SimpleIdentity) -> CriterionVerdict:
    """Decide u ≈ u + q in S10 via odd-multiplicity letter sets.

    q must use only letters of u, and its odd-letter set must be the symmetric
    difference of the odd-letter sets of an odd number of distinct summand
    vectors.  Repetitions of a factor cancel in pairs, so odd-size subsets of
    the distinct vectors realise exactly the products of 3**k summands.  The
    subsets are not listed: a GF(2) elimination over the vectors decides it
    in time polynomial in their number.
    """
    u, q = si.base, si.extra
    if not q.letter_set <= u.variables:
        return CriterionVerdict(False, "fresh-letter")
    vectors = list({word_measures(w).odd_letters for w in u.words})
    if _odd_sum_of(vectors, word_measures(q).odd_letters):
        return CriterionVerdict(True, "odd-set-match")
    return CriterionVerdict(False, "no-odd-set-match")


CRITERIA: dict[str, Callable[[SimpleIdentity], CriterionVerdict]] = {
    **_TWO_ELEMENT,
    "S2": holds_s2,
    "S4": holds_s4,
    "S6": holds_s6,
    "S10": holds_s10,
}


def check(which: str, si: SimpleIdentity) -> CriterionVerdict:
    """Dispatch to one of the ten criteria by semiring name."""
    try:
        fn = CRITERIA[which.upper()]
    except KeyError:
        raise ValueError(f"no criterion named {which!r}; choose from {sorted(CRITERIA)}") from None
    return fn(si)
