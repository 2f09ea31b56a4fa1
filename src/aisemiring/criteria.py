"""Syntactic satisfaction criteria for u ≈ u + q in distinguished small semirings.

Each criterion decides a simple identity purely from word shapes (heads,
tails, letter sets, lengths, multiplicities).  Every one of them is mirrored
by the brute-force evaluator on the matching catalog semiring, and the test
suite cross-validates the two exhaustively on small identities.

What the criteria read of u (its summands, letters, ends, end patterns and
S10's reduced odd-letter vectors) is a prepared base, computed once per term
object and kept on it, so judging many q against one u derives nothing about
u twice.

Verdicts are shared immutable constants, built once when the module is
imported: a criterion returns one of them and builds nothing per call.

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
    S6   trivial | fresh-letter | no-long-summand | head-pattern-preserved |
         head-pattern-broken | head-pattern-absent
    S10  fresh-letter | odd-set-match | no-odd-set-match
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .terms import SimpleIdentity, Term


@dataclass(frozen=True)
class CriterionVerdict:
    holds: bool
    rule: str

    def to_dict(self) -> dict:
        return {"holds": self.holds, "rule": self.rule}


def _by_end(holds: bool, rule: str) -> tuple[CriterionVerdict, CriterionVerdict]:
    """One verdict per end, indexed as _Base's pairs: 0 the head, -1 the tail."""
    return CriterionVerdict(holds, rule.format("head")), CriterionVerdict(holds, rule.format("tail"))


_MATCH = _by_end(True, "{}-match")
_NO_MATCH = _by_end(False, "no-{}-match")
_LETTERS_COVERED = CriterionVerdict(True, "letters-covered")
_FRESH_LETTER = CriterionVerdict(False, "fresh-letter")
_SUMMAND_INSIDE_EXTRA = CriterionVerdict(True, "summand-letters-inside-extra")
_NO_SUMMAND_INSIDE_EXTRA = CriterionVerdict(False, "no-summand-inside-extra")
_EXTRA_LENGTH_2_PLUS = CriterionVerdict(True, "extra-length-2-plus")
_EXTRA_IS_SUMMAND = CriterionVerdict(True, "extra-is-summand")
_EXTRA_SHORT_AND_NEW = CriterionVerdict(False, "extra-short-and-new")
_LONG_SUMMAND = CriterionVerdict(True, "long-summand")
_ALL_SHORT_AND_EXTRA_NEW = CriterionVerdict(False, "all-short-and-extra-new")
_LENGTH_MIX_OVERLAP = CriterionVerdict(True, "length-mix-overlap")
_EXTRA_NOT_A_SUMMAND = CriterionVerdict(False, "extra-not-a-summand")
_EXTRA_IN_PAIR_LETTERS = CriterionVerdict(True, "extra-in-pair-letters")
_EXTRA_OUTSIDE_PAIR_LETTERS = CriterionVerdict(False, "extra-outside-pair-letters")
_EXTRA_TOO_LONG = CriterionVerdict(False, "extra-too-long")
_TRIVIAL = CriterionVerdict(True, "trivial")
_NO_LONG_SUMMAND = CriterionVerdict(False, "no-long-summand")
_PATTERN_PRESERVED = _by_end(True, "{}-pattern-preserved")
_PATTERN_BROKEN = _by_end(False, "{}-pattern-broken")
_PATTERN_ABSENT = _by_end(True, "{}-pattern-absent")
_ODD_SET_MATCH = CriterionVerdict(True, "odd-set-match")
_NO_ODD_SET_MATCH = CriterionVerdict(False, "no-odd-set-match")


def _odd_letters(letters: tuple[str, ...]) -> frozenset[str]:
    return frozenset(x for x in set(letters) if letters.count(x) % 2)


def _inner(letters: tuple[str, ...], end: int) -> tuple[str, ...]:
    """The letters away from one end (-1 the tail, 0 the head)."""
    return letters[:-1] if end == -1 else letters[1:]


def _end_letters(u: Term, ends: frozenset[str], end: int) -> Optional[frozenset[str]]:
    """ends, the letters at one end of u's summands, if none of them occurs
    anywhere else in a summand (u has the end pattern), else None."""
    if any(not ends.isdisjoint(_inner(w, end)) for w in u):
        return None
    return ends


def _reduce(rows: list[tuple[str, frozenset]], vec: frozenset) -> frozenset:
    """vec reduced over GF(2) by the rows in order.  No row holds the pivot
    letter of an earlier row, so one pass clears every pivot."""
    for pivot, row in rows:
        if pivot in vec:
            vec ^= row
    return vec


class _Base:
    """The facts about u that the criteria read."""

    def __init__(self, u: Term):
        self.summands = frozenset(u)
        self.variables = u.variables
        # both pairs are indexed by the end: 0 the head, -1 the tail
        self.ends = (frozenset(w.head for w in u), frozenset(w.tail for w in u))
        self.letter_sets = frozenset(w.letter_set for w in u)
        self.longest = max(map(len, u))
        self.pair_letters = frozenset(x for w in u if len(w) == 2 for x in w)
        self.mixed = any(len(w) == 1 and w.head in self.pair_letters for w in u)
        self.end_letters = (_end_letters(u, self.ends[0], 0), _end_letters(u, self.ends[-1], -1))
        # S10: the sums of an odd number of the distinct odd-letter vectors are
        # exactly v1 ^ span{v1 ^ vi}; reduce the span to pivoted rows once
        vectors = list(dict.fromkeys(_odd_letters(w) for w in u))
        self.odd_first = vectors[0]
        self.odd_rows: list[tuple[str, frozenset]] = []
        for v in vectors[1:]:
            vec = _reduce(self.odd_rows, self.odd_first ^ v)
            if vec:
                self.odd_rows.append((min(vec), vec))


def _base(u: Term) -> _Base:
    """u's prepared base, kept in the term's instance dict; a Term equals,
    hashes and prints as the tuple of its words alone."""
    try:
        return u._criteria_base
    except AttributeError:
        u._criteria_base = base = _Base(u)
        return base


def _end_match(si: SimpleIdentity, end: int) -> CriterionVerdict:
    if si.extra[end] in _base(si.base).ends[end]:
        return _MATCH[end]
    return _NO_MATCH[end]


def _two_element_L2(si: SimpleIdentity) -> CriterionVerdict:
    return _end_match(si, 0)


def _two_element_R2(si: SimpleIdentity) -> CriterionVerdict:
    return _end_match(si, -1)


def _two_element_M2(si: SimpleIdentity) -> CriterionVerdict:
    if _base(si.base).variables.issuperset(si.extra):
        return _LETTERS_COVERED
    return _FRESH_LETTER


def _two_element_D2(si: SimpleIdentity) -> CriterionVerdict:
    extra_letters = si.extra.letter_set
    if any(s <= extra_letters for s in _base(si.base).letter_sets):
        return _SUMMAND_INSIDE_EXTRA
    return _NO_SUMMAND_INSIDE_EXTRA


def _two_element_N2(si: SimpleIdentity) -> CriterionVerdict:
    if len(si.extra) >= 2:
        return _EXTRA_LENGTH_2_PLUS
    if si.extra in _base(si.base).summands:
        return _EXTRA_IS_SUMMAND
    return _EXTRA_SHORT_AND_NEW


def _two_element_T2(si: SimpleIdentity) -> CriterionVerdict:
    base = _base(si.base)
    if base.longest >= 2:
        return _LONG_SUMMAND
    if si.extra in base.summands:
        return _EXTRA_IS_SUMMAND
    return _ALL_SHORT_AND_EXTRA_NEW


def holds_s2(si: SimpleIdentity) -> CriterionVerdict:
    """Decide u ≈ u + q in S2 from summand lengths and letter overlaps."""
    base, q = _base(si.base), si.extra
    if base.longest >= 3:
        return _LONG_SUMMAND
    if base.mixed:
        return _LENGTH_MIX_OVERLAP
    if len(q) == 1:
        if q in base.summands:
            return _EXTRA_IS_SUMMAND
        return _EXTRA_NOT_A_SUMMAND
    if len(q) == 2:
        if base.pair_letters.issuperset(q):
            return _EXTRA_IN_PAIR_LETTERS
        return _EXTRA_OUTSIDE_PAIR_LETTERS
    return _EXTRA_TOO_LONG


def property_t(u: Term) -> bool:
    """Tail letters occur at most once per summand, and only as tails."""
    return _base(u).end_letters[-1] is not None


def property_h(u: Term) -> bool:
    """Head letters occur at most once per summand, and only as heads."""
    return _base(u).end_letters[0] is not None


def delta(v: Term) -> frozenset[frozenset[str]]:
    """All Z with Z ∩ c(v_i) = {x} and m(x, v_i) = 1 for every summand: the
    letter sets that pick exactly one single-occurrence letter per summand."""
    letters = sorted(v.variables)
    found = []
    for r in range(1, len(letters) + 1):
        for combo in itertools.combinations(letters, r):
            Z = frozenset(combo)
            ok = True
            for w in v:
                hit = Z & w.letter_set
                if len(hit) != 1 or w.count(next(iter(hit))) != 1:
                    ok = False
                    break
            if ok:
                found.append(Z)
    return frozenset(found)


def _holds_pattern(si: SimpleIdentity, end: int) -> CriterionVerdict:
    base, q = _base(si.base), si.extra
    if q in base.summands:
        return _TRIVIAL
    if not base.variables.issuperset(q):
        return _FRESH_LETTER
    if base.longest == 1:
        return _NO_LONG_SUMMAND
    ends = base.end_letters[end]
    if ends is None:
        return _PATTERN_ABSENT[end]
    # q's letters all occur in u, so an end letter of q that is not one of u's
    # occurs inside a summand of u: u + q keeps the pattern exactly when q ends
    # in one of u's end letters and holds none of them elsewhere
    if q[end] in ends and ends.isdisjoint(_inner(q, end)):
        return _PATTERN_PRESERVED[end]
    return _PATTERN_BROKEN[end]


def holds_s4(si: SimpleIdentity) -> CriterionVerdict:
    """Decide a nontrivial u ≈ u + q in S4; trivial inputs hold outright."""
    return _holds_pattern(si, -1)


def holds_s6(si: SimpleIdentity) -> CriterionVerdict:
    """Head-side mirror of holds_s4, deciding satisfaction in S6."""
    return _holds_pattern(si, 0)


def holds_s10(si: SimpleIdentity) -> CriterionVerdict:
    """Decide u ≈ u + q in S10 via odd-multiplicity letter sets.

    q must use only letters of u, and its odd-letter set must be the symmetric
    difference of the odd-letter sets of an odd number of distinct summand
    vectors.  Repetitions of a factor cancel in pairs, so odd-size subsets of
    the distinct vectors realise exactly the products of 3**k summands.  The
    subsets are not listed: the base holds the vectors reduced by one GF(2)
    elimination, so each q costs one pass over its rows.
    """
    base, q = _base(si.base), si.extra
    if not base.variables.issuperset(q):
        return _FRESH_LETTER
    if not _reduce(base.odd_rows, base.odd_first ^ _odd_letters(q)):
        return _ODD_SET_MATCH
    return _NO_ODD_SET_MATCH


CRITERIA: dict[str, Callable[[SimpleIdentity], CriterionVerdict]] = {
    "L2": _two_element_L2,
    "R2": _two_element_R2,
    "M2": _two_element_M2,
    "D2": _two_element_D2,
    "N2": _two_element_N2,
    "T2": _two_element_T2,
    "S2": holds_s2,
    "S4": holds_s4,
    "S6": holds_s6,
    "S10": holds_s10,
}


def check(which: str, si: SimpleIdentity) -> CriterionVerdict:
    """Dispatch to one of the ten criteria by semiring name."""
    fn = CRITERIA.get(which.upper()) if isinstance(which, str) else None
    if fn is None:
        raise ValueError(f"no criterion named {which!r}; choose from {sorted(CRITERIA)}")
    return fn(si)
