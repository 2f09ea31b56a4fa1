import collections
import itertools
import json
import random

import pytest

from aisemiring import catalog, criteria
from aisemiring.cli import main
from aisemiring.evaluate import satisfies
from aisemiring.terms import SimpleIdentity, Term, Word, parse_term, word


def si(u_text, q_text):
    return SimpleIdentity(parse_term(u_text), word(q_text))


def test_two_element_clauses():
    assert criteria.check("L2", si("xy + z", "xw")).holds
    assert not criteria.check("L2", si("xy", "wx")).holds
    assert criteria.check("R2", si("xy", "zy")).holds
    assert criteria.check("M2", si("xy", "x")).holds
    assert not criteria.check("M2", si("xy", "w")).holds
    assert criteria.check("D2", si("xy + z", "zw")).holds
    assert criteria.check("N2", si("x", "yz")).holds
    assert not criteria.check("N2", si("x", "y")).holds
    assert criteria.check("T2", si("xy + z", "w")).holds
    assert not criteria.check("T2", si("x + y", "z")).holds
    with pytest.raises(ValueError):
        criteria.check("Q2", si("x", "x"))


def test_s2_clauses():
    assert criteria.holds_s2(si("xyz", "w")).rule == "long-summand"
    assert criteria.holds_s2(si("x + xy", "w")).rule == "length-mix-overlap"
    assert not criteria.holds_s2(si("xy + z", "w")).holds
    assert criteria.holds_s2(si("xy + z", "z")).holds
    assert criteria.holds_s2(si("xy + zw", "xz")).holds
    assert not criteria.holds_s2(si("xy", "xyy")).holds


def test_property_t_and_h():
    assert criteria.property_t(parse_term("xy"))
    assert criteria.property_t(parse_term("xy + zxw"))
    assert not criteria.property_t(parse_term("x^2"))
    assert criteria.property_h(parse_term("yx + wxz"))
    assert not criteria.property_h(parse_term("x^2"))


def test_delta_family():
    d = criteria.delta(parse_term("xy + zy"))
    assert {"y"} in d and {"x", "z"} in d
    assert len(criteria.delta(parse_term("x^2"))) == 0
    assert set(criteria.delta(parse_term("x"))) == {frozenset({"x"})}


def test_delta_characterises_property_t():
    words = [Word(t) for k in (1, 2, 3) for t in itertools.product("xy", repeat=k)]
    for r in (1, 2):
        for combo in itertools.combinations(words, r):
            v = Term(combo)
            tails = frozenset(w[-1] for w in v.words)
            assert (tails in criteria.delta(v)) == criteria.property_t(v)


def test_s4_examples():
    assert criteria.holds_s4(si("xy + x", "xxx")).holds
    assert not criteria.holds_s4(si("xy", "x")).holds
    assert criteria.holds_s4(si("xy", "y")).holds
    assert criteria.holds_s4(si("x + xy", "xy")).rule == "trivial"
    assert not criteria.holds_s4(si("xy", "w")).holds
    assert not criteria.holds_s4(si("x + y", "y^2")).holds


def test_s6_is_the_reverse_of_s4():
    rng = random.Random(11)
    pool = ["x", "y", "z"]
    for _ in range(300):
        u = Term(
            tuple(
                Word(tuple(rng.choice(pool) for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(1, 3))
            )
        )
        q = Word(tuple(rng.choice(pool) for _ in range(rng.randint(1, 3))))
        s = SimpleIdentity(u, q)
        s4 = criteria.holds_s4(s.reverse())
        assert criteria.holds_s6(s) == criteria.CriterionVerdict(s4.holds, s4.rule.replace("tail-", "head-"))
    assert criteria.holds_s6(si("xy", "x")).rule == "head-pattern-preserved"
    assert criteria.holds_s6(si("xy", "yx")).rule == "head-pattern-broken"
    assert criteria.holds_s6(si("xyx", "y")).rule == "head-pattern-absent"


def _end_pattern(u, end):
    # reference: letters at one end of the summands (-1 the tail, 0 the head)
    # occur at most once per summand, and only at that end
    ends = {w.letters[end] for w in u.words}
    for e, w in itertools.product(ends, u.words):
        k = w.count(e)
        if k > 1:
            return False
        if k == 1 and w.letters[end] != e:
            return False
    return True


def _pattern_by_rebuild(si, end, kind):
    # reference for S4 (end -1) and S6 (end 0): rebuild u + q and check its pattern
    u, q = si.base, si.extra
    if q in u:
        return criteria.CriterionVerdict(True, "trivial")
    if not frozenset(q) <= u.variables:
        return criteria.CriterionVerdict(False, "fresh-letter")
    if all(len(w) == 1 for w in u.words):
        return criteria.CriterionVerdict(False, "no-long-summand")
    if not _end_pattern(u, end):
        return criteria.CriterionVerdict(True, f"{kind}-pattern-absent")
    if _end_pattern(Term(u.words + (q,)), end):
        return criteria.CriterionVerdict(True, f"{kind}-pattern-preserved")
    return criteria.CriterionVerdict(False, f"{kind}-pattern-broken")


def _assert_patterns_match(u, qs, rules):
    for q in qs:
        s = SimpleIdentity(u, q)
        for judge, end, kind in ((criteria.holds_s4, -1, "tail"), (criteria.holds_s6, 0, "head")):
            verdict = judge(s)
            assert verdict == _pattern_by_rebuild(s, end, kind), str(s)
            rules[verdict.rule] += 1


def test_s4_s6_pattern_rule_matches_the_rebuild():
    rules = collections.Counter()
    # every (u, q) of acceptance 4 up to renaming the letters, which both sides
    # only compare for equality: u is the least of its six renamings
    words = [Word(t) for k in (1, 2, 3) for t in itertools.product("xyz", repeat=k)]
    renamings = [dict(zip("xyz", p)) for p in itertools.permutations("xyz")]
    for r in (1, 2, 3):
        for combo in itertools.combinations(words, r):
            u = Term(combo)
            if u.words == min(Term(tuple(Word(tuple(m[x] for x in w.letters)) for w in combo)).words for m in renamings):
                _assert_patterns_match(u, words, rules)
    # random terms over six letters, q mostly over the letters of u
    rng = random.Random(23)
    pool = "abcdef"
    for _ in range(400):
        u = Term(
            tuple(
                Word(tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
                for _ in range(rng.randint(1, 6))
            )
        )
        letters = sorted(u.variables) * 4 + list(pool)
        qs = [Word(tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))) for _ in range(10)]
        _assert_patterns_match(u, qs, rules)
    # every rule of both criteria fired
    assert all(rules[f"{kind}-pattern-{how}"] for kind in ("tail", "head") for how in ("preserved", "broken", "absent"))
    assert all(rules[rule] for rule in ("trivial", "fresh-letter", "no-long-summand"))


def test_base_is_kept_per_term():
    qs = [Word(t) for k in (1, 2, 3) for t in itertools.product("xyz", repeat=k)]
    for text in ("xy + zx", "xyz + y", "x + yx^2", "xy + yz + zx", "x + y^2z"):
        u = parse_term(text)
        copy = Term(u.words)
        assert copy == u and copy is not u
        judged = (u, u.reverse(), copy)
        # one term at a time, each q against a fresh term
        expected = {
            (i, q, name): judge(SimpleIdentity(Term(t.words), q))
            for i, t in enumerate(judged)
            for q in qs
            for name, judge in criteria.CRITERIA.items()
        }
        for q in qs:  # the same q against u, its reverse and an equal copy in turn
            for i, t in enumerate(judged):
                for name, judge in criteria.CRITERIA.items():
                    assert judge(SimpleIdentity(t, q)) == expected[i, q, name], (name, str(t), str(q))


def test_one_base_per_term_judged(monkeypatch):
    built = []
    monkeypatch.setattr(criteria, "_Base", lambda u, base=criteria._Base: built.append(u) or base(u))
    monkeypatch.setattr(criteria, "_kept", (None, None))
    u = parse_term("xy + yz + x^2")
    copy = Term(u)
    assert copy == u and copy is not u
    qs = [Word(t) for t in itertools.product("xyz", repeat=3)][:20]
    for t in (u, copy, u):  # an equal copy is another term: the base is found by identity
        for q in qs:
            for judge in criteria.CRITERIA.values():
                judge(SimpleIdentity(t, q))
    assert len(qs) == 20 and len(criteria.CRITERIA) == 10
    assert list(map(id, built)) == [id(u), id(copy), id(u)]


def test_s10_examples():
    assert criteria.holds_s10(si("xy^2", "x")).holds
    assert criteria.holds_s10(si("xy", "yx")).holds
    assert not criteria.holds_s10(si("x^2", "x")).holds
    # odd products combine three distinct summands
    assert criteria.holds_s10(si("x + y + z", "xyz")).holds
    assert not criteria.holds_s10(si("x + y", "xy")).holds
    # multi-character letters, written out of their sorted order
    assert criteria.holds_s10(si("x3 + x1 + x2", "x2x3x1")).rule == "odd-set-match"


def _odd_letters(w):
    return frozenset(x for x in w.letters if w.count(x) % 2 == 1)


def _s10_by_subsets(si):
    # reference: try every odd-size subset of the distinct odd-letter vectors
    u, q = si.base, si.extra
    if not frozenset(q) <= u.variables:
        return False
    target = _odd_letters(q)
    vectors = sorted({_odd_letters(w) for w in u.words}, key=sorted)
    for r in range(1, len(vectors) + 1, 2):
        for combo in itertools.combinations(vectors, r):
            acc = frozenset()
            for vec in combo:
                acc ^= vec
            if acc == target:
                return True
    return False


def test_s10_elimination_matches_the_subset_search():
    # every (u, q) shape of acceptance 4, one per distinct odd-letter vector set
    words = [Word(t) for k in (1, 2, 3) for t in itertools.product("xyz", repeat=k)]
    q_shapes = [(q, frozenset(q), _odd_letters(q)) for q in words]
    seen = set()
    for r in (1, 2, 3):
        for combo in itertools.combinations(words, r):
            u = Term(combo)
            u_shape = (u.variables, frozenset(_odd_letters(w) for w in u.words))
            for q, *q_shape in q_shapes:
                shape = (u_shape, *q_shape)
                if shape not in seen:
                    seen.add(shape)
                    s = SimpleIdentity(u, q)
                    assert criteria.holds_s10(s).holds == _s10_by_subsets(s), str(s)
    # random terms with up to 12 distinct vectors over six letters
    rng = random.Random(15)
    pool = "abcdef"
    outcomes = []
    while len(outcomes) < 400:
        u = Term(
            tuple(
                Word(tuple(rng.choice(pool) for _ in range(rng.randint(1, 5))))
                for _ in range(rng.randint(1, 14))
            )
        )
        if len({_odd_letters(w) for w in u.words}) > 12:
            continue
        q = Word(tuple(rng.choice(pool) for _ in range(rng.randint(1, 6))))
        s = SimpleIdentity(u, q)
        outcomes.append(_s10_by_subsets(s))
        assert criteria.holds_s10(s).holds == outcomes[-1], str(s)
    assert 50 < sum(outcomes) < 350


def test_verdicts_do_not_depend_on_letter_order():
    # the renaming reverses the sort order of the letters and gives one of them
    # two characters, so every letter's bit in the base moves
    rename = {"x": "x9", "y": "b", "z": "a"}
    words = [Word(t) for k in (1, 2) for t in itertools.product("xyz", repeat=k)]
    renamed = {w: Word(rename[x] for x in w) for w in words}
    judged = 0
    for r in (1, 2, 3):
        for combo in itertools.combinations(words, r):
            u, v = Term(combo), Term(renamed[w] for w in combo)
            for q in words:
                for name, judge in criteria.CRITERIA.items():
                    assert judge(SimpleIdentity(u, q)) == judge(SimpleIdentity(v, renamed[q])), (name, str(u), str(q))
                    judged += 1
    assert len(words) == 12 and judged == 35760


def test_d2_matches_the_letter_set_reference():
    # q draws from two letters that never occur in u as well
    rng = random.Random(41)
    pool = [f"x{i}" for i in range(1, 7)]
    outcomes = []
    for _ in range(400):
        u = Term(
            Word(rng.choice(pool) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(1, 5))
        )
        q = Word(rng.choice(pool + ["y1", "y2"]) for _ in range(rng.randint(1, 6)))
        outcomes.append(any(frozenset(w) <= frozenset(q) for w in u))
        assert criteria.check("D2", SimpleIdentity(u, q)).holds == outcomes[-1], (str(u), str(q))
    assert sum(outcomes) >= 50 and len(outcomes) - sum(outcomes) >= 50


def test_dispatch():
    verdict = criteria.check("s10", si("xy", "yx"))
    assert verdict.holds and verdict.rule == "odd-set-match"
    with pytest.raises(ValueError):
        criteria.check("nope", si("x", "x"))


@pytest.mark.parametrize("which", [None, 3, b"L2", ("L2",)], ids=["None", "int", "bytes", "tuple"])
def test_dispatch_refuses_a_name_that_is_not_a_string(which):
    with pytest.raises(ValueError, match="no criterion named"):
        criteria.check(which, si("x", "x"))


# (criterion, holds, rule) over every u ≈ u + q of the xy pool with words of
# length <= 2 and <= 2 summands, counted when every verdict was built per call
_XY_VERDICT_COUNTS = {
    ("D2", False, "no-summand-inside-extra"): 40,
    ("D2", True, "summand-letters-inside-extra"): 86,
    ("L2", False, "no-head-match"): 36,
    ("L2", True, "head-match"): 90,
    ("M2", False, "fresh-letter"): 24,
    ("M2", True, "letters-covered"): 102,
    ("N2", False, "extra-short-and-new"): 30,
    ("N2", True, "extra-is-summand"): 12,
    ("N2", True, "extra-length-2-plus"): 84,
    ("R2", False, "no-tail-match"): 36,
    ("R2", True, "tail-match"): 90,
    ("S10", False, "fresh-letter"): 24,
    ("S10", False, "no-odd-set-match"): 50,
    ("S10", True, "odd-set-match"): 52,
    ("S2", False, "extra-not-a-summand"): 24,
    ("S2", False, "extra-outside-pair-letters"): 24,
    ("S2", True, "extra-in-pair-letters"): 36,
    ("S2", True, "extra-is-summand"): 6,
    ("S2", True, "length-mix-overlap"): 36,
    ("S4", False, "fresh-letter"): 24,
    ("S4", False, "no-long-summand"): 6,
    ("S4", False, "tail-pattern-broken"): 16,
    ("S4", True, "tail-pattern-absent"): 42,
    ("S4", True, "tail-pattern-preserved"): 2,
    ("S4", True, "trivial"): 36,
    ("S6", False, "fresh-letter"): 24,
    ("S6", False, "head-pattern-broken"): 16,
    ("S6", False, "no-long-summand"): 6,
    ("S6", True, "head-pattern-absent"): 42,
    ("S6", True, "head-pattern-preserved"): 2,
    ("S6", True, "trivial"): 36,
    ("T2", False, "all-short-and-extra-new"): 14,
    ("T2", True, "extra-is-summand"): 4,
    ("T2", True, "long-summand"): 108,
}


def _xy_verdicts():
    words = [Word(t) for k in (1, 2) for t in itertools.product("xy", repeat=k)]
    for r in (1, 2):
        for combo in itertools.combinations(words, r):
            u = Term(combo)
            for q in words:
                s = SimpleIdentity(u, q)
                for name, judge in criteria.CRITERIA.items():
                    yield name, judge(s)


def _docstring_rules():
    # the clause table of the module docstring: a criterion's name starts a
    # row, and a more deeply indented line continues it
    table = criteria.__doc__.split("Verdicts carry", 1)[1].split("\n")[1:]
    rules, name = {}, None
    for line in table:
        fields = line.split()
        if not fields:
            continue
        if line.startswith("    ") and not line.startswith("     "):
            name, fields = fields[0], fields[1:]
            rules[name] = set()
        rules[name].update(f for f in fields if f != "|")
    return rules


def test_verdict_counts_are_pinned():
    counts = collections.Counter((name, v.holds, v.rule) for name, v in _xy_verdicts())
    assert counts == _XY_VERDICT_COUNTS


def test_verdicts_are_the_prebuilt_constants():
    prebuilt = {}
    for value in vars(criteria).values():
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, criteria.CriterionVerdict):
                prebuilt[id(v)] = v
    for name, verdict in _xy_verdicts():
        assert id(verdict) in prebuilt, (name, verdict)
    # one constant per (holds, rule), and each one is a clause of the table
    assert len({(v.holds, v.rule) for v in prebuilt.values()}) == len(prebuilt)
    table = _docstring_rules()
    assert {v.rule for v in prebuilt.values()} <= set().union(*table.values())


def test_rules_are_the_docstring_clauses():
    table = _docstring_rules()
    assert sorted(table) == sorted(criteria.CRITERIA)
    seen = collections.defaultdict(set)
    for name, verdict in _xy_verdicts():
        seen[name].add(verdict.rule)
    for name, rules in seen.items():
        assert rules <= table[name], (name, rules - table[name])


def test_random_oracle_agreement():
    rng = random.Random(99)
    pool = ["x", "y", "z"]
    oracles = {name: catalog.get(name).semiring for name in criteria.CRITERIA}
    for _ in range(500):
        u = Term(
            tuple(
                Word(tuple(rng.choice(pool) for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(1, 3))
            )
        )
        q = Word(tuple(rng.choice(pool) for _ in range(rng.randint(1, 3))))
        s = SimpleIdentity(u, q)
        name = rng.choice(sorted(criteria.CRITERIA))
        assert (
            criteria.check(name, s).holds == satisfies(oracles[name], s.as_identity())
        ), (name, str(s))


def test_criteria_sweep_agrees(capsys):
    code = main(["criteria", "--sweep", "--max-summands", "2", "--max-length", "2"])
    out = capsys.readouterr()
    assert code == 0, out.out + out.err
    assert "0 disagreements" in out.out


def test_criteria_sweep_reports_a_disagreement(capsys, monkeypatch):
    honest = criteria.CRITERIA["L2"]
    monkeypatch.setitem(
        criteria.CRITERIA, "L2", lambda si: criteria.CriterionVerdict(not honest(si).holds, "planted")
    )
    code = main(["criteria", "--sweep", "--variables", "xy", "--max-summands", "1", "--max-length", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    # 2 words for u and 2 for q, ten criteria each; every L2 verdict is flipped
    assert (payload["identities"], payload["comparisons"]) == (4, 40)
    assert [d["lemma"] for d in payload["disagreements"]] == ["L2"] * 4
    # holds counts the oracle's verdicts, not the criterion's: x ≈ x + x and y ≈ y + y
    assert payload["holds"]["L2"] == 2
