import itertools
import json
import random

import pytest

from aisemiring import catalog, criteria
from aisemiring.cli import main
from aisemiring.evaluate import satisfies
from aisemiring.terms import SimpleIdentity, Term, Word, parse_term, word, word_measures


def si(u_text, q_text):
    return SimpleIdentity(parse_term(u_text), word(q_text))


def test_two_element_clauses():
    assert criteria.holds_two_element("L2", si("xy + z", "xw")).holds
    assert not criteria.holds_two_element("L2", si("xy", "wx")).holds
    assert criteria.holds_two_element("R2", si("xy", "zy")).holds
    assert criteria.holds_two_element("M2", si("xy", "x")).holds
    assert not criteria.holds_two_element("M2", si("xy", "w")).holds
    assert criteria.holds_two_element("D2", si("xy + z", "zw")).holds
    assert criteria.holds_two_element("N2", si("x", "yz")).holds
    assert not criteria.holds_two_element("N2", si("x", "y")).holds
    assert criteria.holds_two_element("T2", si("xy + z", "w")).holds
    assert not criteria.holds_two_element("T2", si("x + y", "z")).holds
    with pytest.raises(ValueError):
        criteria.holds_two_element("Q2", si("x", "x"))


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
            tails = frozenset(w.tail for w in v.words)
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


def test_s10_examples():
    assert criteria.holds_s10(si("xy^2", "x")).holds
    assert criteria.holds_s10(si("xy", "yx")).holds
    assert not criteria.holds_s10(si("x^2", "x")).holds
    # odd products combine three distinct summands
    assert criteria.holds_s10(si("x + y + z", "xyz")).holds
    assert not criteria.holds_s10(si("x + y", "xy")).holds


def _s10_by_subsets(si):
    # reference: try every odd-size subset of the distinct odd-letter vectors
    u, q = si.base, si.extra
    if not q.letter_set <= u.variables:
        return False
    target = word_measures(q).odd_letters
    vectors = sorted({word_measures(w).odd_letters for w in u.words}, key=sorted)
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
    q_shapes = [(q, q.letter_set, word_measures(q).odd_letters) for q in words]
    seen = set()
    for r in (1, 2, 3):
        for combo in itertools.combinations(words, r):
            u = Term(combo)
            u_shape = (u.variables, frozenset(word_measures(w).odd_letters for w in u.words))
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
        if len({word_measures(w).odd_letters for w in u.words}) > 12:
            continue
        q = Word(tuple(rng.choice(pool) for _ in range(rng.randint(1, 6))))
        s = SimpleIdentity(u, q)
        outcomes.append(_s10_by_subsets(s))
        assert criteria.holds_s10(s).holds == outcomes[-1], str(s)
    assert 50 < sum(outcomes) < 350


def test_dispatch():
    verdict = criteria.check("s10", si("xy", "yx"))
    assert verdict.holds and verdict.rule == "odd-set-match"
    with pytest.raises(ValueError):
        criteria.check("nope", si("x", "x"))


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
