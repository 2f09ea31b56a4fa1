import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisemiring.terms import (
    Identity,
    Term,
    TermSyntaxError,
    Word,
    parse_identity,
    parse_term,
    substitute,
    word,
)

letters = st.sampled_from(["x", "y", "z", "w"])
words = st.builds(lambda ls: Word(tuple(ls)), st.lists(letters, min_size=1, max_size=4))
terms = st.builds(lambda ws: Term(tuple(ws)), st.lists(words, min_size=1, max_size=4))
small_words = st.builds(lambda ls: Word(tuple(ls)), st.lists(letters, min_size=1, max_size=2))
small_terms = st.builds(lambda ws: Term(tuple(ws)), st.lists(small_words, min_size=1, max_size=2))


def test_parse_examples():
    assert parse_term("x1x2x3 + x4").words == (word("x1x2x3"), word("x4"))
    assert parse_term("x^2") == Term((Word(("x", "x")),))
    assert len(parse_term("xy + yz + xz").words) == 3
    assert parse_term("x*y") == parse_term("xy")
    assert parse_term("(x + y)z") == parse_term("xz + yz")
    assert parse_term("(xy)^2") == parse_term("xyxy")


def test_parse_errors_carry_positions():
    with pytest.raises(TermSyntaxError):
        parse_term("x^0")
    with pytest.raises(TermSyntaxError):
        parse_term("x +")
    with pytest.raises(TermSyntaxError):
        parse_term("(x + y")
    with pytest.raises(TermSyntaxError):
        parse_identity("x + y")
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("x ? y")
    assert exc.value.position == 2


def test_parse_bounds():
    from aisemiring.terms import MAX_TERM_DEPTH, MAX_TERM_WORDS, MAX_WORD_LENGTH

    assert parse_term("(" * MAX_TERM_DEPTH + "x" + ")" * MAX_TERM_DEPTH) == parse_term("x")
    with pytest.raises(TermSyntaxError):
        parse_term("(" * (MAX_TERM_DEPTH + 1) + "x" + ")" * (MAX_TERM_DEPTH + 1))
    with pytest.raises(TermSyntaxError):
        parse_term("(" * 2000 + "x" + ")" * 2000)
    assert len(parse_term("(x + y)^12")) == 4096 <= MAX_TERM_WORDS
    with pytest.raises(TermSyntaxError):
        parse_term("(x + y)^18")
    with pytest.raises(TermSyntaxError):
        parse_term(" + ".join(f"x{i}" for i in range(MAX_TERM_WORDS + 1)))
    assert len(parse_term(f"x^{MAX_WORD_LENGTH}").words[0]) == MAX_WORD_LENGTH
    for text in (f"x^{MAX_WORD_LENGTH + 1}", "x^" + "9" * 5000, f"(xy)^{MAX_WORD_LENGTH // 2 + 1}"):
        with pytest.raises(TermSyntaxError):
            parse_term(text)
    for not_text in (5, [0], None):
        with pytest.raises(TypeError):
            parse_term(not_text)


def test_identity_separators():
    assert parse_identity("x = y") == parse_identity("x ≈ y")


def test_greedy_tokenization():
    assert parse_term("x1x2") == Term((Word(("x1", "x2")),))
    assert parse_term("xy") == Term((Word(("x", "y")),))


def test_sum_product_examples():
    assert parse_term("x + y") * parse_term("z") == parse_term("xz + yz")
    assert parse_term("x") * parse_term("y + z") + parse_term("w") == parse_term("xy + xz + w")
    assert parse_term("x") + parse_term("x") == parse_term("x")


def test_substitute():
    t = parse_term("xy")
    out = substitute(t, {"x": parse_term("a + b"), "y": parse_term("c")})
    assert out == parse_term("ac + bc")
    assert substitute(t, {"x": parse_term("x"), "y": parse_term("y")}) == t
    assert substitute(parse_term("x^2"), {"x": parse_term("y + z")}) == parse_term("yy + yz + zy + zz")
    with pytest.raises(KeyError):
        substitute(t, {"x": parse_term("a")})
    # images are held to the parse bounds
    with pytest.raises(ValueError, match="more than 4096 summands"):
        substitute(parse_term("x^13"), {"x": parse_term("a + b")})
    with pytest.raises(ValueError, match="longer than 1024"):
        substitute(parse_term("x^2"), {"x": parse_term("a^600")})
    assert len(substitute(parse_term("x^12"), {"x": parse_term("a + b")})) == 4096


def test_empty_rejections():
    with pytest.raises(ValueError):
        Word(())
    with pytest.raises(ValueError):
        Term(())


@given(terms, terms, terms)
@settings(max_examples=150, deadline=None)
def test_term_algebra_laws(a, b, c):
    assert a + b == b + a
    assert a + a == a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(small_terms, small_terms, st.dictionaries(letters, small_terms, min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_substitute_is_a_homomorphism(a, b, sigma):
    assert substitute(a + b, sigma) == substitute(a, sigma) + substitute(b, sigma)
    assert substitute(a * b, sigma) == substitute(a, sigma) * substitute(b, sigma)


@given(terms)
@settings(max_examples=200)
def test_parse_print_roundtrip(t):
    assert parse_term(str(t)) == t


@given(terms, terms)
@settings(max_examples=100)
def test_identity_roundtrip(lhs, rhs):
    identity = Identity(lhs, rhs)
    assert parse_identity(str(identity)) == identity
