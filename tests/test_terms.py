import copy
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisemiring import criteria
from aisemiring import terms as terms_module
from aisemiring.terms import (
    MAX_TERM_DEPTH,
    MAX_TERM_WORDS,
    MAX_WORD_LENGTH,
    Identity,
    SimpleIdentity,
    Term,
    TermSyntaxError,
    UnboundVariableError,
    Word,
    _check_bounds,
    _tokenize,
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
    def position(text):
        with pytest.raises(TermSyntaxError) as exc:
            parse_term(text)
        return exc.value.position

    assert parse_term("(" * MAX_TERM_DEPTH + "x" + ")" * MAX_TERM_DEPTH) == parse_term("x")
    assert position("(" * (MAX_TERM_DEPTH + 1) + "x" + ")" * (MAX_TERM_DEPTH + 1)) == MAX_TERM_DEPTH
    assert position("(" * 2000 + "x" + ")" * 2000) == MAX_TERM_DEPTH
    assert len(parse_term("(x + y)^12")) == 4096 <= MAX_TERM_WORDS
    assert position("(x + y)^18") == len("(x + y)^")
    many = " + ".join(f"x{i}" for i in range(MAX_TERM_WORDS + 1))
    assert position(many) == many.rindex("+")
    assert len(parse_term(f"x^{MAX_WORD_LENGTH}").words[0]) == MAX_WORD_LENGTH
    for text in (f"x^{MAX_WORD_LENGTH + 1}", "x^" + "9" * 5000, f"(xy)^{MAX_WORD_LENGTH // 2 + 1}"):
        assert position(text) == text.index("^") + 1
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
    with pytest.raises(UnboundVariableError) as caught:
        substitute(t, {})
    assert str(caught.value) == "no image for ['x', 'y']"  # the message, not KeyError's repr of it
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


def test_term_normal_form_is_the_sorted_set_of_its_words():
    rng = random.Random(7)
    names = ["x", "y", "x1", "x10", "x2", "xy"]
    repeated = 0
    for _ in range(500):
        pool = [Word(tuple(rng.choices(names, k=rng.randint(1, 4)))) for _ in range(rng.randint(1, 6))]
        # draws from a small pool repeat words; rebuilt copies are equal but not the same objects
        words = [Word(tuple(list(w.letters))) for w in rng.choices(pool, k=rng.randint(1, 12))]
        repeated += len(set(words)) < len(words)
        assert Term(tuple(words)).words == tuple(sorted(set(words)))
    assert repeated > 250


def test_parsed_term_builds_the_term_the_constructors_build():
    # _parsed_term builds its Words with tuple.__new__, skipping Word's checks;
    # what it builds from letter tuples must be the Term built through Word,
    # to the type and order of its words
    rng = random.Random(12)
    names = ["x", "y", "x1", "x10", "x2", "xy"]
    repeated = 0
    for _ in range(500):
        pool = [tuple(rng.choices(names, k=rng.randint(1, 4))) for _ in range(rng.randint(1, 6))]
        words = [tuple(list(w)) for w in rng.choices(pool, k=rng.randint(1, 12))]
        repeated += len(set(words)) < len(words)
        built, reference = terms_module._parsed_term(words), Term(tuple(map(Word, words)))
        assert type(built) is Term and all(type(w) is Word for w in built.words)
        assert built == reference and hash(built) == hash(reference)
        assert repr(built) == repr(reference) and built.words == reference.words
        extra = Word(rng.choice([*pool, tuple(rng.choices(names, k=rng.randint(1, 4)))]))
        for name, judge in criteria.CRITERIA.items():
            assert judge(SimpleIdentity(built, extra)) == judge(SimpleIdentity(reference, extra)), name
    assert repeated > 250


def test_a_word_is_the_tuple_of_its_letters():
    xy = Word(("x", "y"))
    assert repr(xy) == "Word(letters=('x', 'y'))" and str(Word(("x", "x", "y1"))) == "x^2y1"
    assert isinstance(xy, tuple) and not hasattr(xy, "__dict__") and xy.letters is xy
    assert xy == ("x", "y") and hash(xy) == hash(("x", "y"))
    # ordered as letter tuples: a prefix first, then letter by letter
    shuffled = [Word(("y",)), Word(("x1",)), xy, Word(("x",))]
    assert sorted(shuffled) == [Word(("x",)), xy, Word(("x1",)), Word(("y",))]
    product = xy * Word(("z",))
    assert type(product) is Word and product == ("x", "y", "z")
    with pytest.raises(TypeError):
        xy + xy  # a sum of words is a Term
    with pytest.raises(ValueError):
        Word([])
    copy = pickle.loads(pickle.dumps(xy))
    assert type(copy) is Word and copy == xy


def test_a_word_is_not_repeated_by_an_int():
    xy = Word(("x", "y"))
    for product in (lambda: 3 * xy, lambda: xy * 3, lambda: True * xy):
        with pytest.raises(TypeError):
            product()
    assert xy * xy == Word(("x", "y", "x", "y"))


def test_a_word_refuses_text():
    # the characters of "x1" are not its letters: text goes through word()
    for text in ("xy", "x1"):
        with pytest.raises(TypeError, match=r"word\('"):
            Word(text)
    assert word("x1") == Word(("x1",)) and word("xy") == Word(("x", "y"))


def test_a_term_is_the_sorted_tuple_of_its_words(monkeypatch):
    x, xy, z = Word(("x",)), Word(("x", "y")), Word(("z",))
    t = Term((xy, x, xy))
    assert isinstance(t, tuple) and t.words is t and len(t) == 2 and xy in t
    assert t == (x, xy) and hash(t) == hash((x, xy)) and t != (xy, x)
    assert repr(t) == "Term(words=(Word(letters=('x',)), Word(letters=('x', 'y'))))" and str(t) == "x + xy"
    # ordered as word tuples
    assert sorted([Term((z,)), t, Term((x,))]) == [Term((x,)), t, Term((z,))]
    # a sum is the union, with a Term or with a tuple of Words
    for other in (Term((z, x)), (z, x)):
        total = t + other
        assert type(total) is Term and total == (x, xy, z)
    product = t * Term((z, x))
    assert type(product) is Term and product == parse_term("xx + xz + xyx + xyz")
    for refused in (lambda: t + z, lambda: 3 * t, lambda: t * 3, lambda: True * t):
        with pytest.raises(TypeError):
            refused()
    copy = pickle.loads(pickle.dumps(t))
    assert type(copy) is Term and copy == t and all(type(w) is Word for w in copy)
    # the criteria build a term's base once per run of that term, matched by identity
    built = []
    monkeypatch.setattr(criteria, "_Base", lambda u: built.append(u) or object())
    monkeypatch.setattr(criteria, "_kept", (None, None))
    u, equal = parse_term("xy + z"), parse_term("z + xy")
    first = criteria._base(u)
    assert criteria._base(u) is first and criteria._base(equal) is not first
    assert [id(b) for b in built] == [id(u), id(equal)]


def test_a_copied_term_holds_its_words_alone():
    t = parse_term("xy + z")
    criteria._base(t)
    assert not hasattr(t, "__dict__")
    for copied in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert type(copied) is Term and copied == t and all(type(w) is Word for w in copied)
    assert len(pickle.dumps(t)) < 100


def test_a_term_refuses_summands_that_are_not_words():
    # text and plain letter tuples go through parse_term or Word
    for summands in (("xy",), (("x", "y"),), (Word(("x",)), "y")):
        with pytest.raises(TypeError, match="parse_term"):
            Term(summands)
    assert Term((Word(("x", "y")),)) == parse_term("xy")


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


# ---------------------------------------------------------------------------
# the parser against a reference that builds a Term for every factor and
# multiplies Terms pairwise: every Term, error message and position must agree


class _ReferenceParser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def term(self):
        out = self.product()
        words = list(out.words)
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "+":
                self.take()
                words.extend(self.product().words)
                _reference_check_size(len(words), 0, pos)
            else:
                return out if len(words) == len(out.words) else Term(tuple(words))

    def product(self):
        out = None
        while True:
            kind, value, pos = self.peek()
            if kind == "var" or (kind == "op" and value == "("):
                factor, factor_length = self.factor()
                if out is None:
                    out, length = factor, factor_length
                else:
                    length += factor_length
                    if length > MAX_WORD_LENGTH or len(factor.words) > 1:
                        _reference_check_size(len(out.words) * len(factor.words), length, pos)
                    out = out * factor
            elif kind == "op" and value == "*":
                if out is None:
                    raise TermSyntaxError("'*' needs a left factor", pos)
                self.take()
            else:
                if out is None:
                    raise TermSyntaxError("expected a variable or '('", pos)
                return out

    def factor(self):
        kind, value, pos = self.take()
        if kind == "var":
            base, length = Term((Word((value,)),)), 1
        elif kind == "op" and value == "(":
            self.depth += 1
            if self.depth > MAX_TERM_DEPTH:
                raise TermSyntaxError(f"parentheses nest deeper than {MAX_TERM_DEPTH}", pos)
            base = self.term()
            length = max(len(w.letters) for w in base.words)
            self.depth -= 1
            kind, value, pos = self.take()
            if not (kind == "op" and value == ")"):
                raise TermSyntaxError("expected ')'", pos)
        else:
            raise TermSyntaxError("expected a variable or '('", pos)
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "^":
                self.take()
                kind, value, pos = self.take()
                if kind != "num":
                    raise TermSyntaxError("expected digits after '^'", pos)
                if len(value) > len(str(MAX_WORD_LENGTH)) or int(value) > MAX_WORD_LENGTH:
                    raise TermSyntaxError(f"exponent above {MAX_WORD_LENGTH}", pos)
                k = int(value)
                if k < 1:
                    raise TermSyntaxError("exponent would make an empty word", pos)
                _reference_check_size(len(base.words) ** k, length * k, pos)
                power = base
                for _ in range(k - 1):
                    power = power * base
                base, length = power, length * k
            else:
                return base, length


def _reference_check_size(words, length, pos):
    try:
        _check_bounds(words, length)
    except ValueError as exc:
        raise TermSyntaxError(str(exc), pos) from None


def _reference_parse(text, identity=False):
    p = _ReferenceParser(text)
    lhs = p.term()
    if identity:
        kind, value, pos = p.take()
        if not (kind == "approx" or (kind == "op" and value == "=")):
            raise TermSyntaxError("expected '≈' or '=' between the two sides", pos)
        rhs = p.term()
    kind, _, pos = p.peek()
    if kind != "end":
        raise TermSyntaxError(f"trailing input after {'identity' if identity else 'term'}", pos)
    return Identity(lhs, rhs) if identity else lhs


def _reference_word(text):
    t = _reference_parse(text)
    if len(t.words) != 1:
        raise ValueError(f"{text!r} is a sum, not a single word")
    return t.words[0]


def _outcome(parse, text):
    try:
        return "parsed", parse(text)
    except TermSyntaxError as exc:
        return "syntax", str(exc), exc.position
    except (TypeError, ValueError) as exc:
        return type(exc).__name__


def _assert_parsers_agree(text):
    assert _outcome(parse_term, text) == _outcome(_reference_parse, text)
    assert _outcome(parse_identity, text) == _outcome(lambda t: _reference_parse(t, identity=True), text)
    assert _outcome(word, text) == _outcome(_reference_word, text)


_TOKENS = ["x", "y", "z", "x1", "x12", "(", ")", "+", "*", "^", "0", "1", "2", "13", "=", "≈", " ", "?"]
# token soup is mostly malformed, so well-formed terms and identities are drawn too
_term_texts = st.recursive(
    st.sampled_from(["x", "y", "z", "x1", "x12"]),
    lambda inner: st.one_of(
        st.builds("{} + {}".format, inner, inner),
        st.builds("{}{}".format, inner, inner),
        st.builds("{} * {}".format, inner, inner),
        st.builds("({})^{}".format, inner, st.sampled_from(["1", "2", "3", "13"])),
    ),
    max_leaves=8,
)
_texts = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join),
    _term_texts,
    st.builds("{}{}{}".format, _term_texts, st.sampled_from([" = ", "≈"]), _term_texts),
)
# parenthesis-free text: plain text the regular-expression path reads, and
# text at every edge where that path must leave the text to the parser
_SPACE = st.text(" \t\xa0\x1c", max_size=2)


def _flat_texts(names, exponents, powers, ops, ends):
    factor = st.builds(
        lambda name, ks: name + "".join(f"{a}^{b}{k}" for a, b, k in ks),
        st.sampled_from(names),
        st.lists(st.tuples(_SPACE, _SPACE, st.sampled_from(exponents)), max_size=powers),
    )
    side = st.builds(
        lambda first, rest, end: first + "".join(a + op + b + f for a, op, b, f in rest) + end,
        factor,
        st.lists(st.tuples(_SPACE, st.sampled_from(ops), _SPACE, factor), max_size=6),
        st.sampled_from(ends),
    )
    return st.one_of(side, st.builds("{}{}{}{}{}".format, side, _SPACE, st.sampled_from(["=", "≈"]), _SPACE, side))


_NAMES = ["x", "y", "z", "x1", "x12"]
_plain_flat_texts = _flat_texts(_NAMES, ["1", "2", "3", "13", "1024"], 1, ["", "*", "+"], ["", " "])
_edge_flat_texts = _flat_texts(
    _NAMES + ["2"],  # a bare "2" after "x1 " writes "x1 2"
    ["2", "0", "01", "1024", "1025", "00001"],
    2,  # x^2^3
    ["", "*", "+", "**", "*+", "+*"],
    ["", "*", "\t*", "**", "+"],
)
_HOSTILE = [
    "x^1024 x",
    "x^1025",
    "(x + y)^12",
    "(x + y)^13",
    "(xx + x)(x + xx)^11",
    "x^1000 (x + y) y^30",
    "(" * 100 + "x" + ")" * 100,
    "(" * 101 + "x" + ")" * 101,
    " + ".join(f"x{i}" for i in range(4097)),
    "x" * 1025,
    "(x + x)^13",  # a sum counts its summands after repeats merge
    "(x + xx)^12 (x + y)",  # so does a product
    5,
    None,
    " + ".join(f"x{i}" for i in range(4096)),  # flat text at the bounds
    "x" * 1024,
    "x^1000" * 2000,  # flat text whose word would pass the bound by 2e6 letters
    "x^9999" * 2000,  # or by 2e7
    "(x)" + "x" * 1023,  # one word through the token parser, at the word bound
    "(x)" + "x" * 1024,  # and one past it
]


@given(_texts)
@settings(max_examples=500, deadline=None)
def test_parser_matches_reference(text):
    _assert_parsers_agree(text)


@given(st.one_of(_plain_flat_texts, _edge_flat_texts))
@settings(max_examples=500, deadline=None)
def test_parser_matches_reference_on_flat_text(text):
    _assert_parsers_agree(text)


def test_flat_text_never_reaches_the_parser(monkeypatch):
    class Refused(Exception):
        pass

    def refuse(text):
        raise Refused(text)

    monkeypatch.setattr(terms_module, "_Parser", refuse)
    bqx6 = Word(("b", "q", "x6"))
    assert parse_identity("bqx6 ≈\tb * q*x6^2 + e") == Identity(
        Term((bqx6,)), Term((Word(("b", "q", "x6", "x6")), Word(("e",))))
    )
    assert parse_term(" x^3 y + x1 ") == Term((Word(("x", "x", "x", "y")), Word(("x1",))))
    assert word("xy^2") == Word(("x", "y", "y"))
    for text in ("(b)q x6 = bqx6 + e", "x^2^3 = x", "x = y = z", "x^01 = x", "x +"):
        with pytest.raises(Refused):
            parse_identity(text)
    with pytest.raises(Refused):
        parse_term("(x + y)z")


@pytest.mark.parametrize("power", ["x^1000", "x^9999"])
def test_flat_text_past_the_word_bound_builds_no_long_word(power):
    # the word would hold millions of letters, tens of MB of references
    tracemalloc.start()
    try:
        with pytest.raises(TermSyntaxError):
            parse_term(power * 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("text", _HOSTILE, ids=range(len(_HOSTILE)))
def test_parser_matches_reference_on_hostile_text(text):
    for candidate in (text, f"{text} = x", f"x ≈ {text}") if isinstance(text, str) else (text,):
        _assert_parsers_agree(candidate)
