"""Words, terms as finite word sets, identities and parsing.

A word is the nonempty tuple of its letters, and a term, a nonempty finite
set of words, is the tuple of its distinct words sorted: one normal form,
built in one place, ``Term.__new__``.  Sum is union, product is pairwise
concatenation.  Every identity between terms reduces to a family of
"simple" identities u = u + q with q a single word.

Parsing reads a flat side, a sum of products of variables each with at most
one exponent and no parentheses, with regular expressions alone; the
identities a basis check reads are almost all flat.  A summand without '^'
is one ``findall`` of its letters, and only a summand with '^' is read
(variable, exponent) pair by pair.  Every other text, and flat text past a
bound, goes to the recursive-descent ``_Parser``, which gives every syntax
error and its position.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence


class TermSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnboundVariableError(KeyError):
    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class Word(tuple):
    """A word: the nonempty tuple of its letters, each a variable identifier,
    and it equals, hashes and orders as that tuple.  ``word`` reads text.
    Read it as the tuple it is: ``w[0]``, ``w[-1]``, ``frozenset(w)``.
    ``letters``, like ``Term.words``, is the value itself, kept because the
    benchmark harness reads both."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[str]) -> "Word":
        if isinstance(letters, str):
            raise TypeError(f"a Word is built from a tuple of letters; use word({letters!r}) for text")
        w = tuple.__new__(cls, letters)
        if not w:
            raise ValueError("words must be nonempty")
        return w

    def __mul__(self, other: "Word") -> "Word":
        return tuple.__new__(Word, tuple.__add__(self, other))  # nonempty: no check

    def __add__(self, other):  # refuse tuple concatenation: a sum of words is a Term
        return NotImplemented

    def __rmul__(self, other):  # refuse tuple repetition: 3 * w is no word product
        return NotImplemented

    @property
    def letters(self) -> "Word":
        """The word itself, the tuple of its letters."""
        return self

    def reverse(self) -> "Word":
        return Word(self[::-1])

    def __repr__(self) -> str:
        return f"Word(letters={tuple(self)!r})"

    def __str__(self) -> str:
        out = []
        for letter, run in itertools.groupby(self):
            k = len(list(run))
            out.append(letter if k == 1 else f"{letter}^{k}")
        return "".join(out)


def word(text: str) -> Word:
    """Build a word from juxtaposed variables, e.g. ``word("xy^2")``."""
    t = parse_term(text)
    if len(t) != 1:
        raise ValueError(f"{text!r} is a sum, not a single word")
    return t[0]


class Term(tuple):
    """A nonempty finite set of words: the tuple of its distinct words sorted,
    and it equals, hashes and orders as that tuple.  ``parse_term`` reads text.
    Like a word it holds nothing else: the criteria keep their base for the
    term being judged, and judging another term in between rebuilds it."""

    __slots__ = ()

    def __new__(cls, words: Iterable[Word]) -> "Term":
        summands = set(words)
        if not summands:
            raise ValueError("terms must have at least one summand")
        for w in summands:
            if not isinstance(w, Word):
                raise TypeError(f"a Term's summands are Words, got {w!r}; use parse_term for text")
        return tuple.__new__(cls, sorted(summands))

    def __add__(self, other: tuple[Word, ...]) -> "Term":
        if isinstance(other, Word):  # a Word is a tuple of letters, not of summands
            return NotImplemented
        return Term(tuple.__add__(self, other))

    def __mul__(self, other: "Term") -> "Term":
        return Term([a * b for a in self for b in other])

    def __rmul__(self, other):  # refuse tuple repetition: 3 * t is no term product
        return NotImplemented

    @property
    def words(self) -> "Term":
        """The term itself, the tuple of its words."""
        return self

    @property
    def variables(self) -> frozenset[str]:
        return frozenset().union(*self)

    def reverse(self) -> "Term":
        return Term([w.reverse() for w in self])

    def __repr__(self) -> str:
        return f"Term(words={tuple(self)!r})"

    def __str__(self) -> str:
        return " + ".join(map(str, self))


class Identity(NamedTuple):
    lhs: Term
    rhs: Term

    @property
    def variables(self) -> frozenset[str]:
        return self.lhs.variables | self.rhs.variables

    def reverse(self) -> "Identity":
        return Identity(self.lhs.reverse(), self.rhs.reverse())

    def __str__(self) -> str:
        return f"{self.lhs} ≈ {self.rhs}"


@dataclass(frozen=True)
class SimpleIdentity:
    """The identity u ≈ u + q for a term u and a single extra word q.

    A dataclass, not a NamedTuple like the other records: the criteria read
    its fields on every call, and Python 3.11 reads a dataclass field faster."""

    base: Term
    extra: Word

    def as_identity(self) -> Identity:
        return Identity(self.base, self.base + (self.extra,))

    def reverse(self) -> "SimpleIdentity":
        return SimpleIdentity(self.base.reverse(), self.extra.reverse())

    def __str__(self) -> str:
        return str(self.as_identity())


def bounded_product(a: Term, b: Term) -> Term:
    """a * b; ValueError if it would have more than MAX_TERM_WORDS summands or
    a word longer than MAX_WORD_LENGTH letters."""
    _check_bounds(len(a) * len(b), max(map(len, a)) + max(map(len, b)))
    return a * b


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Homomorphic extension of a variable assignment to terms.

    The image is held to the parse bounds: ValueError if it would have more
    than MAX_TERM_WORDS summands or a word longer than MAX_WORD_LENGTH letters.
    """
    missing = t.variables - set(mapping)
    if missing:
        raise UnboundVariableError(f"no image for {sorted(missing)}")
    out: Optional[Term] = None
    for w in t:
        img: Optional[Term] = None
        for letter in w:
            img = mapping[letter] if img is None else bounded_product(img, mapping[letter])
        if out is not None:
            _check_bounds(len(out) + len(img), 0)
        out = img if out is None else out + img
    return out


# ---------------------------------------------------------------------------
# parsing

# Bounds on what one parse may build, so that hostile text fails fast with a
# TermSyntaxError instead of exhausting the stack or memory.
MAX_TERM_DEPTH = 100  # nested parentheses
MAX_TERM_WORDS = 4096  # summands of any (sub)term before deduplication
MAX_WORD_LENGTH = 1024  # letters in one word

_TOKEN = re.compile(r"(?P<var>[A-Za-z][0-9]*)|(?P<num>[0-9]+)|(?P<op>[+*^()=])|(?P<approx>≈)")

# A flat side: variables, each with at most one exponent of 1-9999 written
# without a leading zero, joined by juxtaposition or one '*' or '+'.  A
# separator is a whitespace run, then an optional operator with the run after
# it, so a failed match tries each run once; '\s*[*+]?\s*' would try every
# split of every run, exponentially many over a long text.
_FLAT_FACTOR = r"[A-Za-z][0-9]*(?:\s*\^\s*[1-9][0-9]{0,3})?"
_FLAT_SIDE = re.compile(rf"\s*{_FLAT_FACTOR}(?:\s*(?:[*+]\s*)?{_FLAT_FACTOR})*\s*")
_FLAT_POWERS = re.compile(r"([A-Za-z][0-9]*)(?:\s*\^\s*([0-9]+))?")  # (variable, exponent) pairs
_FLAT_LETTERS = re.compile(r"[A-Za-z][0-9]*")  # the letters of a summand without '^'


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    if not isinstance(text, str):
        raise TypeError(f"terms are written as text, got {text!r}")
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise TermSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens of one text.

    Every (sub)term it holds is a tuple of distinct letter tuples; the
    ``Word``s and the ``Term`` are built once per side, by ``_parsed_term``.
    Repeats merge where ``Term`` would merge them, so every count
    ``_check_size`` sees is the summand count of the ``Term`` that (sub)term
    stands for.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def term(self) -> tuple[tuple[str, ...], ...]:
        words = list(self.product())
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "+":
                self.take()
                words.extend(self.product())
                _check_size(len(words), 0, pos)
            else:
                return tuple(dict.fromkeys(words))

    def product(self) -> tuple[tuple[str, ...], ...]:
        out = None
        while True:
            kind, value, pos = self.peek()
            if kind == "var" or (kind == "op" and value == "("):
                factor, factor_length = self.factor()
                if out is None:
                    out, length = factor, factor_length
                else:
                    length += factor_length
                    _check_size(len(out) * len(factor), length, pos)
                    out = _times(out, factor)
            elif kind == "op" and value == "*":
                if out is None:
                    raise TermSyntaxError("'*' needs a left factor", pos)
                self.take()
            else:
                if out is None:
                    raise TermSyntaxError("expected a variable or '('", pos)
                return out

    def factor(self) -> tuple[tuple[tuple[str, ...], ...], int]:
        """The next factor and the length of its longest word."""
        kind, value, pos = self.take()
        if kind == "var":
            base, length = ((value,),), 1
        else:  # product calls this only at a variable or '('
            self.depth += 1
            if self.depth > MAX_TERM_DEPTH:
                raise TermSyntaxError(f"parentheses nest deeper than {MAX_TERM_DEPTH}", pos)
            base = self.term()
            length = max(map(len, base))
            self.depth -= 1
            kind, value, pos = self.take()
            if not (kind == "op" and value == ")"):
                raise TermSyntaxError("expected ')'", pos)
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
                _check_size(len(base) ** k, length * k, pos)
                power = base
                for _ in range(k - 1):
                    power = _times(power, base)
                base, length = power, length * k
            else:
                return base, length


def _times(a: tuple[tuple[str, ...], ...], b: tuple[tuple[str, ...], ...]) -> tuple[tuple[str, ...], ...]:
    """Pairwise concatenation of two parsed (sub)terms, repeats merged."""
    return tuple(dict.fromkeys(x + y for x in a for y in b))


def _flat_side(text: str) -> Optional[list[list[str]]]:
    """The letter lists of the words of a flat side, or None for any text
    ``_Parser`` must read.

    That is every text with parentheses, a repeated or trailing operator, a
    second exponent, an exponent that is zero or has a leading zero, and
    every text past a bound, so that ``_Parser`` raises each error.  A
    summand without '^' is read by one ``findall`` of its letters.
    """
    if not _FLAT_SIDE.fullmatch(text):
        return None
    summands = text.split("+")
    if len(summands) > MAX_TERM_WORDS:
        return None
    words = []
    for summand in summands:
        if "^" in summand:
            letters = []
            for variable, exponent in _FLAT_POWERS.findall(summand):
                if exponent:  # checked before the repeat: only letters written out pass the bound
                    if len(letters) + int(exponent) > MAX_WORD_LENGTH:
                        return None
                    letters += [variable] * int(exponent)
                else:
                    letters.append(variable)
        else:
            letters = _FLAT_LETTERS.findall(summand)
        if len(letters) > MAX_WORD_LENGTH:
            return None
        words.append(letters)
    return words


def _check_size(words: int, length: int, pos: int) -> None:
    try:
        _check_bounds(words, length)
    except ValueError as exc:
        raise TermSyntaxError(str(exc), pos) from None


def _check_bounds(words: int, length: int) -> None:
    if words > MAX_TERM_WORDS:
        raise ValueError(f"term has more than {MAX_TERM_WORDS} summands")
    if length > MAX_WORD_LENGTH:
        raise ValueError(f"word longer than {MAX_WORD_LENGTH} letters")


def _parsed_term(words: Iterable[Sequence[str]]) -> Term:
    """The term of parsed letter tuples or lists; the parsers make no empty word."""
    return Term([tuple.__new__(Word, w) for w in words])


def split_top_level(text: str, sep: str) -> list[str]:
    """Split ``text`` at each ``sep`` outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_term(text: str) -> Term:
    if isinstance(text, str):
        words = _flat_side(text)
        if words is not None:
            return _parsed_term(words)
    p = _Parser(text)
    t = p.term()
    kind, _, pos = p.peek()
    if kind != "end":
        raise TermSyntaxError("trailing input after term", pos)
    return _parsed_term(t)


def parse_identity(text: str) -> Identity:
    if isinstance(text, str):
        sides = text.replace("≈", "=").split("=")
        if len(sides) == 2:
            lhs, rhs = map(_flat_side, sides)
            if lhs is not None and rhs is not None:
                return Identity(_parsed_term(lhs), _parsed_term(rhs))
    p = _Parser(text)
    lhs = p.term()
    kind, value, pos = p.take()
    if not (kind == "approx" or (kind == "op" and value == "=")):
        raise TermSyntaxError("expected '≈' or '=' between the two sides", pos)
    rhs = p.term()
    kind, _, pos = p.peek()
    if kind != "end":
        raise TermSyntaxError("trailing input after identity", pos)
    return Identity(_parsed_term(lhs), _parsed_term(rhs))
