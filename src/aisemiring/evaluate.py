"""Semantic identity satisfaction by exhaustive evaluation.

Satisfaction is exact: every assignment of elements to variables is decided,
none is sampled, and an identity whose n**k assignments (n elements, k
variables) exceed the budget is refused before any search; the budget is set
on ``counterexample`` and is DEFAULT_BUDGET unless given.  Witnesses are
always the lexicographically first failing assignment (variables sorted by
name, element indices ascending), so results are deterministic and
schedule-independent.

``counterexample`` searches depth-first over the variables in sorted order,
trying values in ascending order, so the first failure it meets is the
lexicographically first one.  Assigning a variable puts its value into every
word and multiplies out each run of assigned letters; a side is then the set
of its reduced words, since addition is idempotent.  A subtree whose two sides
reduce to the same set cannot fail and is skipped.  The last ``tail``
variables, the most whose n**tail assignments fit in BLOCK_BITS (at least
one), are decided as one block: each side becomes n bitmasks in
``BulkEvaluator``'s layout over those assignments, built from the masks of
its words, and the lowest set bit of the OR over e of L[e] ^ R[e] is the
first failing assignment, read in base n.

At every depth below the first, the block depth included, a state whose
subtree held is remembered by its depth and its two sides, so an identical
state under another prefix is skipped.  Only states that held are skipped, so
the first failure met is still the first.  The memo lives for one call and
keeps at most MEMO_LETTERS letters: a state never has more letters than the
identity, so the memo stops taking entries after
MEMO_LETTERS // (letters of the identity) of them.  Without that bound an
identity whose assigned letters stay apart, such as
``x01 x09 x02 x09 ... x08 x09`` against its reverse, leaves nearly every node
of the search in the memo.  The masks of each word at the block depth are kept
for the call as well, keyed by the word alone, since the letters left there
are always the block's; that cache counts each stored word at its size, its
letters plus n masks of n**tail bits each, and takes at most MEMO_LETTERS
such letters.

``BulkEvaluator`` decides many identities ``u ≈ u + q`` over one variable
pool.  It holds a word or term as n bitmasks over the assignment space, one
per element: bit i of the mask for element e is set iff the word takes the
value e at the i-th assignment in lexicographic order.  Products, sums and
the absorption test are then a few integer ANDs and ORs per pair of elements.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from .core import FiniteAiSemiring, Table
from .terms import Identity, Term, Word

DEFAULT_BUDGET = 10_000_000
MEMO_LETTERS = 1 << 16  # letters of word states one call may keep in its memo
BLOCK_BITS = 1 << 10  # most assignments of the last variables decided as one block


class BudgetExceededError(RuntimeError):
    """The assignment space is larger than the exhaustive-evaluation budget."""


class UnassignedVariableError(KeyError):
    __str__ = Exception.__str__  # the message, not KeyError's repr of it


def eval_word(S: FiniteAiSemiring, w: Word, assignment: Mapping[str, int]) -> int:
    try:
        acc = assignment[w.letters[0]]
        for x in w.letters[1:]:
            acc = S.mul[acc][assignment[x]]
    except KeyError as exc:
        raise UnassignedVariableError(f"variable {exc.args[0]!r} has no value") from None
    return acc


def eval_term(S: FiniteAiSemiring, t: Term, assignment: Mapping[str, int]) -> int:
    acc = eval_word(S, t.words[0], assignment)
    for w in t.words[1:]:
        acc = S.add[acc][eval_word(S, w, assignment)]
    return acc


def _reduce(term: frozenset, var: int, value: int, add: Table, mul: Table, n: int) -> frozenset:
    """Put ``value`` in for the letter ``var`` in each word of ``term``.

    A word is a tuple whose entries below ``n`` are elements and whose other
    entries are letters not yet assigned.  Each run of adjacent elements is
    multiplied out, and the words that became one element are summed into a
    single word, so partial terms that must agree get equal states.
    """
    out = []
    const = -1
    for w in term:
        if var in w:
            reduced = []
            acc = -1
            for x in w:
                if x == var:
                    x = value
                if x < n:
                    acc = x if acc < 0 else mul[acc][x]
                else:
                    if acc >= 0:
                        reduced.append(acc)
                        acc = -1
                    reduced.append(x)
            if not reduced:
                const = acc if const < 0 else add[const][acc]
                continue
            if acc >= 0:
                reduced.append(acc)
            w = tuple(reduced)
        elif len(w) == 1 and w[0] < n:
            const = w[0] if const < 0 else add[const][w[0]]
            continue
        out.append(w)
    if const >= 0:
        out.append((const,))
    return frozenset(out)


@lru_cache(maxsize=32)
def _variable_masks(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The masks of k variables over their n**k assignments in lexicographic
    order (the first variable varies slowest): entry i holds, for each value
    v, the mask of the assignments that give variable i the value v.

    Variable i is v in a run of ``period`` = n**(k-i-1) assignments at
    v * period in each of the n**i blocks of n * period assignments.
    ``spread`` has one bit at the start of each block, so the runs are
    (2**period - 1) * spread, shifted by v * period.
    """
    masks = []
    spread = 1
    for i in range(k):
        period = n ** (k - i - 1)
        if i:
            spread = sum(spread << (t * n * period) for t in range(n))
        runs = (spread << period) - spread
        masks.append(tuple(runs << (v * period) for v in range(n)))
    return tuple(masks)


def _sparse_combine(table: Table, A: Sequence[int], B: Sequence[int], n: int) -> list[int]:
    """The masks of A*B (or A+B) for ``table`` the multiplication (or the
    addition), looping only over the pairs of nonzero masks."""
    out = [0] * n
    nonzero = [(b, mb) for b, mb in enumerate(B) if mb]
    for a, m in enumerate(A):
        if m:
            row = table[a]
            for b, mb in nonzero:
                out[row[b]] |= m & mb
    return out


def _column(
    term: frozenset, block: dict, full: int, add: Table, mul: Table, n: int, words: dict, room: int
) -> list[int]:
    """The n masks of ``term``, whose letters are all in ``block``, over the
    assignments to those letters: bit i of entry e is set iff the term is e
    at the i-th assignment.  ``block`` maps each letter to its masks and
    ``full`` has a bit for every assignment.  The masks of each word are
    looked up in ``words`` and, while it holds fewer than ``room`` words,
    stored there."""
    col = None
    for w in term:
        vec = words.get(w)
        if vec is None:
            first = w[0]
            if first < n:
                vec = [0] * n
                vec[first] = full
            else:
                vec = block[first]
            for x in w[1:]:
                if x < n:
                    out = [0] * n
                    for a, m in enumerate(vec):
                        if m:
                            out[mul[a][x]] |= m
                    vec = out
                else:
                    vec = _sparse_combine(mul, vec, block[x], n)
            if len(words) < room:
                words[w] = vec
        col = vec if col is None else _sparse_combine(add, col, vec, n)
    return col


def _first_failure(
    lhs: frozenset, rhs: frozenset, k: int, add: Table, mul: Table, n: int
) -> Optional[list[int]]:
    """The values of the lexicographically first assignment to the letters
    n..n+k-1 where the two sides differ, or None.

    The search keeps its path on an explicit stack, so the number of
    variables is not limited by the interpreter's recursion limit.
    """
    tail = 1
    while n ** (tail + 1) <= BLOCK_BITS:
        tail += 1
    top = max(k - tail, 0)  # the depth where the letters left are decided as one block
    block = dict(zip(range(n + top, n + k), _variable_masks(n, k - top)))
    full = (1 << n ** (k - top)) - 1  # a bit for each assignment in the block
    room = MEMO_LETTERS // (sum(map(len, lhs)) + sum(map(len, rhs)))  # memo entries allowed
    # a stored word costs its letters and n masks, each a pointer and an int
    # of at most ``full``'s size, counted in letters of 8 bytes
    vector_letters = n * (1 + (sys.getsizeof(full) + 7) // 8)
    word_room = MEMO_LETTERS // (vector_letters + max(map(len, lhs | rhs)))  # word masks allowed
    states = [(lhs, rhs)]
    values = [-1]  # the value tried at each depth of the current path
    held = set()  # (depth, lhs, rhs) of subtrees below the root without a failure
    words = {}  # the masks of each word at the block depth
    while states:
        d = len(states) - 1
        left, right = states[-1]
        if d == top:
            lcol = _column(left, block, full, add, mul, n, words, word_room)
            rcol = _column(right, block, full, add, mul, n, words, word_room)
            diff = 0
            for a, b in zip(lcol, rcol):
                diff |= a ^ b
            if diff:
                index = (diff & -diff).bit_length() - 1  # the first failing assignment
                digits = []
                for _ in range(k - top):
                    index, v = divmod(index, n)
                    digits.append(v)
                values[top:] = reversed(digits)
                return values
        else:
            v = values[-1] + 1
            if v < n:
                values[-1] = v
                var = n + d
                nleft = _reduce(left, var, v, add, mul, n)
                nright = _reduce(right, var, v, add, mul, n)
                if nleft != nright and (d + 1, nleft, nright) not in held:
                    states.append((nleft, nright))
                    values.append(-1)
                continue
        if d and len(held) < room:
            held.add((d, left, right))
        states.pop()
        values.pop()
    return None


def counterexample(
    S: FiniteAiSemiring, identity: Identity, budget: int = DEFAULT_BUDGET
) -> Optional[dict[str, int]]:
    """Lexicographically first failing assignment, or None if the identity holds."""
    lhs_words, rhs_words = identity.lhs.words, identity.rhs.words
    variables = sorted({x for w in lhs_words + rhs_words for x in w.letters})
    n, k = S.order, len(variables)
    if n ** k > budget:
        raise BudgetExceededError(
            f"{n}**{k} assignments exceed the budget of {budget}; refusing to sample"
        )
    if n == 1:  # one element satisfies every identity, however many variables
        return None
    letter = {x: n + i for i, x in enumerate(variables)}
    lhs = frozenset([tuple([letter[x] for x in w.letters]) for w in lhs_words])
    rhs = frozenset([tuple([letter[x] for x in w.letters]) for w in rhs_words])
    if lhs == rhs:
        return None
    values = _first_failure(lhs, rhs, k, S.add, S.mul, n)
    return None if values is None else dict(zip(variables, values))


def satisfies(S: FiniteAiSemiring, identity: Identity) -> bool:
    return counterexample(S, identity) is None


@dataclass(frozen=True)
class IdentityVerdict:
    identity: Identity
    holds: bool
    witness: Optional[dict[str, int]]

    def to_dict(self, S: FiniteAiSemiring) -> dict:
        witness = None if self.witness is None else {x: S.elements[v] for x, v in self.witness.items()}
        return {"identity": str(self.identity), "holds": self.holds, "witness": witness}


@dataclass(frozen=True)
class BasisReport:
    verdicts: tuple[IdentityVerdict, ...]

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in self.verdicts)


def check_basis(S: FiniteAiSemiring, identities: Iterable[Identity]) -> BasisReport:
    verdicts = []
    for identity in identities:
        witness = counterexample(S, identity)
        verdicts.append(IdentityVerdict(identity, witness is None, witness))
    return BasisReport(tuple(verdicts))


def _pairs_by_value(table: Table, n: int) -> list[list[tuple[int, int]]]:
    """The pairs (a, b) with table[a][b] == c, listed under c."""
    by_value = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            by_value[table[a][b]].append((a, b))
    return by_value


def _combine(pairs: list, A: tuple[int, ...], B: tuple[int, ...]) -> tuple[int, ...]:
    """The masks of A*B (or A+B) for the pairs of ``_pairs_by_value``."""
    out = []
    for ab in pairs:
        mask = 0
        for a, b in ab:
            mask |= A[a] & B[b]
        out.append(mask)
    return tuple(out)


class BulkEvaluator:
    """Evaluate many words of a fixed variable pool over all assignments at once.

    A vector is a tuple of n Python ints, one per element: bit i of the int
    for element e is set iff the word (or term) takes the value e at the i-th
    of the n**k assignments in lexicographic order (the first variable varies
    slowest), so every bit is set in exactly one of the n ints.  A product or
    a sum of two vectors costs n**2 ANDs and ORs of such ints, and
    ``absorbs`` at most n**2 ANDs.  Word vectors are memoized per word.
    Semantically identical to eval_word under every assignment, just batched.
    A pool whose n**k assignments exceed DEFAULT_BUDGET is refused before any
    column is built.
    """

    def __init__(self, S: FiniteAiSemiring, variables: Sequence[str]):
        self.S = S
        self.variables = tuple(variables)
        n = S.order
        k = len(self.variables)
        if n ** k > DEFAULT_BUDGET:
            raise BudgetExceededError(
                f"{n}**{k} assignments exceed the budget of {DEFAULT_BUDGET}"
            )
        self._mul_pairs = _pairs_by_value(S.mul, n)
        self._add_pairs = _pairs_by_value(S.add, n)
        # u ≈ u + q fails exactly where u is a and q is b for one of these pairs
        self._breaking = [(a, b) for a in range(n) for b in range(n) if S.add[a][b] != a]
        self._columns = dict(zip(self.variables, _variable_masks(n, k)))
        self._cache: dict[tuple[str, ...], tuple[int, ...]] = {}

    def word_vector(self, w: Word) -> tuple[int, ...]:
        cached = self._cache.get(w.letters)  # a tuple of str hashes faster than a Word
        if cached is not None:
            return cached
        acc = self._columns[w.letters[0]]
        for x in w.letters[1:]:
            acc = _combine(self._mul_pairs, acc, self._columns[x])
        self._cache[w.letters] = acc
        return acc

    def term_vector(self, t: Term) -> tuple[int, ...]:
        acc = self.word_vector(t.words[0])
        for w in t.words[1:]:
            acc = _combine(self._add_pairs, acc, self.word_vector(w))
        return acc

    def absorbs(self, base: tuple[int, ...], extra: tuple[int, ...]) -> bool:
        """True iff base + extra == base at every assignment, i.e. u ≈ u + q holds."""
        for a, b in self._breaking:
            if base[a] & extra[b]:
                return False
        return True
