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
one), are decided as one block.  Each side becomes one lane int over those
assignments: lane i, one byte wide (two or four above 16 elements), holds the
side's value at the i-th assignment in lexicographic order.  A product or a
sum of two lane ints is one table lookup per lane: for n <= 16 the lanes a, b
become the byte 16 * a + b of (A << 4) | B, and one ``bytes.translate``
through a 256-byte table maps every byte at once; wider lanes hold a * n + b
and look it up in the flat table.  An element c in a word is c times the
lane int with 1 in every lane.  The words both sides share are laned and
summed once, and each side adds only its own words (+ is a semilattice, so a
side is the sum of the two parts); in ``u ≈ u + q`` that is every word of u.
The lowest set bit of L ^ R lies in the first failing lane, whose index read
in base n is the first failing assignment.  What a block needs that depends
only on n and k (its depth, lane width and size, its letters' lane ints) is
built once per (n, k) and kept in a bounded cache.  The rest, the two lane
ops and the word lanes, lives in one call of ``counterexample``, and its
closure ``column`` lanes a term through it.  When every variable fits in
the block, the block is decided at once, with no search, memo or stack, and
its lane ints are keyed by the variable names, so the words are laned as
they are, with no relabeling.  Only the search relabels: it renames the
variables, in sorted order, to the ints n..n+k-1, so that ``_reduce`` can
tell a letter from an element.

At every depth below the first, the block depth included, a state whose
subtree held is remembered by its depth and its two sides, so an identical
state under another prefix is skipped.  Only states that held are skipped, so
the first failure met is still the first.  The memo lives for one call and
keeps at most MEMO_LETTERS letters: a state never has more letters than the
identity, so the memo stops taking entries after
MEMO_LETTERS // (letters of the identity) of them.  Without that bound an
identity whose assigned letters stay apart, such as
``x01 x09 x02 x09 ... x08 x09`` against its reverse, leaves nearly every node
of the search in the memo.  The word lanes, keyed by the word alone since
the letters left at the block depth are always the block's, count each
stored word at its letters plus a pointer and the lane int, and take at
most MEMO_LETTERS such letters.

``BulkEvaluator`` decides many identities ``u ≈ u + q`` over one variable
pool.  It holds a word or term as n bitmasks over the assignment space, one
per element: bit i of the mask for element e is set iff the word takes the
value e at the i-th assignment in lexicographic order.  Products, sums and
the absorption test are then a few integer ANDs and ORs per pair of elements.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterable, Mapping, Optional, Sequence

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
        acc = assignment[w[0]]
        for x in w[1:]:
            acc = S.mul[acc][assignment[x]]
    except KeyError as exc:
        raise UnassignedVariableError(f"variable {exc.args[0]!r} has no value") from None
    return acc


def eval_term(S: FiniteAiSemiring, t: Term, assignment: Mapping[str, int]) -> int:
    acc = eval_word(S, t[0], assignment)
    for w in t[1:]:
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


@lru_cache(maxsize=128)
def _block_context(n: int, k: int) -> tuple[int, int, int, int, dict, int]:
    """What a search over the letters n..n+k-1 on n elements needs of its
    block, the same for every identity: ``(top, width, size, ones, block,
    lane_letters)``.

    ``top`` is the depth where the letters left are decided as one block:
    they are the last ``tail``, the most whose n**tail assignments fit in
    BLOCK_BITS (at least one), or all k if there are fewer.  A lane int has
    a lane of ``width`` bytes for each of those assignments in lexicographic
    order (the first letter varies slowest), ``size`` bytes in all, and
    ``ones`` holds 1 in every lane.  ``block`` maps each block letter to its
    lane int: lane i holds the letter's value at the i-th assignment.  Calls
    share ``block`` and only read it.  A stored word lane costs its letters
    plus ``lane_letters`` letters of 8 bytes: a pointer and the lane int.

    An entry holds at most tail + 1 lane ints: 11 of 1 KB up to 16
    elements, 3 of 2 KB up to 32, two of 2n bytes up to 256, so the cache
    keeps at most 128 * 11 KB, about 1.4 MB, for orders up to 256.  Above
    256 elements an entry holds two lane ints of 4n bytes, far less than the
    n**2 cells of one table.  The element lanes c * ones are not kept: at 257
    elements they take 264 KB.
    """
    tail = 1
    while n ** (tail + 1) <= BLOCK_BITS:
        tail += 1
    top = max(k - tail, 0)
    count = n ** (k - top)  # assignments in the block, a lane each
    width = 1 if n <= 16 else 2 if n <= 256 else 4  # bytes per lane, enough for a pair
    size = width * count
    ones = int.from_bytes((1).to_bytes(width, "little") * count, "little")
    block = {}
    for j in range(k - top):
        period = n ** (k - top - j - 1)  # letter n + top + j is v in runs of this many assignments
        run = b"".join(v.to_bytes(width, "little") * period for v in range(n))
        block[n + top + j] = int.from_bytes(run * n ** j, "little")
    lane_letters = 1 + (sys.getsizeof((1 << 8 * size) - 1) + 7) // 8
    return top, width, size, ones, block, lane_letters


def _lane_op(table: Table, n: int, width: int, size: int) -> Callable[[int, int], int]:
    """The function that combines two lane ints of ``size`` bytes lane by
    lane through ``table``, the multiplication or the addition.

    With ``width`` 1 (n <= 16) the pair of lanes a, b becomes the byte
    16 * a + b, and one ``bytes.translate`` through a 256-byte table looks
    up every product at once.  Wider lanes hold the pair a * n + b, which is
    looked up in the flat table lane by lane.
    """
    if width == 1:
        T = bytes(16 - n).join(map(bytes, table)).ljust(256, b"\0")  # row a from byte 16 * a

        def op(A: int, B: int) -> int:
            return int.from_bytes(((A << 4) | B).to_bytes(size, "little").translate(T), "little")

    else:
        # the lanes as little-endian unsigned ints of standard size
        lanes = struct.Struct(f"<{size // width}{'H' if width == 2 else 'I'}")
        flat = list(chain.from_iterable(table))

        def op(A: int, B: int) -> int:
            pairs = lanes.unpack((A * n + B).to_bytes(size, "little"))
            return int.from_bytes(lanes.pack(*map(flat.__getitem__, pairs)), "little")

    return op


def _block_diff(left: frozenset, right: frozenset, column: Callable) -> int:
    """L ^ R for the lane ints L and R of two different sides over the block,
    so a lane is nonzero exactly where the sides differ.  The words the sides
    share are laned and summed once, and each side adds its own words: since
    + is a semilattice, a side is the sum of its shared and its own words.
    ``column(term, col)``, the lane int of ``term`` plus ``col`` (None for no
    words), is ``counterexample``'s closure over the call's lane context."""
    shared = column(left & right)
    return column(left - right, shared) ^ column(right - left, shared)


def _lane_values(diff: int, width: int, n: int, t: int) -> list[int]:
    """The values of the t block letters at the first lane where ``diff``,
    a lane int, is nonzero: its index read in base n."""
    index = ((diff & -diff).bit_length() - 1) // (8 * width)
    digits = []
    for _ in range(t):
        index, v = divmod(index, n)
        digits.append(v)
    return digits[::-1]


def counterexample(
    S: FiniteAiSemiring, identity: Identity, budget: int = DEFAULT_BUDGET
) -> Optional[dict[str, int]]:
    """Lexicographically first failing assignment, or None if the identity holds.

    The search keeps its path on an explicit stack, so the number of
    variables is not limited by the interpreter's recursion limit.
    """
    variables = sorted({x for side in (identity.lhs, identity.rhs) for w in side for x in w})
    n, k = S.order, len(variables)
    if n ** k > budget:
        raise BudgetExceededError(
            f"{n}**{k} assignments exceed the budget of {budget}; refusing to sample"
        )
    if n == 1:  # one element satisfies every identity, however many variables
        return None
    lhs, rhs = frozenset(identity.lhs), frozenset(identity.rhs)
    if lhs == rhs:
        return None
    add, mul = S.add, S.mul
    top, width, size, ones, block, lane_letters = _block_context(n, k)
    lane_mul, lane_add = _lane_op(mul, n, width, size), _lane_op(add, n, width, size)
    words = {}  # the lane int of each word at the block depth
    word_room = 0  # word lanes allowed; none are kept when the block is decided once

    def column(term: frozenset, col: Optional[int] = None) -> Optional[int]:
        """The lane int of ``term`` plus ``col``, if given, over the block
        letters; each word's lane int is kept in ``words`` while room is left."""
        for w in term:
            lane = words.get(w)
            if lane is None:
                lane = block[w[0]]
                for x in w[1:]:
                    lane = lane_mul(lane, block[x])
                if len(words) < word_room:
                    words[w] = lane
            col = lane if col is None else lane_add(col, lane)
        return col

    if not top:  # every letter is in the block: lane the words by letter name
        block = dict(zip(variables, block.values()))  # the letters n..n+k-1 in order
        diff = _block_diff(lhs, rhs, column)
        return dict(zip(variables, _lane_values(diff, width, n, k))) if diff else None
    letter = dict(zip(variables, range(n, n + k))).__getitem__  # _reduce tells letters from elements
    lhs = frozenset([tuple(map(letter, w)) for w in identity.lhs])
    rhs = frozenset([tuple(map(letter, w)) for w in identity.rhs])
    block = {c: c * ones for c in range(n)} | block  # reduced words hold elements; column reads it
    room = MEMO_LETTERS // (sum(map(len, lhs)) + sum(map(len, rhs)))  # memo entries allowed
    word_room = MEMO_LETTERS // (lane_letters + max(map(len, lhs | rhs)))
    states = [(lhs, rhs)]
    values = [-1]  # the value tried at each depth of the current path
    held = set()  # (depth, lhs, rhs) of subtrees below the root without a failure
    while states:
        d = len(states) - 1
        left, right = states[-1]
        if d == top:
            diff = _block_diff(left, right, column)
            if diff:
                values[top:] = _lane_values(diff, width, n, k - top)
                return dict(zip(variables, values))
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
        self._cache: dict[Word, tuple[int, ...]] = {}

    def word_vector(self, w: Word) -> tuple[int, ...]:
        try:
            return self._cache[w]
        except KeyError:
            pass
        acc = self._columns[w[0]]
        for x in w[1:]:
            acc = _combine(self._mul_pairs, acc, self._columns[x])
        self._cache[w] = acc
        return acc

    def term_vector(self, t: Term) -> tuple[int, ...]:
        acc = self.word_vector(t[0])
        for w in t[1:]:
            acc = _combine(self._add_pairs, acc, self.word_vector(w))
        return acc

    def absorbs(self, base: tuple[int, ...], extra: tuple[int, ...]) -> bool:
        """True iff base + extra == base at every assignment, i.e. u ≈ u + q holds."""
        for a, b in self._breaking:
            if base[a] & extra[b]:
                return False
        return True
