"""Named catalog of small ai-semirings with bases and checkable claims.

Covers the six 2-element semirings, the 3-element semiring S7, the 58
4-element semirings whose additive reduct is the height-1 semilattice
(top element "1", atoms "2", "3", "4"), derived 3-element subalgebras
(S2, S4, S6, S10), and five further 3-element semirings (S5, S9, S13,
S14, S15). Every entry, typed or derived, is built by
``FiniteAiSemiring.from_tables``, so a table that breaks a law raises
InvalidSemiringError naming its entry. A build runs no census and no
homomorphism search: that each of the five is the unique order-3 census
class with its embedding and subdirect-product claims is proved in
tests/test_catalog.py.

The paper's facts are stated once, as data: the nine nonfinitely based
order-4 entries, the structural claims (``_STRUCTURE``) and the bundled bases
(``_BASES``), from which one loop builds every entry and its claims. Claims
are checked through one table, ``_CHECKS``, with one row per claim kind.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import construct
from .core import (
    FiniteAiSemiring,
    canonical_form,
    direct_product,
    dual,
    find_embedding,
    find_isomorphism,
    generated_subalgebra,
    is_subdirect_embedding,
)
from .evaluate import check_basis
from .terms import Identity, Term, Word, parse_identity, split_top_level


class CatalogError(KeyError):
    __str__ = Exception.__str__  # the message, not KeyError's repr of it


@dataclass(frozen=True)
class Claim:
    """An assertion about an entry, checked by the row of ``_CHECKS`` named by its kind."""

    kind: str
    args: tuple[str, ...]
    label: str

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    semiring: FiniteAiSemiring
    status: str  # finitely-based | nonfinitely-based | external
    basis: Optional[tuple[Identity, ...]]
    claims: tuple[Claim, ...]

    def __post_init__(self):
        if self.basis is not None and self.status != "finitely-based":
            raise ValueError(f"{self.name}: a bundled basis implies finitely-based status")


# ---------------------------------------------------------------------------
# raw tables

# multiplication tables, row-major, entries are the display labels 1..4
_ORDER4_MUL = {
    1: "1111111111111111",
    2: "1111111111111112",
    3: "1111111111111114",
    4: "1111111111121111",
    5: "1111111111131114",
    6: "1111111211131114",
    7: "1114111411141114",
    8: "1111111111121121",
    9: "1111111111121123",
    10: "1111111111111134",
    11: "1111111111131134",
    12: "1111111211111134",
    13: "1111111211131134",
    14: "1111111111211112",
    15: "1111111111211114",
    16: "1114111411241114",
    17: "1111111111311114",
    18: "1111111211311114",
    19: "1114111411341114",
    20: "1111111111341143",
    21: "1114112411341114",
    22: "1134113411341134",
    23: "1111111111111234",
    24: "1111111111131234",
    25: "1111111211131234",
    26: "1111111211231234",
    27: "1111111111311214",
    28: "1111111211311214",
    29: "1111112111311214",
    30: "1131113111311234",
    31: "1131113211311234",
    32: "1111121111311114",
    33: "1114121411341114",
    34: "1111121111341143",
    35: "1134123411341134",
    36: "1131123411311432",
    37: "1111123413421423",
    38: "1234123412341234",
    39: "1111111111114444",
    40: "1114111411144444",
    41: "1111111111214444",
    42: "1114111411244444",
    43: "1111111111314444",
    44: "1114111411344444",
    45: "1111112111314444",
    46: "1114112411344444",
    47: "1111111112314444",
    48: "1114111412344444",
    49: "1111112112314444",
    50: "1114112412344444",
    51: "1111121111314444",
    52: "1114121411344444",
    53: "1111123113214444",
    54: "1114123413244444",
    55: "1111111133334444",
    56: "1111121133334444",
    # 57 is the left-projection product xy = x; pinned against the census,
    # which leaves exactly this class once the other 57 tables are matched
    57: "1111222233334444",
    58: "2222222222222222",
}

_ORDER2_MUL = {
    "L2": ((0, 0), (1, 1)),
    "R2": ((0, 1), (0, 1)),
    "M2": ((0, 1), (1, 1)),
    "D2": ((0, 0), (0, 1)),
    "N2": ((0, 0), (0, 0)),
    "T2": ((1, 1), (1, 1)),
}

_S7_MUL = ((0, 1, 2), (1, 2, 2), (2, 2, 2))

# 3-element semirings on the height-1 addition with top "1"; each is the one
# order-3 class that embeds two 2-element entries and completes the
# subdirect-in claim of an order-4 entry (tests/test_catalog.py proves it)
_ORDER3_MUL = {
    "S5": ((0, 0, 0), (0, 0, 0), (2, 2, 2)),
    "S9": ((0, 0, 0), (0, 1, 0), (2, 2, 2)),
    "S13": ((0, 0, 2), (0, 0, 2), (2, 2, 2)),
    "S14": ((0, 1, 0), (0, 1, 0), (0, 1, 2)),
    "S15": ((0, 1, 0), (1, 1, 1), (0, 1, 2)),
}

# the other 49 order-4 entries are finitely based
_NONFINITELY_BASED_ORDER4 = {f"S_(4,{k})" for k in (11, 13, 24, 25, 26, 28, 31, 49, 50)}

# structural claims of each entry, (kind, args, label) in the order checked
_STRUCTURE: dict[str, tuple[tuple[str, tuple[str, ...], str], ...]] = {
    "T2": (("isomorphic-to", ("@s:a",), "word semiring on a single letter"),),
    "S7": (
        ("isomorphic-to", ("@mc:a",), "commutative word monoid semiring on a letter"),
        ("isomorphic-to", ("@m:a",), "word monoid semiring on a letter"),
    ),
    "S_(4,2)": (("contains-copy-of", ("S2",), "contains a copy of S2"),),
    "S_(4,4)": (("isomorphic-to", ("@s:ab",), "word semiring on the factors of ab"),),
    "S_(4,6)": (("subdirect-in", ("S6", "S6"), "subdirect product of two copies of S6"),),
    "S_(4,8)": (("isomorphic-to", ("@sc:ab",), "commutative word semiring on ab"),),
    "S_(4,9)": (("isomorphic-to", ("@sc:aaa",), "commutative word semiring on a cube"),),
    "S_(4,12)": (("subdirect-in", ("S4", "S6"), "subdirect product of S4 and S6"),),
    "S_(4,14)": (("isomorphic-to", ("S_(4,14)",), "identity smoke claim"),),
    "S_(4,15)": (("isomorphic-to", ("@ie:S2",), "idempotent extension of S2"),),
    "S_(4,16)": (("isomorphic-to", ("@dual:S_(4,41)",), "dual multiplication of S_(4,41)"),),
    "S_(4,20)": (
        ("subdirect-in", ("S10", "T2"), "subdirect product of S10 and T2"),
        ("contains-copy-of", ("S10",), "contains a copy of S10"),
        ("contains-copy-of", ("T2",), "contains a copy of T2"),
    ),
    "S_(4,21)": (("isomorphic-to", ("@dual:S_(4,47)",), "dual multiplication of S_(4,47)"),),
    "S_(4,30)": (("subdirect-in", ("S4", "S14"), "subdirect product of S4 and S14"),),
    "S_(4,37)": (
        ("isomorphic-to", ("@flatext:z3",), "flat extension of the cyclic group of order 3"),
        ("abelian-group-minus-top", (), "top removed, the product is an abelian group"),
    ),
    "S_(4,41)": (("subdirect-in", ("S2", "S5"), "subdirect product of S2 and S5"),),
    "S_(4,42)": (("subdirect-in", ("S2", "S13"), "subdirect product of S2 and S13"),),
    "S_(4,45)": (("isomorphic-to", ("@dual:S_(4,30)",), "dual multiplication of S_(4,30)"),),
    "S_(4,46)": (("isomorphic-to", ("@dual:S_(4,48)",), "dual multiplication of S_(4,48)"),),
    "S_(4,47)": (("subdirect-in", ("S4", "S9"), "subdirect product of S4 and S9"),),
    "S_(4,48)": (("subdirect-in", ("S4", "S15"), "subdirect product of S4 and S15"),),
}


# bundled equational bases; a second tuple member lists variables that may be
# dropped, every present/absent combination being one instance of the scheme
_BASES: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "S_(4,4)": (
        ("x1x2x3 ≈ x1x2x3 + x4", ()),
        ("x^2 ≈ x^2 + y", ()),
        ("x + xy ≈ x^2", ()),
        ("x + yx ≈ x^2", ()),
        ("x1x2 + x3x4 ≈ x1x2 + x3x4 + x1x4", ()),
    ),
    "S_(4,14)": (
        ("xy ≈ yx", ()),
        ("xy ≈ xy + x^2", ()),
        ("x + xy ≈ x^3", ()),
        ("x1x2x3 ≈ x1x2x3 + x4", ()),
        ("xy + yz ≈ xy + yz + xz", ()),
    ),
    "S_(4,20)": (
        ("x^4 ≈ x^2", ()),
        ("xy ≈ yx", ()),
        ("xy^2 ≈ xy^2 + x", ()),
        ("x1x2 + x3 + x4 ≈ x1x2 + x3 + x4 + x1x2x3x4", ()),
    ),
    "S_(4,15)": (
        ("xy ≈ yx", ()),
        ("xy ≈ x^2 + y^2", ()),
        ("xyz ≈ xyz + x", ()),
        ("x^2 + x ≈ x^3", ()),
        ("x1x2x3 + x4 ≈ x1x2x3x4", ()),
    ),
    "S_(4,41)": (
        ("xy + x ≈ xy + x^3", ()),
        ("yx + x ≈ yx + x^3", ()),
        ("x1y1z1 + x2y2 ≈ x1y1z1 + x2", ()),
        ("x1y1z1 + x2 ≈ x1y1z1 + x2 + x2y2", ()),
        ("x1y1 + x2y2 ≈ x1y1 + x2y2 + x1x2", ()),
        ("x1y1 + x2y2 ≈ x1y1 + x2y2 + x1y2", ()),
    ),
    "S_(4,42)": (
        ("x^4 ≈ x^3", ()),
        ("xy ≈ yx", ()),
        ("x^3 ≈ x + xy", ()),
        ("x^2 + yz ≈ x^2 + yz + xy", ()),
        ("x1x2x3 + x4 ≈ x1x2x3 + x4 + x4x5", ()),
    ),
    "S_(4,30)": (
        ("x^2y ≈ xy", ()),
        ("xyz ≈ yxz", ()),
        ("x + y^2 ≈ x + y^2 + y^2x^2", ()),
        ("x + yz ≈ x + yz + yx", ()),
        ("xy ≈ xy + y", ()),
    ),
    "S_(4,47)": (
        ("x^2y ≈ xy", ()),
        ("x1x2x3x4 ≈ x1x3x2x4", ()),
        ("x^2 ≈ x^2 + x", ()),
        ("x^2y^2 ≈ x^2y^2 + x^2", ()),
        ("x + y^2 ≈ x + y^2 + x^2y^2", ()),
        ("x + y^2 ≈ x + y^2 + y^2x^2", ()),
        ("x + yz ≈ x + yz + yx", ()),
        ("xy + zx ≈ zy + x^2", ()),
    ),
    "S_(4,48)": (
        ("x^2y ≈ xy", ()),
        ("xyz ≈ yxz", ()),
        ("x^2 ≈ x^2 + x", ()),
        ("x + y^2 ≈ x + y^2 + x^2y^2", ()),
        ("x + yz ≈ x + yz + yx", ()),
        ("x + xyz ≈ x + xyz + xy", ()),
        ("z + xyz ≈ z + xyz + yz", ()),
    ),
    "S_(4,12)": (
        ("x^2 ≈ x^4", ()),
        ("x^2y^2 ≈ (xy)^2", ()),
        ("x^2y^2 ≈ y^2x^2", ()),
        ("x^2 ≈ x^2 + x", ()),
        ("x^2y^2 ≈ x^2y^2 + x^2", ()),
        ("x + yx ≈ y^2x", ()),
        ("x + xy ≈ xy^2", ()),
        ("x + y^2 ≈ x + y^2 + y^2x^2", ()),
        ("xy^2 + z ≈ xy^2 + zy", ()),
        ("x^2y + z ≈ x^2y + xz", ()),
        ("x1^2x2 + x3x4^2 ≈ x1^2x2^2x3^2x4^2", ("x2", "x3")),
        ("x1x2 + y1y2 ≈ x1x2 + y1y2 + x1y2", ()),
        ("x1x2 + x3x2x4 ≈ x1x2 + x3x2x4 + x1", ()),
        ("x1x2 + x3x1x4 ≈ x1x2 + x3x1x4 + x2", ()),
        ("x1x2 + y1x2y2 ≈ x1x2 + y1x2y2 + x1x2y2^2", ("x1", "y1")),
        ("x1x2 + y1x1y2 ≈ x1x2 + y1x1y2 + y1^2x1x2", ("x2", "y2")),
        ("x1x2 + x3x2x4 + x5 ≈ x1x2 + x3x2x4 + x5x2", ()),
        ("x1x2 + x3x1x4 + x5 ≈ x1x2 + x3x1x4 + x1x5", ()),
        ("x1x2 + y1x1y2x1y3 ≈ x1x2 + y1x1y2x1y3 + x1^2x2", ("x2", "y1", "y2", "y3")),
        ("x1x2 + y1x2y2x2y3 ≈ x1x2 + y1x2y2x2y3 + x1x2^2", ("x1", "y1", "y2", "y3")),
    ),
}

BASIS_NAMES = tuple(_BASES)


def _delete_variables(identity: Identity, gone: frozenset[str]) -> Optional[Identity]:
    """Drop the given variables from every word; None if a word would vanish."""
    def strip(term: Term) -> Optional[Term]:
        words = [tuple(x for x in w if x not in gone) for w in term]
        return Term(map(Word, words)) if all(words) else None

    lhs = strip(identity.lhs)
    rhs = strip(identity.rhs)
    if lhs is None or rhs is None:
        return None
    return Identity(lhs, rhs)


def expand_basis(name: str) -> tuple[Identity, ...]:
    """The bundled basis of an entry as a concrete identity list.

    Schemes with droppable variables are expanded into every instance; an
    instance that would empty out a word is skipped.
    """
    try:
        rows = _BASES[name]
    except KeyError:
        raise CatalogError(f"no bundled basis for {name!r}") from None
    out: list[Identity] = []
    seen = set()
    for text, optional in rows:
        base = parse_identity(text)
        for k in range(len(optional) + 1):
            for combo in itertools.combinations(optional, k):
                inst = _delete_variables(base, frozenset(combo))
                if inst is not None and inst not in seen:
                    seen.add(inst)
                    out.append(inst)
    return tuple(out)


# ---------------------------------------------------------------------------
# building the catalog


def _order4(k: int) -> FiniteAiSemiring:
    digits = _ORDER4_MUL[k]
    mul = tuple(tuple(int(digits[4 * a + b]) - 1 for b in range(4)) for a in range(4))
    # height-1 addition on {1, 2, 3, 4}: x + x = x, everything else joins to 1
    return FiniteAiSemiring.from_tables(construct.flat_addition(4, 0), mul, ("1", "2", "3", "4"), f"S_(4,{k})")


def _status(S: FiniteAiSemiring) -> str:
    if S.name == "S7" or S.name in _NONFINITELY_BASED_ORDER4:
        return "nonfinitely-based"
    return "finitely-based" if S.order == 4 else "external"


def _claims(name: str) -> tuple[Claim, ...]:
    claims = [Claim(*row) for row in _STRUCTURE.get(name, ())]
    if name in _BASES:
        claims.append(Claim("basis-holds", (), "the bundled basis holds"))
    if name in _NONFINITELY_BASED_ORDER4:
        claims.append(Claim("contains-copy-of", ("S7",), "contains a copy of S7"))
        claims.append(Claim("nfb-witness", (), "noncyclic elements form an order ideal and S7 embeds"))
    return tuple(claims)


@lru_cache(maxsize=1)
def _catalog() -> dict[str, CatalogEntry]:
    # the typed tables are built, and so validated, before any derivation reads them
    semirings: dict[str, FiniteAiSemiring] = {}
    for label, mul in _ORDER2_MUL.items():
        semirings[label] = FiniteAiSemiring.from_tables(construct.flat_addition(2, 1), mul, ("0", "1"), label)
    semirings["S7"] = FiniteAiSemiring.from_tables(construct.flat_addition(3, 2), _S7_MUL, ("1", "a", "inf"), "S7")
    for name, mul in _ORDER3_MUL.items():
        semirings[name] = FiniteAiSemiring.from_tables(construct.flat_addition(3, 0), mul, ("1", "2", "3"), name)
    for k in range(1, 59):
        semirings[f"S_(4,{k})"] = _order4(k)

    # derived order-3 subalgebras; seeds are carrier subsets of order-4 entries
    S4, _ = generated_subalgebra(semirings["S_(4,47)"], (0, 1, 2))
    for name, S in (
        ("S2", generated_subalgebra(semirings["S_(4,15)"], (0, 1, 2))[0]),
        ("S4", S4),
        ("S6", dual(S4)),
        ("S10", generated_subalgebra(semirings["S_(4,20)"], (3,))[0]),
    ):
        semirings[name] = FiniteAiSemiring.from_tables(S.add, S.mul, S.elements, name)

    return {
        name: CatalogEntry(
            name=name,
            semiring=semirings[name],
            status=_status(semirings[name]),
            basis=expand_basis(name) if name in _BASES else None,
            claims=_claims(name),
        )
        for name in (*_ORDER2_MUL, "S7", "S2", "S4", "S6", "S10", *_ORDER3_MUL, *(f"S_(4,{k})" for k in _ORDER4_MUL))
    }


def _normalize(name: str) -> str:
    return name.replace(" ", "").upper()


@lru_cache(maxsize=1)
def _name_index() -> dict[str, str]:
    return {_normalize(name): name for name in _catalog()}


def names() -> tuple[str, ...]:
    return tuple(_catalog())


def get(name: str) -> CatalogEntry:
    key = _name_index().get(_normalize(name))
    if key is None:
        raise CatalogError(f"unknown catalog entry {name!r}")
    return _catalog()[key]


def entries(
    order: Optional[int] = None,
    status: Optional[str] = None,
    flat: bool = False,
) -> tuple[CatalogEntry, ...]:
    out = []
    for entry in _catalog().values():
        S = entry.semiring
        if order is not None and S.order != order:
            continue
        if status is not None and entry.status != status:
            continue
        if flat and not construct.is_flat(S):
            continue
        out.append(entry)
    return tuple(out)


@lru_cache(maxsize=1)
def _key_index() -> dict[bytes, str]:
    index: dict[bytes, str] = {}
    for name, entry in _catalog().items():
        key = canonical_form(entry.semiring)
        if key in index:
            raise CatalogError(f"catalog entries {index[key]} and {name} are isomorphic")
        index[key] = name
    return index


def classify(S: FiniteAiSemiring) -> Optional[str]:
    """Name of the unique catalog entry isomorphic to S, or None."""
    if S.order > 4:
        return None
    return _key_index().get(canonical_form(S))


# ---------------------------------------------------------------------------
# constructor references and claim checking


def _words(builder):
    return lambda text: builder(*[w.strip() for w in text.split(",") if w.strip()])


def _flat_cyclic(text: str) -> FiniteAiSemiring:
    spec = text.strip().lower()
    if not spec.startswith("z") or not spec[1:].isdigit():
        raise ValueError(f"@flatext takes zN for a cyclic group, got {spec!r}")
    return construct.flat_from_semigroup(construct.cyclic_group_with_zero(int(spec[1:])))


# Bound on how deep one reference may nest, so that hostile text fails fast
# with a ValueError instead of exhausting the stack; the builders themselves
# hold products, word semirings and flat cyclic groups to core.MAX_BUILT_ORDER.
MAX_REFERENCE_DEPTH = 16  # constructors nested in one reference


# @head -> (builder, arity): arity 0 hands the builder the argument text,
# arity k >= 1 hands it k resolved semiring references
CONSTRUCTORS = {
    "sc": (_words(construct.sc), 0),
    "s": (_words(construct.s), 0),
    "mc": (_words(construct.mc), 0),
    "m": (_words(construct.m), 0),
    "flatext": (_flat_cyclic, 0),
    "dual": (dual, 1),
    "ne": (construct.null_extension, 1),
    "ie": (construct.idempotent_extension, 1),
    "prod": (direct_product, 2),
}


def resolve(ref: str) -> FiniteAiSemiring:
    """Resolve a catalog name or an @constructor reference to a semiring.

    Supported forms: @sc:WORDS, @s:WORDS, @mc:WORDS, @m:WORDS (comma-separated
    generator words), @dual:REF, @prod:REF,REF, @ne:REF, @ie:REF, @flatext:zN.
    References nest; the left operand of @prod is its shortest comma-separated
    prefix that is a complete reference, and the rest is the right operand.
    More than MAX_REFERENCE_DEPTH nested constructors, or a product, word
    semiring or flat cyclic group of more than core.MAX_BUILT_ORDER elements,
    raise ValueError.
    """
    return _parse(ref, 0, 1, True)[0]


def _parse(text: str, start: int, depth: int, last: bool) -> tuple[FiniteAiSemiring, int]:
    """Build the reference at text[start:], nested ``depth`` constructors deep
    (1 for the outermost), and return it with the index where it ends.

    A ``last`` reference runs to the end of the text. Any other ends at the
    first comma outside parentheses after its last constructor, and another
    operand must follow that comma."""
    at = len(text) - len(text[start:].lstrip())
    builder = None
    if text.startswith("@", at):
        if depth > MAX_REFERENCE_DEPTH:
            raise ValueError(f"reference nests more than {MAX_REFERENCE_DEPTH} constructors")
        colon = text.find(":", at)
        colon = len(text) if colon < 0 else colon
        head = text[at + 1 : colon]
        try:
            builder, arity = CONSTRUCTORS[head.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown constructor reference @{head}") from None
        if arity:
            operands, end = [], colon
            for i in range(arity):
                operand, end = _parse(text, end + 1, depth + 1, last and i == arity - 1)
                operands.append(operand)
            return builder(*operands), end
        at = colon + 1
    end = len(text) if last else at + len(split_top_level(text[at:], ",")[0])
    if not last and end >= len(text):
        raise ValueError(f"{text!r} ends where another operand of a product is expected")
    arg = text[at:end]
    return (builder(arg) if builder else get(arg.strip()).semiring), end


@dataclass(frozen=True)
class ClaimResult:
    entry: str
    claim: Claim
    ok: bool

    def to_dict(self) -> dict:
        return {"entry": self.entry, "claim": self.claim.label, "kind": self.claim.kind, "ok": self.ok}


# claim kind -> test of (entry, *the semirings that the claim's args name)
_CHECKS = {
    "isomorphic-to": lambda entry, T: find_isomorphism(entry.semiring, T) is not None,
    "subdirect-in": lambda entry, A, B: is_subdirect_embedding(entry.semiring, A, B) is not None,
    "contains-copy-of": lambda entry, T: find_embedding(T, entry.semiring) is not None,
    "abelian-group-minus-top": lambda entry: construct.is_abelian_group_with_zero(
        construct.semigroup_reduct(entry.semiring)
    ),
    "basis-holds": lambda entry: entry.basis is not None and check_basis(entry.semiring, entry.basis).all_hold,
    "nfb-witness": lambda entry: construct.nfb_witness(entry.semiring).conclusion,
}


def verify_claim(entry: CatalogEntry, claim: Claim) -> ClaimResult:
    try:
        check = _CHECKS[claim.kind]
    except KeyError:
        raise ValueError(f"unknown claim kind {claim.kind!r}") from None
    return ClaimResult(entry.name, claim, check(entry, *map(resolve, claim.args)))


def verify_all_claims() -> tuple[ClaimResult, ...]:
    return tuple(verify_claim(entry, claim) for entry in _catalog().values() for claim in entry.claims)
