"""Command-line interface.

Exit codes follow one contract everywhere: 0 for success or a holding
property, 1 for a check that ran and came out false, 2 for usage or I/O
problems.  Every subcommand emits machine-readable JSON under --json.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import time
from typing import Optional

from . import catalog, construct, criteria, derivation
from .census import enumerate_ai_semirings, write_census
from .core import (
    FiniteAiSemiring,
    Morphism,
    canonical_form,
    find_embedding,
    find_isomorphism,
    is_subdirect_embedding,
    validate,
)
from .evaluate import DEFAULT_BUDGET, BudgetExceededError, BulkEvaluator, check_basis, counterexample
from .terms import SimpleIdentity, Term, Word, parse_identity, parse_term, split_top_level

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2


class CliError(Exception):
    pass


def _read_json(path: str):
    """The JSON document in a file; every read failure is a CliError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except OSError as exc:  # a directory, no permission, ...
        raise CliError(f"{path}: cannot read ({exc.strerror or exc})")
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise CliError(f"{path}: not a JSON file ({exc})")


def _load_semiring_file(path: str) -> FiniteAiSemiring:
    data = _read_json(path)
    try:
        return FiniteAiSemiring.from_dict(data)
    except (KeyError, TypeError) as exc:
        raise CliError(f"{path}: not a semiring JSON file ({exc})")


def _is_path(ref: str) -> bool:
    """A reference names a file if it does not start with @ and has a path
    separator or exists."""
    return not ref.startswith("@") and (os.path.sep in ref or os.path.exists(ref))


def resolve_ref(ref: str) -> FiniteAiSemiring:
    """Catalog name, @constructor reference, or path to a semiring JSON file."""
    if _is_path(ref):
        return _load_semiring_file(ref)
    try:
        return catalog.resolve(ref)
    except catalog.CatalogError:
        raise CliError(f"unknown semiring reference {ref!r}")


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=1))
    elif text:
        print(text)


def _table_text(S: FiniteAiSemiring) -> str:
    width = max(len(e) for e in S.elements)

    def fmt(table):
        rows = []
        for a in range(S.order):
            rows.append(" ".join(f"{S.elements[table[a][b]]:>{width}}" for b in range(S.order)))
        return "\n".join(rows)

    return (
        f"{S.name or 'semiring'} on {{{', '.join(S.elements)}}}\n"
        f"addition:\n{fmt(S.add)}\nmultiplication:\n{fmt(S.mul)}"
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    if bool(args.table) == bool(args.semiring):
        raise CliError("give either a semiring reference or --table FILE")
    # a file is read as raw tables, so that broken laws are reported, not refused
    path = args.table or (args.semiring if _is_path(args.semiring) else None)
    if path:
        data = _read_json(path)
        try:
            add, mul = data["add"], data["mul"]
        except (KeyError, TypeError):
            raise CliError(f"{path}: expected an object with add and mul tables")
    else:
        S = resolve_ref(args.semiring)
        add, mul = S.add, S.mul
    report = validate(add, mul)
    payload = {
        "valid": report.valid,
        "violations": [{"law": law, "witness": list(witness)} for law, witness in report.violations],
    }
    lines = ["valid" if report.valid else "invalid"]
    lines += [f"  {law} fails at {witness}" for law, witness in report.violations]
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if report.valid else EXIT_FALSE


def _available_processors() -> int:
    """The processors this process may run on, where the platform says so."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_enumerate(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    workers = _available_processors() if args.workers is None else args.workers
    result = enumerate_ai_semirings(args.order, workers=workers)
    chosen = result.height1 if args.height1 else result.semirings
    count = len(chosen)
    payload = {
        "order": args.order,
        "count": count,
        "total": result.count,
        "height1_count": len(result.height1),
        "elapsed_seconds": round(result.elapsed, 3),
    }
    key_of = dict(zip(result.semirings, result.keys))
    keys = tuple(key_of[S] for S in chosen)
    if not args.count_only:
        payload["keys"] = [key.hex() for key in keys]
    if args.out:
        payload["index"] = write_census(dataclasses.replace(result, semirings=chosen, keys=keys), args.out)
    _emit(args, payload, str(count))
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.basis and args.identity:
        raise CliError("give --identity or --basis, not both")
    S = resolve_ref(args.semiring)
    if args.basis:
        identities = catalog.get(args.basis).basis
        if identities is None:
            raise CliError(f"catalog entry {args.basis!r} has no bundled basis")
    else:
        if not args.identity:
            raise CliError("give --identity (repeatable) or --basis NAME")
        identities = tuple(parse_identity(text) for text in args.identity)
    report = check_basis(S, identities)
    payload = {
        "semiring": S.name,
        "all_hold": report.all_hold,
        "results": [v.to_dict(S) for v in report.verdicts],
    }
    lines = []
    for v in report.verdicts:
        mark = "holds" if v.holds else "fails"
        extra = ""
        if v.witness is not None:
            named = {x: S.elements[e] for x, e in v.witness.items()}
            extra = f"  witness {named}"
        lines.append(f"{mark}: {v.identity}{extra}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if report.all_hold else EXIT_FALSE


def _report_morphism(args, found: Optional[Morphism], yes: str, no: str) -> int:
    morphism = None if found is None else found.to_dict()
    _emit(args, {"found": found is not None, "morphism": morphism}, yes if found else no)
    if not args.json and found:
        print(json.dumps(morphism["map"], indent=1))
    return EXIT_OK if found else EXIT_FALSE


def _cmd_iso(args) -> int:
    found = find_isomorphism(resolve_ref(args.first), resolve_ref(args.second))
    return _report_morphism(args, found, "isomorphic", "not isomorphic")


def _cmd_embed(args) -> int:
    found = find_embedding(resolve_ref(args.first), resolve_ref(args.second))
    return _report_morphism(args, found, "embeds", "no embedding")


def _cmd_subdirect(args) -> int:
    S, A, B = resolve_ref(args.semiring), resolve_ref(args.first), resolve_ref(args.second)
    found = is_subdirect_embedding(S, A, B)
    return _report_morphism(args, found, "subdirect embedding found", "no subdirect embedding")


# construct KIND -> @head of the same constructor in a semiring reference
_CONSTRUCT_HEADS = {"flat-ext": "flatext", "product": "prod"}


def _cmd_construct(args) -> int:
    kind = args.kind
    builder, arity = catalog.CONSTRUCTORS[_CONSTRUCT_HEADS.get(kind, kind)]
    given = {"references": args.refs, "--words": args.words, "--group": args.group, "--table": args.table}
    takes = ("references",) if arity else ("--group", "--table") if kind == "flat-ext" else ("--words",)
    unused = [name for name, value in given.items() if value not in (None, []) and name not in takes]
    if unused:
        raise CliError(f"construct {kind} takes no {' or '.join(unused)}")
    if args.group and args.table:
        raise CliError("construct flat-ext takes --group or --table, not both")
    text = args.group if kind == "flat-ext" else args.words
    if arity:
        if len(args.refs) != arity:
            raise CliError(f"construct {kind} needs {arity} semiring reference(s)")
        S = builder(*map(resolve_ref, args.refs))
    elif text:
        S = builder(text)
    elif args.table:
        data = _read_json(args.table)
        try:
            G = construct.FiniteSemigroup(
                elements=tuple(data["elements"]),
                mul=tuple(map(tuple, data["mul"])),
                zero=data.get("zero"),
                identity=data.get("identity"),
            )
        except (KeyError, TypeError):
            raise CliError(f"{args.table}: expected a semigroup table with elements and mul")
        S = construct.flat_from_semigroup(G)
    else:
        need = "--group zN or --table FILE" if kind == "flat-ext" else "--words"
        raise CliError(f"construct {kind} needs {need}")

    payload = S.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    _emit(args, payload, f"wrote {args.out}" if args.out else _table_text(S))
    return EXIT_OK


def _parse_simple_identity(text: str) -> SimpleIdentity:
    """Read u ≈ u + q: the left side u lies inside the right side, and q is
    the one right-side summand not in u. When the sides are equal, q is the
    last written summand of the right side, or the last word of that summand
    if it is a sum."""
    identity = parse_identity(text)
    u, rhs = set(identity.lhs.words), set(identity.rhs.words)
    extra = rhs - u
    if not u <= rhs or len(extra) > 1:
        raise CliError("identity is not of the simple form u ≈ u + q")
    if extra:
        return SimpleIdentity(identity.lhs, extra.pop())
    sep = "≈" if "≈" in text else "="
    q_term = parse_term(split_top_level(text.split(sep, 1)[1], "+")[-1])
    return SimpleIdentity(identity.lhs, q_term.words[-1])


def _criteria_sweep(args) -> int:
    """Every u ≈ u + q over the variable pool, judged by each of the ten
    criteria and by the bulk evaluator on the criterion's semiring."""
    if args.lemma or args.identity or args.oracle:
        raise CliError("--sweep judges every criterion; it takes no --lemma, --identity or --oracle")
    variables = tuple(dict.fromkeys(args.variables))
    if not variables or not all(x.isalpha() for x in variables):
        raise CliError(f"--variables must be letters, one per variable, got {args.variables!r}")
    if args.max_length < 1 or args.max_summands < 1:
        raise CliError("--max-length and --max-summands must be at least 1")
    names = sorted(criteria.CRITERIA)
    oracles = [catalog.get(name).semiring for name in names]
    # each word is held as letters and, per semiring, as n masks of n**len(variables)
    # bits; bounding letters times bits bounds both
    bits = max(S.order for S in oracles) ** len(variables)
    letters = 0
    for k in range(1, args.max_length + 1):
        letters += k * len(variables) ** k
        if letters * bits > DEFAULT_BUDGET:
            raise BudgetExceededError(
                f"{letters} letters of words over {bits} assignments exceed the budget of {DEFAULT_BUDGET}"
            )
    words = [Word(t) for k in range(1, args.max_length + 1) for t in itertools.product(variables, repeat=k)]
    bulks = [BulkEvaluator(S, variables) for S in oracles]
    qvecs = [[bulk.word_vector(w) for w in words] for bulk in bulks]

    start = time.monotonic()
    checked = identities = 0
    disagreements = []
    for r in range(1, args.max_summands + 1):
        for u_words in itertools.combinations(words, r):
            u = Term(u_words)
            uvecs = [bulk.term_vector(u) for bulk in bulks]
            for qi, q in enumerate(words):
                si = SimpleIdentity(u, q)
                identities += 1
                for name, bulk, uvec, qvec in zip(names, bulks, uvecs, qvecs):
                    claim = criteria.CRITERIA[name](si).holds
                    truth = bulk.absorbs(uvec, qvec[qi])
                    checked += 1
                    if claim != truth:
                        disagreements.append(
                            {"lemma": name, "identity": str(si), "criterion": claim, "oracle": truth}
                        )
    elapsed = time.monotonic() - start
    payload = {
        "comparisons": checked,
        "identities": identities,
        "disagreements": disagreements,
        "elapsed_seconds": round(elapsed, 3),
    }
    lines = [
        f"DISAGREE {d['lemma']}: {d['identity']} criterion={d['criterion']} oracle={d['oracle']}"
        for d in disagreements
    ]
    lines.append(
        f"{checked} comparisons over {identities} simple identities, "
        f"{len(disagreements)} disagreements, {elapsed:.1f}s"
    )
    _emit(args, payload, "\n".join(lines))
    return EXIT_FALSE if disagreements else EXIT_OK


def _cmd_criteria(args) -> int:
    if args.sweep:
        return _criteria_sweep(args)
    if not args.lemma or not args.identity:
        raise CliError("give --lemma and --identity, or --sweep")
    name = args.lemma.upper()
    if name not in criteria.CRITERIA:
        raise CliError(f"--lemma must be one of {', '.join(sorted(criteria.CRITERIA))}")
    si = _parse_simple_identity(args.identity)
    verdict = criteria.check(name, si)
    payload = {"lemma": name, "identity": str(si), **verdict.to_dict()}
    text = f"{name}: {'holds' if verdict.holds else 'fails'} ({verdict.rule})"
    if args.oracle:
        S = catalog.get(name).semiring
        witness = counterexample(S, si.as_identity())
        oracle_holds = witness is None
        payload["oracle"] = {
            "semiring": S.name,
            "holds": oracle_holds,
            "witness": None if witness is None else {x: S.elements[e] for x, e in witness.items()},
            "agrees": oracle_holds == verdict.holds,
        }
        text += f"; oracle {'holds' if oracle_holds else 'fails'}"
        text += " (agreement)" if payload["oracle"]["agrees"] else " (DISAGREEMENT)"
    _emit(args, payload, text)
    return EXIT_OK if verdict.holds else EXIT_FALSE


def _cmd_nfb_check(args) -> int:
    S = resolve_ref(args.semiring)
    report = construct.nfb_witness(S)
    payload = {"semiring": S.name, **report.to_dict()}
    text = (
        f"noncyclic elements form an order ideal: {report.noncyclic_order_ideal}\n"
        f"S7-style subsemiring embeds: {report.s7_embedding is not None}\n"
        f"nonfinite-basis witness: {report.conclusion}"
    )
    _emit(args, payload, text)
    return EXIT_OK if report.conclusion else EXIT_FALSE


def _cmd_catalog(args) -> int:
    if args.action == "list":
        rows = catalog.entries(
            order=args.order,
            height1=True if args.height1 else None,
            status=args.status,
            flat=True if args.flat else None,
        )
        payload = [
            {
                "name": e.name,
                "order": e.semiring.order,
                "status": e.status,
                "has_basis": e.basis is not None,
            }
            for e in rows
        ]
        lines = [
            f"{e['name']:10} order {e['order']}  {e['status']}{' basis' if e['has_basis'] else ''}"
            for e in payload
        ]
        _emit(args, payload, "\n".join(lines))
        return EXIT_OK
    if args.action == "show":
        if not args.name:
            raise CliError("catalog show needs an entry name")
        entry = catalog.get(args.name)
        payload = {
            "name": entry.name,
            "status": entry.status,
            "semiring": entry.semiring.to_dict(),
            "basis": None if entry.basis is None else [str(i) for i in entry.basis],
            "claims": [c.label for c in entry.claims],
            "canonical_key": canonical_form(entry.semiring).hex(),
        }
        text = _table_text(entry.semiring) + f"\nstatus: {entry.status}"
        if entry.basis:
            text += "\nbasis:\n" + "\n".join(f"  {i}" for i in entry.basis)
        if entry.claims:
            text += "\nclaims:\n" + "\n".join(f"  {c.label}" for c in entry.claims)
        _emit(args, payload, text)
        return EXIT_OK
    if args.action == "verify":
        results = catalog.verify_all_claims()
        ok = all(r.ok for r in results)
        payload = {"all_ok": ok, "results": [r.to_dict() for r in results]}
        lines = [f"{'pass' if r.ok else 'FAIL'}  {r.entry}: {r.claim.label}" for r in results]
        lines.append(f"{sum(r.ok for r in results)}/{len(results)} claims pass")
        _emit(args, payload, "\n".join(lines))
        return EXIT_OK if ok else EXIT_FALSE
    raise CliError(f"unknown catalog action {args.action!r}")


def _cmd_cert(args) -> int:
    if args.action == "list":
        names = derivation.bundled_certificate_names()
        _emit(args, {"bundled": list(names)}, "\n".join(names))
        return EXIT_OK
    if args.action == "verify":
        if not args.path:
            raise CliError("cert verify needs a certificate file or bundled name")
        if os.path.exists(args.path):
            cert = derivation.certificate_from_dict(_read_json(args.path))
        else:
            try:
                cert = derivation.load_bundled_certificate(args.path)
            except FileNotFoundError:
                raise CliError(f"no certificate file or bundled name {args.path!r}")
        verdict = derivation.verify_certificate(cert)
        payload = {"endpoints": str(cert.endpoints), **verdict.to_dict()}
        text = "certificate valid" if verdict.valid else (
            f"certificate invalid at step {verdict.failed_step}: {verdict.reason}"
        )
        _emit(args, payload, text)
        return EXIT_OK if verdict.valid else EXIT_FALSE
    raise CliError(f"unknown cert action {args.action!r}")


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aisemiring",
        description="Workbench for finite additively idempotent semirings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        return p

    p = with_json(sub.add_parser("validate", help="check the ai-semiring laws"))
    p.add_argument("semiring", nargs="?", help="catalog name, @constructor, or JSON file")
    p.add_argument("--table", help="semiring JSON file with add and mul tables")
    p.set_defaults(fn=_cmd_validate)

    p = with_json(sub.add_parser("enumerate", help="census of ai-semirings up to isomorphism"))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--height1", action="store_true", help="only additive height 1")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out", help="directory for semiring JSON files plus an index")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel workers, at least 1 (default: the processor count)",
    )
    p.set_defaults(fn=_cmd_enumerate)

    p = with_json(sub.add_parser("check", help="identity or basis satisfaction"))
    p.add_argument("--semiring", required=True)
    p.add_argument("--identity", action="append", help="identity text, repeatable")
    p.add_argument("--basis", help="use the bundled basis of this catalog entry")
    p.set_defaults(fn=_cmd_check)

    p = with_json(sub.add_parser("iso", help="search for an isomorphism"))
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_iso)

    p = with_json(sub.add_parser("embed", help="search for an embedding"))
    p.add_argument("first", help="the semiring to embed")
    p.add_argument("second", help="the target")
    p.set_defaults(fn=_cmd_embed)

    p = with_json(sub.add_parser("subdirect", help="subdirect embedding into a product"))
    p.add_argument("semiring")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_subdirect)

    p = with_json(sub.add_parser("construct", help="build a derived semiring"))
    p.add_argument("kind", choices=["sc", "s", "mc", "m", "flat-ext", "ne", "ie", "dual", "product"])
    p.add_argument("refs", nargs="*", help="semiring references for ne/ie/dual/product")
    p.add_argument("--words", help="comma-separated generator words for sc/s/mc/m")
    p.add_argument("--group", help="zN for flat-ext of a cyclic group")
    p.add_argument("--table", help="semigroup JSON file for flat-ext")
    p.add_argument("--out", help="write semiring JSON here")
    p.set_defaults(fn=_cmd_construct)

    p = with_json(sub.add_parser("criteria", help="syntactic satisfaction criteria"))
    p.add_argument("--lemma", help="L2 R2 M2 D2 N2 T2 S2 S4 S6 S10")
    p.add_argument("--identity", help="a simple identity u ≈ u + q")
    p.add_argument("--oracle", action="store_true", help="also run the brute-force evaluator")
    p.add_argument(
        "--sweep",
        action="store_true",
        help="compare all ten criteria with exhaustive evaluation on every u ≈ u + q over the pool",
    )
    p.add_argument("--variables", default="xyz", help="sweep variable pool, one letter each")
    p.add_argument("--max-length", type=int, default=3, help="longest sweep word")
    p.add_argument("--max-summands", type=int, default=3, help="most summands in a sweep u")
    p.set_defaults(fn=_cmd_criteria)

    p = with_json(sub.add_parser("nfb-check", help="nonfinite-basis witness"))
    p.add_argument("semiring")
    p.set_defaults(fn=_cmd_nfb_check)

    p = with_json(sub.add_parser("catalog", help="named semirings, bases, claims"))
    p.add_argument("action", choices=["list", "show", "verify"])
    p.add_argument("name", nargs="?", help="entry name for show")
    p.add_argument("--order", type=int)
    p.add_argument("--height1", action="store_true")
    p.add_argument("--status", choices=["finitely-based", "nonfinitely-based", "external"])
    p.add_argument("--flat", action="store_true")
    p.set_defaults(fn=_cmd_catalog)

    p = with_json(sub.add_parser("cert", help="derivation certificates"))
    p.add_argument("action", choices=["verify", "list"])
    p.add_argument("path", nargs="?", help="certificate file or bundled name")
    p.set_defaults(fn=_cmd_cert)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, catalog.CatalogError, BudgetExceededError, ValueError, OSError) as exc:
        # MalformedTableError, InvalidSemiringError, TermSyntaxError and
        # MalformedCertificateError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
