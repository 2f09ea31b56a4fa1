"""Command-line interface.

Exit codes follow one contract everywhere: 0 for success or a holding
property, 1 for a check that ran and came out false, 2 for usage or I/O
problems.  Every subcommand returns its JSON payload, its text and whether
it holds, and ``main`` alone prints them (the payload under --json) and
picks the exit code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from typing import Optional

from . import catalog, construct, criteria, derivation
from .census import check_census_dir, enumerate_ai_semirings, write_census
from .core import (
    FiniteAiSemiring,
    InvalidSemiringError,
    Morphism,
    canonical_form,
    find_embedding,
    find_isomorphism,
    is_subdirect_embedding,
    validate,
)
from .evaluate import DEFAULT_BUDGET, BudgetExceededError, BulkEvaluator, check_basis
from .terms import SimpleIdentity, Term, Word, parse_identity, parse_term, split_top_level

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses by raising CliError, so that its
    refusals take main's one exit-2 path instead of a usage dump and exit."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        # a sub-command is parsed by its own parser's parse_known_args, so
        # each parser refuses what is left over at its level, and the message
        # names the command that was given it
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


def _at_least_1(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


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


def _load(path: str, from_dict, what: str):
    """The value that ``from_dict`` reads from the JSON file at ``path``.
    Every refusal names the file; tables that break a law stay an
    InvalidSemiringError, now named by ``path``, for ``validate`` to report."""
    data = _read_json(path)
    try:
        return from_dict(data)
    except (KeyError, TypeError) as exc:
        raise CliError(f"{path}: not a {what} JSON file ({exc})")
    except InvalidSemiringError as exc:
        raise InvalidSemiringError(exc.report, path) from None
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _is_path(ref: str) -> bool:
    """A reference names a file if it does not start with @ and has a path
    separator or exists."""
    return not ref.startswith("@") and (os.path.sep in ref or os.path.exists(ref))


def resolve_ref(ref: str) -> FiniteAiSemiring:
    """Catalog name, @constructor reference, or path to a semiring JSON file."""
    if _is_path(ref):
        return _load(ref, FiniteAiSemiring.from_dict, "semiring")
    try:
        return catalog.resolve(ref)
    except catalog.CatalogError:
        raise CliError(f"unknown semiring reference {ref!r}")


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
# subcommands: each returns (payload, text, holds) for main to emit


def _cmd_validate(args):
    try:
        S = resolve_ref(args.semiring)
        report = validate(S.add, S.mul)
    except InvalidSemiringError as exc:  # a file whose tables break a law: reported, not refused
        report = exc.report
    payload = {
        "valid": report.valid,
        "violations": [{"law": law, "witness": list(witness)} for law, witness in report.violations],
    }
    lines = ["valid" if report.valid else "invalid"]
    lines += [f"  {law} fails at {witness}" for law, witness in report.violations]
    return payload, "\n".join(lines), report.valid


def _available_processors() -> int:
    """The processors this process may run on, where the platform says so."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_enumerate(args):
    workers = args.workers
    if workers is None:
        # up to order 4 a serial census takes under 0.1 s, and starting
        # processes costs about what they save (README gives the timings)
        workers = 1 if args.order <= 4 else _available_processors()
    if args.out:
        check_census_dir(args.out)  # refused now, not after the census; write_census checks again
    result = enumerate_ai_semirings(args.order, workers=workers)
    chosen = result.height1 if args.height1 else result.semirings
    keys = result.keys[: len(chosen)]  # the height-1 classes are the census's first block
    count = len(chosen)
    payload = {
        "order": args.order,
        "count": count,
        "total": result.count,
        "height1_count": len(result.height1),
        "elapsed_seconds": round(result.elapsed, 3),
    }
    if not args.count_only:
        payload["keys"] = [key.hex() for key in keys]
    if args.out:
        payload["index"] = write_census(result._replace(semirings=chosen, keys=keys), args.out)
    return payload, str(count), True


def _cmd_check(args):
    S = resolve_ref(args.semiring)
    if args.basis:
        identities = catalog.get(args.basis).basis
        if identities is None:
            raise CliError(f"catalog entry {args.basis!r} has no bundled basis")
    else:
        identities = tuple(parse_identity(text) for text in args.identity)
    report = check_basis(S, identities)
    results = [v.to_dict(S) for v in report.verdicts]
    lines = [
        f"{'holds' if r['holds'] else 'fails'}: {r['identity']}"
        + ("" if r["witness"] is None else f"  witness {r['witness']}")
        for r in results
    ]
    payload = {"semiring": S.name, "all_hold": report.all_hold, "results": results}
    return payload, "\n".join(lines), report.all_hold


def _report_morphism(found: Optional[Morphism], yes: str, no: str):
    if found is None:
        return {"found": False, "morphism": None}, no, False
    morphism = found.to_dict()
    return {"found": True, "morphism": morphism}, f"{yes}\n{json.dumps(morphism['map'], indent=1)}", True


def _cmd_iso(args):
    found = find_isomorphism(resolve_ref(args.first), resolve_ref(args.second))
    return _report_morphism(found, "isomorphic", "not isomorphic")


def _cmd_embed(args):
    found = find_embedding(resolve_ref(args.first), resolve_ref(args.second))
    return _report_morphism(found, "embeds", "no embedding")


def _cmd_subdirect(args):
    S, A, B = resolve_ref(args.semiring), resolve_ref(args.first), resolve_ref(args.second)
    found = is_subdirect_embedding(S, A, B)
    return _report_morphism(found, "subdirect embedding found", "no subdirect embedding")


def _cmd_construct(args):
    if args.refs:
        S = args.builder(*map(resolve_ref, args.refs))
    elif args.text is not None:
        S = args.builder(args.text)
    else:
        # built inside the loader, so that a refusal names the file
        S = _load(args.table, lambda d: construct.flat_from_semigroup(construct.FiniteSemigroup.from_dict(d)), "semigroup")
    payload = S.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return payload, f"wrote {args.out}" if args.out else _table_text(S), True


def _parse_simple_identity(text: str) -> SimpleIdentity:
    """Read u ≈ u + q: the left side u lies inside the right side, and q is
    the one right-side summand not in u. When the sides are equal, q is the
    last written summand of the right side, or the last word of that summand
    if it is a sum."""
    identity = parse_identity(text)
    u, rhs = set(identity.lhs), set(identity.rhs)
    extra = rhs - u
    if not u <= rhs or len(extra) > 1:
        raise CliError("identity is not of the simple form u ≈ u + q")
    if extra:
        return SimpleIdentity(identity.lhs, extra.pop())
    sep = "≈" if "≈" in text else "="
    q_term = parse_term(split_top_level(text.split(sep, 1)[1], "+")[-1])
    return SimpleIdentity(identity.lhs, q_term[-1])


# the sweep's variable pool, longest word and most summands in u, when not given
_SWEEP_DEFAULTS = {"variables": "xyz", "max_length": 3, "max_summands": 3}


def _criteria_sweep(args):
    """Every u ≈ u + q over the variable pool, judged by each of the ten
    criteria and by the bulk evaluator on the criterion's semiring.  The
    payload's ``holds`` counts, per criterion, the identities its oracle
    says hold."""
    if args.lemma or args.identity or args.oracle:
        raise CliError("--sweep judges every criterion; it takes no --lemma, --identity or --oracle")
    variables = tuple(dict.fromkeys(args.variables))
    if not variables or not all(x.isascii() and x.isalpha() for x in variables):  # the identity grammar's letters
        raise CliError(f"--variables must be ASCII letters, one per variable, got {args.variables!r}")
    names = sorted(criteria.CRITERIA)
    judges = [criteria.CRITERIA[name] for name in names]
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
    # each u of at most max_summands words is judged against every word q
    n_words = sum(len(variables) ** k for k in range(1, args.max_length + 1))
    identities = 0
    for r in range(1, min(args.max_summands, n_words) + 1):
        identities += n_words * math.comb(n_words, r)
        if identities > DEFAULT_BUDGET:
            raise BudgetExceededError(f"{n_words} words give more identities than the budget of {DEFAULT_BUDGET}")
    words = [Word(t) for k in range(1, args.max_length + 1) for t in itertools.product(variables, repeat=k)]
    bulks = [BulkEvaluator(S, variables) for S in oracles]
    # per word q, its vector under each criterion's oracle
    qvecs = list(zip(*([bulk.word_vector(w) for w in words] for bulk in bulks)))

    start = time.monotonic()
    counts = [0] * len(names)  # identities the oracle says hold, per criterion
    disagreements = []
    for r in range(1, args.max_summands + 1):
        for u_words in itertools.combinations(words, r):
            u = Term(u_words)
            lanes = [(c, judges[c], bulk.absorbs, bulk.term_vector(u)) for c, bulk in enumerate(bulks)]
            for q, qvec in zip(words, qvecs):
                si = SimpleIdentity(u, q)
                for c, judge, absorbs, uvec in lanes:
                    claim = judge(si).holds
                    truth = absorbs(uvec, qvec[c])
                    counts[c] += truth
                    if claim != truth:
                        disagreements.append(
                            {"lemma": names[c], "identity": str(si), "criterion": claim, "oracle": truth}
                        )
    elapsed = time.monotonic() - start
    checked = identities * len(names)
    payload = {
        "comparisons": checked,
        "identities": identities,
        "holds": dict(zip(names, counts)),
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
    return payload, "\n".join(lines), not disagreements


def _cmd_criteria(args):
    given = [name for name in _SWEEP_DEFAULTS if getattr(args, name) is not None]
    if args.sweep:
        for name in _SWEEP_DEFAULTS.keys() - given:
            setattr(args, name, _SWEEP_DEFAULTS[name])
        return _criteria_sweep(args)
    if not args.lemma or not args.identity:
        raise CliError("give --lemma and --identity, or --sweep")
    if given:
        raise CliError(f"only --sweep takes {', '.join('--' + name.replace('_', '-') for name in given)}")
    si = _parse_simple_identity(args.identity)
    verdict = criteria.check(args.lemma, si)
    payload = {"lemma": args.lemma, "identity": str(si), **verdict.to_dict()}
    text = f"{args.lemma}: {'holds' if verdict.holds else 'fails'} ({verdict.rule})"
    if args.oracle:
        S = catalog.get(args.lemma).semiring
        oracle = check_basis(S, [si.as_identity()]).verdicts[0].to_dict(S)
        agrees = oracle["holds"] == verdict.holds
        payload["oracle"] = {
            "semiring": S.name, "holds": oracle["holds"], "witness": oracle["witness"], "agrees": agrees
        }
        text += f"; oracle {'holds' if oracle['holds'] else 'fails'}"
        text += " (agreement)" if agrees else " (DISAGREEMENT)"
    return payload, text, verdict.holds


def _cmd_nfb_check(args):
    S = resolve_ref(args.semiring)
    report = construct.nfb_witness(S)
    payload = {"semiring": S.name, **report.to_dict()}
    text = (
        f"noncyclic elements form an order ideal: {report.noncyclic_order_ideal}\n"
        f"S7-style subsemiring embeds: {report.s7_embedding is not None}\n"
        f"nonfinite-basis witness: {report.conclusion}"
    )
    return payload, text, report.conclusion


def _cmd_catalog_list(args):
    rows = catalog.entries(order=args.order, status=args.status, flat=args.flat)
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
    return payload, "\n".join(lines), True


def _cmd_catalog_show(args):
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
    return payload, text, True


def _cmd_catalog_verify(args):
    results = catalog.verify_all_claims()
    ok = all(r.ok for r in results)
    payload = {"all_ok": ok, "results": [r.to_dict() for r in results]}
    lines = [f"{'pass' if r.ok else 'FAIL'}  {r.entry}: {r.claim.label}" for r in results]
    lines.append(f"{sum(r.ok for r in results)}/{len(results)} claims pass")
    return payload, "\n".join(lines), ok


def _cmd_cert_list(args):
    names = derivation.bundled_certificate_names()
    return {"bundled": list(names)}, "\n".join(names), True


def _cmd_cert_verify(args):
    if _is_path(args.path):
        cert = _load(args.path, derivation.certificate_from_dict, "certificate")
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
    return payload, text, verdict.valid


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aisemiring",
        description="Workbench for finite additively idempotent semirings.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(group, name, fn, help=None):
        """A leaf parser: it takes --json and runs fn."""
        p = group.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        p.set_defaults(fn=fn)
        return p

    p = command(commands, "validate", _cmd_validate, "check the ai-semiring laws")
    p.add_argument("semiring", help="catalog name, @constructor, or JSON file")

    p = command(commands, "enumerate", _cmd_enumerate, "census of ai-semirings up to isomorphism")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--height1", action="store_true", help="only additive height 1")
    p.add_argument("--count-only", action="store_true", help="leave the keys out of the --json payload")
    p.add_argument("--out", help="a new or empty directory for semiring JSON files plus an index")
    p.add_argument(
        "--workers",
        type=_at_least_1,
        help="processes that search, this one included, so 2 starts one more; at least 1 "
        "(default: 1 up to order 4, else the processor count)",
    )

    p = command(commands, "check", _cmd_check, "identity or basis satisfaction")
    p.add_argument("--semiring", required=True)
    identities = p.add_mutually_exclusive_group(required=True)
    identities.add_argument("--identity", action="append", help="identity text, repeatable")
    identities.add_argument("--basis", help="use the bundled basis of this catalog entry")

    p = command(commands, "iso", _cmd_iso, "search for an isomorphism")
    p.add_argument("first")
    p.add_argument("second")

    p = command(commands, "embed", _cmd_embed, "search for an embedding")
    p.add_argument("first", help="the semiring to embed")
    p.add_argument("second", help="the target")

    p = command(commands, "subdirect", _cmd_subdirect, "subdirect embedding into a product")
    p.add_argument("semiring")
    p.add_argument("first")
    p.add_argument("second")

    kinds = commands.add_parser("construct", help="build a derived semiring").add_subparsers(dest="kind", required=True)
    for head, (builder, arity) in catalog.CONSTRUCTORS.items():
        # the same constructors as the @head references, under their kind names
        p = command(kinds, {"flatext": "flat-ext", "prod": "product"}.get(head, head), _cmd_construct)
        if arity:
            p.add_argument("refs", nargs=arity, metavar="REF", help="semiring reference")
        elif head == "flatext":
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--group", dest="text", metavar="zN", help="a cyclic group")
            source.add_argument("--table", help="semigroup JSON file")
        else:
            p.add_argument("--words", dest="text", required=True, help="comma-separated generator words")
        p.add_argument("--out", help="write semiring JSON here")
        p.set_defaults(builder=builder, refs=None, text=None, table=None)

    p = command(commands, "criteria", _cmd_criteria, "syntactic satisfaction criteria")
    p.add_argument("--lemma", type=str.upper, choices=sorted(criteria.CRITERIA))
    p.add_argument("--identity", help="a simple identity u ≈ u + q")
    p.add_argument("--oracle", action="store_true", help="also run the brute-force evaluator")
    p.add_argument(
        "--sweep",
        action="store_true",
        help="compare all ten criteria with exhaustive evaluation on every u ≈ u + q over the pool",
    )
    p.add_argument("--variables", help="sweep variable pool, one letter each (default: xyz)")
    p.add_argument("--max-length", type=_at_least_1, help="longest sweep word (default: 3)")
    p.add_argument("--max-summands", type=_at_least_1, help="most summands in a sweep u (default: 3)")

    p = command(commands, "nfb-check", _cmd_nfb_check, "nonfinite-basis witness")
    p.add_argument("semiring")

    actions = commands.add_parser("catalog", help="named semirings, bases, claims").add_subparsers(
        dest="action", required=True
    )
    p = command(actions, "list", _cmd_catalog_list)
    p.add_argument("--order", type=int)
    p.add_argument("--status", choices=["finitely-based", "nonfinitely-based", "external"])
    p.add_argument("--flat", action="store_true")
    command(actions, "show", _cmd_catalog_show).add_argument("name", help="entry name")
    command(actions, "verify", _cmd_catalog_verify)

    actions = commands.add_parser("cert", help="derivation certificates").add_subparsers(dest="action", required=True)
    command(actions, "list", _cmd_cert_list)
    command(actions, "verify", _cmd_cert_verify).add_argument("path", help="certificate file or bundled name")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, text, holds = args.fn(args)
        if args.json:
            print(json.dumps(payload, indent=1))
        elif text:
            print(text)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return EXIT_OK if holds else EXIT_FALSE
    except BrokenPipeError:
        # the reader of stdout went away (``... | head``): point stdout at
        # devnull, so that flushing what is left at exit raises nothing more
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout without a file descriptor
            pass
        print("error: standard output was closed before the output was written", file=sys.stderr)
        return EXIT_USAGE
    except (CliError, catalog.CatalogError, BudgetExceededError, ValueError, OSError) as exc:
        # MalformedTableError, InvalidSemiringError, TermSyntaxError and
        # MalformedCertificateError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
