"""The benchmark's three workloads and their traced variants.

census    serial censuses of orders 1-4 and the order-4 census with
          min(2, nproc) workers, repeated; the traced run adds the serial
          order-5 census.  The census stages do all the work, and
          evaluation, criteria and homomorphism search do none.
queries   one client issues single workbench queries in a closed loop:
          identity checks through parse_identity and counterexample,
          homomorphism queries and a light tail of classify, validate and
          certificate checks.  The exhaustive evaluator dominates; the
          census does no work.
criteria  simple identities u = u + q judged by all ten syntactic criteria
          and by the bulk evaluator oracle, as scripts/criteria_sweep.py
          does.  Criteria, term measures and whole-vector evaluation
          dominate; counterexample and the census do no work.

The program is called only through its public API, always through the
module attribute (``evaluate.counterexample``, not a local alias), so the
traced runs can wrap it there.  Every output is checked after the timed
region; a wrong answer counts as a failed operation.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from aisemiring import catalog, census, construct, core, criteria, derivation, evaluate, terms

import checks
import inputs
import hostspeed
from hostspeed import HostSpeed
from tracing import NoTracer

WORKLOADS = ("queries", "criteria", "census")
CENSUS_ORDER = 5
TRACED_REPEATS = {"census": 4, "queries": 4, "criteria": 4}

# --seconds sets a fixed amount of work: the number of units (census: a serial
# pass over orders 1-4 plus the parallel order-4 census; queries: one pass
# over the query list; criteria: one batch) that a run of that length completes on the
# reference machine (2 vCPU Xeon, Python 3.11), generation and checks
# included.  Both sides of a comparison then do the same work, whatever their
# speed, so counts and memory compare.
NOMINAL_UNIT_S = {"census": 1.15, "queries": 2.8, "criteria": 0.4}
CENSUS_SAMPLES = 3  # host-speed samples between two census calls


def units(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_UNIT_S[workload]))


# Every workload reports every end-to-end metric, each in its own terms:
#   setup_s      median over fresh processes of import plus workload set-up
#   batch_s      median batch: census, the order-4 census on min(2, nproc)
#                workers; queries, one pass over the query list (the sum of
#                its query latencies); criteria, one batch of rows
#   op_p50_ms    median operation: census, a serial pass over orders 1-4;
#                queries, one query; criteria, one row (u with its q sample
#                judged by every criterion and the oracle)
#   peak_rss_mb  peak RSS of the run plus its largest child process
# Every time is taken at quiet-host speed: divided by the host factor of
# hostspeed.py measured in the same stretch of the run (setup_s: in the same
# process, right after the set-up).  Raw wall times, medians and high
# percentiles are in the report lines.
END_TO_END = {"setup_s": "s", "batch_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "census.enumerate_s": "s",
    "census.search_self_s": "s",
    "census.semilattices_s": "s",
    "census.labeled_tables": "count",
    "census.classes": "count",
    "census.height1": "count",
    "census.distinct_ratio": "ratio",
    "census.cpu_s": "s",
    "core.validate_s": "s",
    "core.validate_calls": "count",
    "core.canonical_form_s": "s",
    "core.canonical_form_calls": "count",
    "core.additive_height_s": "s",
    "core.hom_search_s": "s",
    "core.hom_search_calls": "count",
    "core.hom_found_ratio": "ratio",
    "construct.nfb_witness_s": "s",
    "evaluate.counterexample_s": "s",
    "evaluate.counterexample_calls": "count",
    "evaluate.assignments": "count",
    "evaluate.assignments_per_s": "1/s",
    "evaluate.bulk_vector_s": "s",
    "evaluate.absorbs_s": "s",
    "evaluate.absorbs_calls": "count",
    **{f"criteria.{name}_s": "s" for name in ("L2", "R2", "M2", "D2", "N2", "T2", "S2", "S4", "S6", "S10")},
    "criteria.calls": "count",
    "criteria.holds_ratio": "ratio",
    "terms.parse_s": "s",
    "terms.parse_calls": "count",
    "terms.term_build_s": "s",
    "catalog.build_s": "s",
    "construct.build_s": "s",
    "catalog.classify_s": "s",
    "derivation.verify_s": "s",
    "trace.overhead_ratio": "ratio",
}


def nproc() -> int:
    return len(hostspeed.ALL_CPUS)


def census_workers() -> int:
    return min(2, nproc())


@dataclass
class Ops:
    """Attempted and failed operations, latencies per kind, first errors."""

    attempted: int = 0
    failed: int = 0
    latency: dict = field(default_factory=lambda: defaultdict(list))
    batches: list = field(default_factory=list)  # wall time of each batch
    errors: list = field(default_factory=list)
    factors: list = field(default_factory=list)  # host factor of each batch
    scaled_batches: list = field(default_factory=list)  # batch_s samples
    scaled_ops: list = field(default_factory=list)  # op_p50_ms samples, in seconds

    def scale(self, factor: float, batch: float, op_seconds, op_factor=None) -> None:
        """Record one batch and its operations at quiet-host speed; the
        operations ran in a stretch of factor ``op_factor`` if it is given."""
        op_factor = op_factor or factor
        self.factors.append(factor)
        self.scaled_batches.append(batch / factor)
        self.scaled_ops.extend(s / op_factor for s in op_seconds)

    def record(self, kind: str, seconds, error) -> None:
        self.attempted += 1
        if seconds is not None:
            self.latency[kind].append(seconds)
        if error:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {error}")


def _guard(check, *args):
    try:
        return check(*args)
    except Exception as exc:  # a crashing checker is a failed operation too
        return f"check raised {exc!r}"


def _semiring(tables) -> core.FiniteAiSemiring:
    add, mul = tables
    return core.FiniteAiSemiring(name="", elements=tuple(str(i) for i in range(len(add))), add=add, mul=mul)


def _tables(S) -> tuple:
    return (S.add, S.mul)


# ---------------------------------------------------------------------------
# set-up


@dataclass
class QueryWorld:
    templates: list
    pool_by_order: dict
    orders: list
    subdirect_claims: list
    s7_source: tuple
    classifiable: list
    certificates: list


@dataclass
class CriteriaWorld:
    names: list
    oracles: dict


class _BulkOracle:
    def __init__(self, S, letters):
        self.bulk = evaluate.BulkEvaluator(S, letters)

    def verdicts(self, u, sis):
        bulk = self.bulk
        base = bulk.term_vector(u)
        return [bulk.absorbs(base, bulk.word_vector(si.extra)) for si in sis]


class _ScanOracle:
    """Oracle for a program without BulkEvaluator: the exhaustive checker."""

    def __init__(self, S):
        self.S = S

    def verdicts(self, u, sis):
        return [evaluate.satisfies(self.S, si.as_identity()) for si in sis]


def _build_catalog() -> None:
    catalog.names()
    catalog.classify(catalog.get("S7").semiring)  # builds the key index


def setup(workload: str, tracer):
    """Program set-up a fresh process pays before its first timed operation."""
    if workload == "census":
        return None
    with tracer.span("catalog.build"):
        _build_catalog()
    if workload == "criteria":
        names = list(criteria.CRITERIA)
        letters = tuple(inputs.CRITERIA_LETTERS)
        oracles = {}
        for name in names:
            S = catalog.get(name).semiring
            oracles[name] = _BulkOracle(S, letters) if hasattr(evaluate, "BulkEvaluator") else _ScanOracle(S)
        return CriteriaWorld(names, oracles)
    return _query_world(tracer)


def _query_world(tracer) -> QueryWorld:
    entries = {name: catalog.get(name) for name in catalog.names()}
    get = lambda name: entries[name].semiring  # noqa: E731
    with tracer.span("construct.build"):
        built = list(census.enumerate_ai_semirings(3).semirings)
        order4 = [get(f"S_(4,{k})") for k in range(1, 59)]
        built += [core.dual(S) for S in order4]
        flat = [e.semiring for e in entries.values() if construct.is_flat(e.semiring)]
        built += [construct.null_extension(S) for S in flat] + [construct.idempotent_extension(S) for S in flat]
        built += [construct.sc("ab"), construct.s("ab"), construct.mc("a"), construct.m("aa"), construct.s("abc")]
        built += [construct.sc("aab"), construct.mc("ab"), construct.s("aba")]
        built += [construct.flat_from_semigroup(construct.cyclic_group_with_zero(k)) for k in range(2, 8)]
        pairs = [("L2", "S7"), ("T2", "S2"), ("S2", "S4"), ("S7", "S10"), ("M2", "S_(4,12)"), ("D2", "S_(4,20)")]
        pairs += [("S7", "S_(4,31)"), ("S4", "S_(4,47)"), ("S_(4,12)", "S_(4,41)"), ("S_(4,20)", "S_(4,49)")]
        built += [core.direct_product(get(a), get(b)) for a, b in pairs]
        s7 = construct.mc("a")
        certificates = []
        for name in derivation.bundled_certificate_names():
            cert = derivation.load_bundled_certificate(name)
            certificates.append((cert, True))
            fresh = terms.Term((terms.Word(("z9",)),))  # a summand no step can produce
            broken = derivation.DerivationCertificate(
                axioms=cert.axioms, chain=cert.chain[:-1] + (cert.chain[-1] + fresh,), steps=cert.steps
            )
            certificates.append((broken, False))

    pool_by_order = defaultdict(list)
    for S in [e.semiring for e in entries.values()] + built:
        pool_by_order[S.order].append(_tables(S))
    templates = []
    for name in catalog.BASIS_NAMES:
        entry = entries[name]
        for identity in entry.basis:
            lhs = tuple(w.letters for w in identity.lhs.words)
            rhs = tuple(w.letters for w in identity.rhs.words)
            templates.append((_tables(entry.semiring), lhs, rhs, tuple(sorted(identity.variables))))
    claims = []
    for entry in entries.values():
        for claim in entry.claims:
            if claim.kind == "subdirect-in":
                a, b = (get(x) for x in claim.args)
                claims.append((_tables(entry.semiring), _tables(a), _tables(b)))
    return QueryWorld(
        templates=templates,
        pool_by_order=dict(pool_by_order),
        orders=sorted(pool_by_order),
        subdirect_claims=claims,
        s7_source=_tables(s7),
        classifiable=[(name, _tables(e.semiring)) for name, e in entries.items()],
        certificates=certificates,
    )


# ---------------------------------------------------------------------------
# census


def _census_error(order: int, result) -> str | None:
    if isinstance(result, Exception):
        return f"raised {result!r}"
    keys = checks.class_keys([_tables(S) for S in result.semirings])
    return checks.check_census_result(order, result.count, len(result.height1), keys)


def _census_call(order: int, workers: int, clear):
    """One census as a fresh process would run it: semilattice cache cleared."""
    if clear is not None:
        clear()
    try:
        return census.enumerate_ai_semirings(order, workers=workers)
    except Exception as exc:
        return exc


def _census_pass(ops: Ops, clear, orders, speed=None) -> tuple[float, list]:
    """Serial censuses of ``orders``; returns the sum of their wall times.
    With ``speed``, host-speed samples are taken between the calls."""
    elapsed, results = 0.0, []
    for k in orders:
        if speed is not None:
            speed.sample(CENSUS_SAMPLES)
        t0 = time.perf_counter()
        results.append(_census_call(k, 1, clear))
        elapsed += time.perf_counter() - t0
    for k, result in zip(orders, results):
        ops.record("census", None, _guard(_census_error, k, result))
    return elapsed, results


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_census(seconds: float, speed, top: int = 4) -> tuple[Ops, dict]:
    """Each unit is a serial pass over orders 1..top, then the census of
    order ``top`` with min(2, nproc) workers, as the CLI runs it."""
    ops, cores = Ops(), []
    clear = getattr(census.enumerate_semilattices, "cache_clear", None)
    workers = census_workers()
    for _ in range(units("census", seconds)):
        mark = speed.mark()
        serial = _census_pass(ops, clear, range(1, top + 1), speed)[0]
        ops.latency["pass"].append(serial)
        speed.sample(CENSUS_SAMPLES)
        serial_factor = speed.factor(mark)
        mark = speed.mark()
        speed.sample_every_cpu(CENSUS_SAMPLES)
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        with hostspeed.all_cpus():
            result = _census_call(top, workers, clear)
        wall = time.perf_counter() - t0
        speed.sample_every_cpu(CENSUS_SAMPLES)
        cores.append((_cpu_seconds() - cpu0) / wall)
        ops.batches.append(wall)
        ops.record("census", None, _guard(_census_error, top, result))
        ops.scale(speed.factor(mark), wall, [serial], serial_factor)
    return ops, {"census.busy_cores": statistics.median(cores), "workers": workers}


def _overhead(plain: list, traced: list) -> float:
    """Traced over untraced median time, both at quiet-host speed, minus 1."""
    return statistics.median(traced) / statistics.median(plain) - 1


@contextmanager
def _wrapped(tracer, install):
    """Wrap the layer functions ``install`` names for the duration of a block."""
    install(tracer)
    try:
        yield
    finally:
        tracer.restore()


def _wrap_census(tracer) -> None:
    tracer.wrap(census, "enumerate_ai_semirings", "census.enumerate")
    tracer.wrap(census, "enumerate_semilattices", "census.semilattices")
    tracer.wrap(census, "validate", "core.validate")
    tracer.wrap(census, "canonical_form", "core.canonical_form")
    tracer.wrap(census, "additive_height", "core.additive_height")


def trace_census(tracer, big_order: int = CENSUS_ORDER) -> tuple[Ops, dict]:
    """Serial passes over orders 1-4, untraced and traced in alternating
    order after a warm-up pass (for the overhead), then the traced serial
    census of ``big_order``, which must match the reference digest and be
    closed under dual."""
    ops, speed = Ops(), HostSpeed()
    clear = getattr(census.enumerate_semilattices, "cache_clear", None)
    small = range(1, min(big_order, 5))
    _census_pass(ops, clear, small)
    plain, traced, passes = [], [], []
    for index in range(TRACED_REPEATS["census"]):
        for traced_pass in ((False, True) if index % 2 == 0 else (True, False)):
            mark = speed.mark()
            with _wrapped(tracer, _wrap_census) if traced_pass else nullcontext():
                seconds, results = _census_pass(ops, clear, small, speed)
            speed.sample(CENSUS_SAMPLES)
            (traced if traced_pass else plain).append(seconds / speed.factor(mark))
            if traced_pass:
                passes.append(results)
    cpu0, t0 = time.process_time(), time.perf_counter()
    with _wrapped(tracer, _wrap_census):
        big = _census_call(big_order, 1, clear)
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - t0
    ops.record("census", None, _guard(_census_error, big_order, big))
    results = [r for rs in passes for r in rs] + [big]
    results = [r for r in results if not isinstance(r, Exception)]
    if not isinstance(big, Exception):
        tables = [_tables(S) for S in big.semirings]
        ops.record("census", None, _guard(checks.dual_closure_error, tables, checks.class_keys(tables)))
    classes = sum(r.count for r in results)
    totals = tracer.totals()
    labeled = totals.get("core.validate", (0, 0, 0))[2]
    extra = {
        "census.search_self_s": totals.get("census.enumerate", (0, 0, 0))[1],
        "census.labeled_tables": labeled,
        "census.classes": classes,
        "census.height1": sum(len(r.height1) for r in results),
        "census.distinct_ratio": classes / labeled if labeled else 0.0,
        "census.cpu_s": cpu,
        "trace.overhead_ratio": _overhead(plain, traced),
        f"census{big_order}_serial_traced_s": wall,
    }
    return ops, extra


# ---------------------------------------------------------------------------
# queries


def _validate_call(add, mul):
    try:
        return core.validate(add, mul).valid
    except core.MalformedTableError:
        return "malformed"


def _prepare_query(q, world: QueryWorld):
    """(latency kind, timed call, check of its result) for one generated query."""
    kind = q[0]
    if kind == "check":
        _, cls, tables, text, variables, expected = q
        S = _semiring(tables)

        def call():
            identity = terms.parse_identity(text)
            return identity, evaluate.counterexample(S, identity)

        def check(result):
            identity, witness = result
            if tuple(sorted(identity.variables)) != variables:
                return f"parsed variables {sorted(identity.variables)} != {list(variables)}"
            recheck = lambda w: evaluate.eval_term(S, identity.lhs, w) != evaluate.eval_term(S, identity.rhs, w)  # noqa: E731
            return checks.check_identity_result(expected, variables, witness, recheck)

        return ("check_hold" if expected is None else "check_fail"), call, check
    if kind == "iso":
        _, s, t, exists = q
        S, T = _semiring(s), _semiring(t)
        return "hom", lambda: core.find_isomorphism(S, T), lambda r: checks.check_hom_result(
            exists, r and r.mapping, lambda f: checks.is_injective_hom(s, t, f))
    if kind == "embed":
        _, a, b, exists = q
        A, B = _semiring(a), _semiring(b)
        return "hom", lambda: core.find_embedding(A, B), lambda r: checks.check_hom_result(
            exists, r and r.mapping, lambda f: checks.is_injective_hom(a, b, f))
    if kind == "subdirect":
        _, s, a, b, exists = q
        S, A, B = _semiring(s), _semiring(a), _semiring(b)
        prod, nb = checks.product_tables(a, b), len(b[0])

        def verify(f):
            onto = len({p // nb for p in f}) == len(a[0]) and len({p % nb for p in f}) == nb
            return onto and checks.is_injective_hom(s, prod, f)

        return "hom", lambda: core.is_subdirect_embedding(S, A, B), lambda r: checks.check_hom_result(
            exists, r and r.mapping, verify)
    if kind == "nfb":
        _, s, ideal, exists = q
        S = _semiring(s)

        def check(report):
            if report.noncyclic_order_ideal != ideal:
                return f"noncyclic order ideal reported {report.noncyclic_order_ideal}, expected {ideal}"
            emb = report.s7_embedding
            return checks.check_hom_result(
                exists, emb and emb.mapping, lambda f: checks.is_injective_hom(_tables(emb.source), s, f))

        return "hom", lambda: construct.nfb_witness(S), check
    if kind == "classify":
        _, s, name = q
        S = _semiring(s)
        return "tail", lambda: catalog.classify(S), lambda r: None if r == name else f"classified as {r}, not {name}"
    if kind == "validate":
        _, add, mul, expected = q
        return "tail", lambda: _validate_call(add, mul), lambda r: None if r == expected else f"validate gave {r}, expected {expected}"
    _, index, valid = q
    cert = world.certificates[index][0]
    return "tail", lambda: derivation.verify_certificate(cert), lambda r: (
        None if r.valid == valid else f"certificate verdict {r.valid}, expected {valid}")


def _run_query_list(ops: Ops, world: QueryWorld, queries, speed=None) -> tuple[float, list]:
    """Issue the list in a closed loop, then check every answer; returns the
    sum of the query latencies and each query's latency.  With ``speed``,
    host-speed samples are taken between queries."""
    prepared = [_prepare_query(q, world) for q in queries]
    answers = []
    perf = time.perf_counter
    for kind, call, _ in prepared:
        if speed is not None:
            speed.tick()
        t0 = perf()
        try:
            result = call()
        except Exception as exc:
            result = exc
        answers.append((result, perf() - t0))
    latencies = [seconds for _, seconds in answers]
    for (kind, _, check), (result, seconds) in zip(prepared, answers):
        if isinstance(result, Exception):
            ops.record(kind, seconds, f"raised {result!r}")
        else:
            ops.record(kind, seconds, _guard(check, result))
    ops.batches.append(sum(latencies))
    return ops.batches[-1], latencies


def run_queries(world: QueryWorld, seed: int, seconds: float, speed) -> tuple[Ops, list]:
    """The seed's query list, issued again and again.  The query path keeps
    no cache between calls, so every repeat does the same work."""
    ops = Ops()
    queries = inputs.query_list(seed, 0, world)
    for _ in range(units("queries", seconds)):
        mark = speed.mark()
        wall, latencies = _run_query_list(ops, world, queries, speed)
        ops.scale(speed.factor(mark), wall, latencies)
    return ops, [inputs.digest(queries)]


def _wrap_queries(tracer) -> None:
    def found(result):
        if result is not None:
            tracer.counts["core.hom_found"] += 1

    tracer.wrap(terms, "parse_identity", "terms.parse")
    tracer.wrap(evaluate, "counterexample", "evaluate.counterexample")
    for owner, attr in ((core, "find_isomorphism"), (core, "find_embedding"),
                        (core, "is_subdirect_embedding"), (construct, "find_embedding")):
        tracer.wrap(owner, attr, "core.hom_search", on_result=found)
    tracer.wrap(construct, "nfb_witness", "construct.nfb_witness")
    tracer.wrap(catalog, "classify", "catalog.classify")
    tracer.wrap(catalog, "canonical_form", "core.canonical_form")
    tracer.wrap(core, "validate", "core.validate")
    tracer.wrap(derivation, "verify_certificate", "derivation.verify")


def trace_queries(tracer, world: QueryWorld, seed: int) -> tuple[Ops, dict, list]:
    """The seed's query list, untraced and traced in alternating order."""
    ops, speed = Ops(), HostSpeed()
    plain, traced = [], []
    queries = inputs.query_list(seed, 0, world)
    for index in range(TRACED_REPEATS["queries"]):
        for traced_pass in ((False, True) if index % 2 == 0 else (True, False)):
            mark = speed.mark()
            with _wrapped(tracer, _wrap_queries) if traced_pass else nullcontext():
                seconds = _run_query_list(ops, world, queries, speed)[0]
            (traced if traced_pass else plain).append(seconds / speed.factor(mark))
    assignments = sum(
        checks.assignments_scanned(q[5], len(q[2][0]), len(q[4])) for q in queries if q[0] == "check"
    )
    extra = {
        "evaluate.assignments": assignments * len(traced),
        "trace.overhead_ratio": _overhead(plain, traced),
    }
    return ops, extra, [inputs.digest(queries)]


# ---------------------------------------------------------------------------
# criteria


def _criteria_row(world: CriteriaWorld, u_words, qs, tracer) -> list:
    with tracer.span("terms.term_build"):
        u = terms.Term(tuple(terms.Word(w) for w in u_words))
        sis = [terms.SimpleIdentity(u, terms.Word(q)) for q in qs]
    pairs = []
    for name in world.names:
        judge = criteria.CRITERIA[name]
        claims = [judge(si).holds for si in sis]
        pairs.append((name, claims, world.oracles[name].verdicts(u, sis)))
    return pairs


def _run_criteria_batch(ops: Ops, world: CriteriaWorld, rows, tracer, speed=None) -> tuple[float, list]:
    """Judge every row, then check every verdict; returns the sum of the row
    latencies and each row's latency.  With ``speed``, host-speed samples are
    taken between rows."""
    perf = time.perf_counter
    answers = []
    for u_words, qs in rows:
        if speed is not None:
            speed.tick()
        t0 = perf()
        try:
            result = _criteria_row(world, u_words, qs, tracer)
        except Exception as exc:
            result = exc
        answers.append((result, perf() - t0))
    latencies = [seconds for _, seconds in answers]
    for (u_words, qs), (result, seconds) in zip(rows, answers):
        ops.latency["row"].append(seconds)
        if isinstance(result, Exception):
            ops.record("criteria", None, f"raised {result!r}")
            continue
        for name, claims, truths in result:
            for q, claim, truth in zip(qs, claims, truths):
                ops.record("criteria", None, checks.check_verdict(name, u_words, q, claim, truth))
    ops.batches.append(sum(latencies))
    return ops.batches[-1], latencies


def run_criteria(world: CriteriaWorld, seed: int, seconds: float, speed) -> tuple[Ops, list]:
    """Fresh batches only: the program caches term measures and word
    vectors, so a repeated batch would time the warm path."""
    ops, digests = Ops(), []
    for index in range(units("criteria", seconds)):
        rows = inputs.criteria_batch(seed, index)
        digests.append(inputs.digest(rows))
        mark = speed.mark()
        wall, latencies = _run_criteria_batch(ops, world, rows, NoTracer(), speed)
        ops.scale(speed.factor(mark), wall, latencies)
    return ops, digests


def _wrap_criteria(tracer) -> None:
    def holds(verdict):
        tracer.counts["criteria.holds"] += bool(verdict.holds)

    for name in list(criteria.CRITERIA):
        tracer.wrap(criteria.CRITERIA, name, f"criteria.{name}", on_result=holds)
    bulk = getattr(evaluate, "BulkEvaluator", None)
    if bulk is not None:
        tracer.wrap(bulk, "term_vector", "evaluate.bulk_vector")
        tracer.wrap(bulk, "word_vector", "evaluate.bulk_vector")
        tracer.wrap(bulk, "absorbs", "evaluate.absorbs")
    tracer.wrap(evaluate, "counterexample", "evaluate.counterexample")


def trace_criteria(tracer, world: CriteriaWorld, seed: int) -> tuple[Ops, dict, list]:
    """Each batch runs untraced and traced, in alternating order."""
    ops, digests, speed = Ops(), [], HostSpeed()
    plain, traced = [], []
    for index in range(TRACED_REPEATS["criteria"]):
        rows = inputs.criteria_batch(seed, index)
        digests.append(inputs.digest(rows))
        for traced_pass in ((False, True) if index % 2 == 0 else (True, False)):
            mark = speed.mark()
            with _wrapped(tracer, _wrap_criteria) if traced_pass else nullcontext():
                seconds = _run_criteria_batch(ops, world, rows, tracer if traced_pass else NoTracer(), speed)[0]
            (traced if traced_pass else plain).append(seconds / speed.factor(mark))
    return ops, {"trace.overhead_ratio": _overhead(plain, traced)}, digests


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer(tracer, extra: dict) -> dict:
    """Every PER_LAYER metric; a layer the workload did not touch reads 0."""
    totals = tracer.totals()
    time_in = lambda name: totals.get(name, (0.0, 0.0, 0))[0]  # noqa: E731
    calls = lambda name: totals.get(name, (0.0, 0.0, 0))[2]  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    names = [n[len("criteria."):-2] for n in PER_LAYER if n.startswith("criteria.") and n.endswith("_s")]
    criteria_calls = sum(calls(f"criteria.{n}") for n in names)
    values = {
        "census.enumerate_s": time_in("census.enumerate"),
        "census.semilattices_s": time_in("census.semilattices"),
        "core.validate_s": time_in("core.validate"),
        "core.validate_calls": calls("core.validate"),
        "core.canonical_form_s": time_in("core.canonical_form"),
        "core.canonical_form_calls": calls("core.canonical_form"),
        "core.additive_height_s": time_in("core.additive_height"),
        "core.hom_search_s": time_in("core.hom_search"),
        "core.hom_search_calls": calls("core.hom_search"),
        "core.hom_found_ratio": ratio(tracer.counts["core.hom_found"], calls("core.hom_search")),
        "construct.nfb_witness_s": time_in("construct.nfb_witness"),
        "evaluate.counterexample_s": time_in("evaluate.counterexample"),
        "evaluate.counterexample_calls": calls("evaluate.counterexample"),
        "evaluate.bulk_vector_s": time_in("evaluate.bulk_vector"),
        "evaluate.absorbs_s": time_in("evaluate.absorbs"),
        "evaluate.absorbs_calls": calls("evaluate.absorbs"),
        **{f"criteria.{n}_s": time_in(f"criteria.{n}") for n in names},
        "criteria.calls": criteria_calls,
        "criteria.holds_ratio": ratio(tracer.counts["criteria.holds"], criteria_calls),
        "terms.parse_s": time_in("terms.parse"),
        "terms.parse_calls": calls("terms.parse"),
        "terms.term_build_s": time_in("terms.term_build"),
        "catalog.build_s": time_in("catalog.build"),
        "construct.build_s": time_in("construct.build"),
        "catalog.classify_s": time_in("catalog.classify"),
        "derivation.verify_s": time_in("derivation.verify"),
    }
    values.update(extra)
    values["evaluate.assignments"] = values.get("evaluate.assignments", 0)
    values["evaluate.assignments_per_s"] = ratio(values["evaluate.assignments"], values["evaluate.counterexample_s"])
    return {name: values.get(name, 0 if unit == "count" else 0.0) for name, unit in PER_LAYER.items()}
