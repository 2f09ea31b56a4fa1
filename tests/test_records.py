"""The package's records: twelve field-only ``NamedTuple``s, six dataclasses
that need ``__post_init__`` or fast attribute reads, and an import that
builds none of them from generated code."""

import dataclasses
import importlib
import inspect
import os
import pickle
import subprocess
import sys

import pytest

from aisemiring import catalog, construct, derivation
from aisemiring.census import enumerate_ai_semirings
from aisemiring.core import ValidationReport, natural_order, validate
from aisemiring.evaluate import check_basis
from aisemiring.terms import parse_identity

LIBRARY = ("core", "terms", "evaluate", "census", "construct", "criteria", "derivation", "catalog")

# four check their fields in __post_init__; the last two are read on every criterion call
DATACLASSES = {
    "Morphism", "FiniteSemigroup", "DerivationCertificate", "CatalogEntry",
    "SimpleIdentity", "CriterionVerdict",
}


def _records():
    """One record of each of the twelve kinds, built the way the package builds it."""
    S = catalog.resolve("S_(4,20)")
    entry = catalog.get("S_(4,49)")
    cert = derivation.load_bundled_certificate("idempotent_collapse")
    basis = check_basis(catalog.resolve("S_(4,4)"), [parse_identity("xy = yx"), parse_identity("x = x")])
    return [
        validate(((0, 0), (0, 1)), ((1, 0), (0, 0))),
        S,
        natural_order(S),
        parse_identity("xy = yx"),
        basis.verdicts[1],
        basis,
        enumerate_ai_semirings(2),
        construct.nfb_witness(entry.semiring),
        cert.steps[0],
        derivation.verify_certificate(cert),
        entry.claims[0],
        catalog.verify_claim(entry, entry.claims[0]),
    ]


RECORDS = _records()


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:  # DerivationStep holds a dict, as it did as a dataclass
        return False
    return True


def test_the_package_defines_exactly_six_dataclasses_and_twelve_records():
    defined = [
        cls
        for name in LIBRARY
        for cls in vars(importlib.import_module(f"aisemiring.{name}")).values()
        if inspect.isclass(cls) and cls.__module__ == f"aisemiring.{name}"
    ]
    assert {cls.__name__ for cls in defined if dataclasses.is_dataclass(cls)} == DATACLASSES
    named = {cls.__name__ for cls in defined if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert named == {type(r).__name__ for r in RECORDS} and len(named) == 12


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_record_contract(record):
    kind = type(record)
    fields = tuple(getattr(record, f) for f in kind._fields)
    first = kind._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, fields[0])
    assert not hasattr(record, "__dict__")

    # equality and hash go by the field values; a record equals its field tuple and unpacks
    same = kind(*fields)
    assert same == record and same == kind(**dict(zip(kind._fields, fields)))
    assert record == fields and tuple(record) == fields
    *_, last = record
    assert last is fields[-1]
    if _hashable(fields):
        assert hash(same) == hash(record) == hash(fields)

    # _replace returns a new record and leaves the old one as it was
    other = record._replace(**{first: "changed"})
    assert type(other) is kind and other is not record and other != record
    assert getattr(other, first) == "changed" and getattr(record, first) is fields[0]

    assert pickle.loads(pickle.dumps(record)) == record


def test_a_semiring_keeps_its_own_repr_and_renamed_replaces_the_name():
    S = catalog.resolve("S_(4,20)")
    assert repr(S) == "FiniteAiSemiring(S_(4,20), order=4)"
    assert repr(S._replace(name="")) == "FiniteAiSemiring(?, order=4)"
    T = S.renamed("T")
    assert T.name == "T" and T[1:] == S[1:] and S.name == "S_(4,20)"
    assert repr(ValidationReport(True, ())) == "ValidationReport(valid=True, violations=())"


def test_importing_the_library_leaves_heavy_modules_unloaded():
    # -S: no site, so no .pth file loads these modules before the package does
    src = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))
    code = (
        "import sys\n"
        + "".join(f"import aisemiring.{name}\n" for name in LIBRARY)
        + "print(sorted({'importlib.resources', 'multiprocessing', 'pickle'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
