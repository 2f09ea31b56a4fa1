import pytest

from aisemiring import catalog
from aisemiring.derivation import (
    DerivationCertificate,
    DerivationStep,
    MalformedCertificateError,
    bundled_certificate_names,
    certificate_from_dict,
    certificate_to_dict,
    load_bundled_certificate,
    verify_certificate,
)
from aisemiring.evaluate import satisfies
from aisemiring.terms import parse_identity, parse_term


def test_bundled_certificates_verify():
    names = bundled_certificate_names()
    assert len(names) >= 3
    for name in names:
        cert = load_bundled_certificate(name)
        verdict = verify_certificate(cert)
        assert verdict.valid, (name, verdict.reason)


def test_a_bundled_certificate_is_loaded_only_by_a_listed_name():
    assert "square_swallows_overlap" in bundled_certificate_names()
    for name in ("../certs/square_swallows_overlap", "certs/../square_swallows_overlap", "no_such_cert", ""):
        with pytest.raises(FileNotFoundError):
            load_bundled_certificate(name)


def test_bundled_certificates_are_sound(cat):
    for name in bundled_certificate_names():
        cert = load_bundled_certificate(name)
        for entry in cat.values():
            S = entry.semiring
            if all(satisfies(S, axiom) for axiom in cert.axioms):
                assert satisfies(S, cert.endpoints), (name, entry.name)


def test_idempotence_collapse_certificate():
    cert = certificate_from_dict(
        {
            "axioms": ["x + x = x"],
            "chain": ["a + a", "a"],
            "steps": [{"axiom": 0, "dir": "LR", "subst": {"x": "a"}}],
        }
    )
    assert cert.chain[0] == cert.chain[1] == parse_term("a")
    assert verify_certificate(cert).valid


def test_step_orientation_symmetry():
    base = {
        "axioms": ["x + xy = x^2"],
        "chain": ["x + xy", "x^2"],
        "steps": [{"axiom": 0, "dir": "LR", "subst": {"x": "x", "y": "y"}}],
    }
    assert verify_certificate(certificate_from_dict(base)).valid
    flipped = {
        "axioms": ["x + xy = x^2"],
        "chain": ["x^2", "x + xy"],
        "steps": [{"axiom": 0, "dir": "RL", "subst": {"x": "x", "y": "y"}}],
    }
    assert verify_certificate(certificate_from_dict(flipped)).valid


def test_step_that_does_not_check():
    cert = certificate_from_dict(
        {
            "axioms": ["x + x = x"],
            "chain": ["a", "b"],
            "steps": [{"axiom": 0, "dir": "LR", "subst": {"x": "a"}}],
        }
    )
    verdict = verify_certificate(cert)
    assert not verdict.valid and verdict.failed_step == 0


def test_axiom_index_out_of_range_is_invalid_at_that_step():
    cert = certificate_from_dict(
        {
            "axioms": ["x + x = x"],
            "chain": ["a", "a"],
            "steps": [{"axiom": 3, "dir": "LR", "subst": {"x": "a"}}],
        }
    )
    verdict = verify_certificate(cert)
    assert not verdict.valid and verdict.failed_step == 0
    assert "axiom index" in verdict.reason


def test_malformed_substitution_raises():
    cert = certificate_from_dict(
        {
            "axioms": ["x + y = x"],
            "chain": ["a + b", "a"],
            "steps": [{"axiom": 0, "dir": "LR", "subst": {"x": "a"}}],
        }
    )
    with pytest.raises(MalformedCertificateError):
        verify_certificate(cert)


def test_wrongly_typed_fields_are_malformed():
    good = {"axiom": 0, "dir": "LR", "subst": {"x": "a", "y": "b"}}
    for bad in ({"axiom": "0"}, {"axiom": 0.0}, {"axiom": True}, {"subst": 0}, {"left": [0]}):
        data = {"axioms": ["xy = yx"], "chain": ["ab", "ba"], "steps": [{**good, **bad}]}
        with pytest.raises(MalformedCertificateError):
            certificate_from_dict(data)
    with pytest.raises(MalformedCertificateError):
        certificate_from_dict({"axioms": ["xy = yx"], "chain": ["ab", "ba"], "steps": ["step"]})


def test_context_products_are_bounded():
    # σ(x) = a + b raised to the 1024th power would have 2^1024 summands
    data = {"axioms": ["x^1024 = x"], "chain": ["a", "a"], "steps": [{"axiom": 0, "subst": {"x": "a + b"}}]}
    with pytest.raises(ValueError, match="more than 4096 summands"):
        verify_certificate(certificate_from_dict(data))
    data = {"axioms": ["x = x"], "chain": ["a", "a"], "steps": [{"axiom": 0, "subst": {"x": "(a+b)^12"}, "left": "c + d"}]}
    with pytest.raises(ValueError, match="more than 4096 summands"):
        verify_certificate(certificate_from_dict(data))


def test_chain_step_count_mismatch():
    with pytest.raises(MalformedCertificateError):
        certificate_from_dict({"axioms": [], "chain": ["a", "b"], "steps": []})
    with pytest.raises(MalformedCertificateError):
        certificate_from_dict({"axioms": [], "chain": [], "steps": []})


def test_context_multipliers_and_remainder():
    cert = certificate_from_dict(
        {
            "axioms": ["xy = yx"],
            "chain": ["cabd + e", "cbad + e"],
            "steps": [
                {
                    "axiom": 0,
                    "dir": "LR",
                    "subst": {"x": "a", "y": "b"},
                    "left": "c",
                    "right": "d",
                    "remainder": "e",
                }
            ],
        }
    )
    assert verify_certificate(cert).valid
    assert cert.endpoints == parse_identity("cabd + e ≈ cbad + e")


def test_roundtrip_encoding():
    cert = load_bundled_certificate("square_swallows_overlap")
    again = certificate_from_dict(certificate_to_dict(cert))
    assert again == cert
    assert verify_certificate(again).valid
