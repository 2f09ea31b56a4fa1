"""Verify equational-logic derivation certificates.

A certificate presents a chain of terms T1..Tn and, for each step, an axiom
instance rewritten inside a sum-product context: Ti = P·σ(A)·Q + R and
Ti+1 = P·σ(B)·Q + R, where A ≈ B is a cited axiom used in either direction,
P and Q may be absent (no multiplier) and R may be absent (no remainder).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .terms import Identity, Term, bounded_product, parse_identity, parse_term, substitute


class MalformedCertificateError(ValueError):
    """Structurally broken certificate (distinct from a step that fails to check)."""


@dataclass(frozen=True)
class DerivationStep:
    axiom: int
    direction: str  # "LR" rewrites lhs into rhs, "RL" the reverse
    substitution: dict[str, Term]
    left: Optional[Term]
    right: Optional[Term]
    remainder: Optional[Term]


@dataclass(frozen=True)
class DerivationCertificate:
    axioms: tuple[Identity, ...]
    chain: tuple[Term, ...]
    steps: tuple[DerivationStep, ...]

    def __post_init__(self):
        if not self.chain:
            raise MalformedCertificateError("chain must be nonempty")
        if len(self.steps) != len(self.chain) - 1:
            raise MalformedCertificateError(
                f"{len(self.chain)} chain terms need {len(self.chain) - 1} steps, "
                f"got {len(self.steps)}"
            )
        for i, step in enumerate(self.steps):
            if type(step.axiom) is not int:  # JSON true or 0.0 is no index
                raise MalformedCertificateError(f"step {i}: axiom index {step.axiom!r} is not an integer")

    @property
    def endpoints(self) -> Identity:
        return Identity(self.chain[0], self.chain[-1])


@dataclass(frozen=True)
class CertificateVerdict:
    valid: bool
    failed_step: Optional[int]
    reason: Optional[str]

    def to_dict(self) -> dict:
        return {"valid": self.valid, "failed_step": self.failed_step, "reason": self.reason}


def _step_side(step: DerivationStep, body: Term) -> Term:
    out = substitute(body, step.substitution)
    if step.left is not None:
        out = bounded_product(step.left, out)
    if step.right is not None:
        out = bounded_product(out, step.right)
    if step.remainder is not None:
        out = out + step.remainder
    return out


def verify_step(cert: DerivationCertificate, i: int) -> Optional[str]:
    """None if step i checks, else the reason it does not."""
    step = cert.steps[i]
    if not 0 <= step.axiom < len(cert.axioms):
        return f"axiom index {step.axiom} not among the {len(cert.axioms)} axioms"
    if step.direction not in ("LR", "RL"):
        raise MalformedCertificateError(f"step {i}: direction must be LR or RL")
    axiom = cert.axioms[step.axiom]
    a_side, b_side = (axiom.lhs, axiom.rhs) if step.direction == "LR" else (axiom.rhs, axiom.lhs)
    missing = (a_side.variables | b_side.variables) - set(step.substitution)
    if missing:
        raise MalformedCertificateError(
            f"step {i}: substitution missing variables {sorted(missing)}"
        )
    if _step_side(step, a_side) != cert.chain[i]:
        return f"P·σ(A)·Q + R does not equal chain term {i}"
    if _step_side(step, b_side) != cert.chain[i + 1]:
        return f"P·σ(B)·Q + R does not equal chain term {i + 1}"
    return None


def verify_certificate(cert: DerivationCertificate) -> CertificateVerdict:
    for i in range(len(cert.steps)):
        reason = verify_step(cert, i)
        if reason is not None:
            return CertificateVerdict(valid=False, failed_step=i, reason=reason)
    return CertificateVerdict(valid=True, failed_step=None, reason=None)


# ---------------------------------------------------------------------------
# JSON encoding


def _opt_term(value) -> Optional[Term]:
    return None if value is None else parse_term(value)


def certificate_from_dict(data: dict) -> DerivationCertificate:
    try:
        axioms = tuple(parse_identity(t) for t in data["axioms"])
        chain = tuple(parse_term(t) for t in data["chain"])
        steps = tuple(
            DerivationStep(
                axiom=raw["axiom"],
                direction=raw.get("dir", "LR"),
                substitution={x: parse_term(t) for x, t in raw["subst"].items()},
                left=_opt_term(raw.get("left")),
                right=_opt_term(raw.get("right")),
                remainder=_opt_term(raw.get("remainder")),
            )
            for raw in data["steps"]
        )
    except (KeyError, TypeError, AttributeError) as exc:  # a missing key or a value of the wrong type
        raise MalformedCertificateError(f"bad certificate structure: {exc}") from exc
    return DerivationCertificate(axioms=axioms, chain=chain, steps=steps)


def certificate_to_dict(cert: DerivationCertificate) -> dict:
    return {
        "axioms": [str(a) for a in cert.axioms],
        "chain": [str(t) for t in cert.chain],
        "steps": [
            {
                "axiom": s.axiom,
                "dir": s.direction,
                "subst": {x: str(t) for x, t in s.substitution.items()},
                "left": None if s.left is None else str(s.left),
                "right": None if s.right is None else str(s.right),
                "remainder": None if s.remainder is None else str(s.remainder),
            }
            for s in cert.steps
        ],
    }


def bundled_certificate_names() -> tuple[str, ...]:
    pkg = resources.files(__package__) / "certs"
    return tuple(sorted(p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json")))


def load_bundled_certificate(name: str) -> DerivationCertificate:
    """The bundled certificate of a name that ``bundled_certificate_names``
    lists; any other name, a path among them, raises FileNotFoundError."""
    if name not in bundled_certificate_names():
        raise FileNotFoundError(f"no bundled certificate {name!r}")
    pkg = resources.files(__package__) / "certs" / f"{name}.json"
    return certificate_from_dict(json.loads(pkg.read_text(encoding="utf-8")))
