"""The four transcribed cases of the model family and their multipliers,
residual targets and conserved vectors.

Everything symbolic ships as expression text in two data files:

  * ``data/catalog.txt`` holds the working readings, with the handful of
    documented corrections applied (canonical t-before-x suffixes, the stray
    ``u_{2}`` token read as ``u_t``, one restored sign, one restored
    sigma/x^2 pair, the energy multiplier in the case-1c header);
  * ``data/catalog_raw.txt`` holds those slots exactly as displayed, so the
    corrections stay auditable.  Raw entries are allowed to fail parsing;
    the failure reason is kept on the record.

Every record carries a short anchor quoting the display it transcribes.
Corrections are never silent: a corrected record exists only alongside its
raw counterpart, and the verify layer reports raw-vs-corrected diffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Optional

from .jetexpr import (Expr, ExprError, ParamValues, Var, as_expr, collect_coords,
                      nodes, parse_expr, substitute)

__all__ = [
    "CaseId", "Kind", "CaseSpec", "PdeSystem", "Multiplier", "ConservedVector",
    "EulerResidualTarget", "CatalogRecord", "Catalog", "load_catalog",
]


class CaseId(Enum):
    CASE1A = "case1a"
    CASE1B = "case1b"
    CASE1C = "case1c"
    CASE2 = "case2"

    @classmethod
    def parse(cls, name: str) -> "CaseId":
        text = name.lower().strip()
        if not text.startswith("case"):
            text = "case" + text  # accept the short forms 1a, 1b, 1c, 2
        try:
            return cls(text)
        except ValueError:
            valid = ", ".join(c.value for c in cls)
            raise ValueError(f"unknown case {name!r} (expected one of: {valid})") from None


class Kind(Enum):
    ENERGY = "energy"
    CHARGE = "charge"

    @classmethod
    def parse(cls, name: str) -> "Kind":
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown kind {name!r} (expected one of: {valid})") from None


@dataclass(frozen=True)
class CaseSpec:
    """Potential pair of one case: U(x) = a(x) + i*eps*b(x)."""

    id: CaseId
    a: Expr
    b: Expr
    nonlinearity_coeff: Expr  # 2*sigma*exp(-alpha*x^2); E1/E2 carry the mu^2


@dataclass(frozen=True)
class PdeSystem:
    """E1 and E2, the two components of the real split system."""

    case_id: CaseId
    E1: Expr
    E2: Expr


@dataclass(frozen=True)
class Multiplier:
    kind: Kind
    Q1: Expr
    Q2: Expr


@dataclass(frozen=True)
class ConservedVector:
    """Density Tt, flux Tx (where a complete form is given) and the
    complex-form density rewritten over (u, v), where one is given."""

    case_id: CaseId
    kind: Kind
    Tt: Expr
    Tx: Optional[Expr]
    complex_density: Optional[Expr]


@dataclass(frozen=True)
class EulerResidualTarget:
    """Stated value of delta/delta(u,v)[Q1*E1 + Q2*E2]; `derived` marks the
    one target computed with the engine instead of transcribed."""

    case_id: CaseId
    kind: Kind
    Ru: Expr
    Rv: Expr
    derived: bool = False


@dataclass(frozen=True)
class CatalogRecord:
    case_id: str
    kind: Optional[str]
    slot: str
    text: str
    anchor: str
    expr: Optional[Expr]
    error: Optional[str] = None


_SLOTS = ("a", "b", "E1", "E2", "Q1", "Q2", "Tt", "Tx", "PhiT", "Ru", "Rv")


def _read_records(filename: str, strict: bool) -> list[CatalogRecord]:
    body = resources.files(__package__).joinpath(f"data/{filename}").read_text("utf-8")
    out = []
    for lineno, line in enumerate(body.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|", 4)
        if len(parts) != 5:
            raise ValueError(f"{filename}:{lineno}: expected 5 '|'-separated fields")
        case_id, kind, slot, text, anchor = (p.strip() for p in parts)
        if slot not in _SLOTS:
            raise ValueError(f"{filename}:{lineno}: unknown slot {slot!r}")
        expr = None
        error = None
        try:
            expr = parse_expr(text)
        except ExprError as err:
            if strict:
                raise ValueError(f"{filename}:{lineno}: {err}") from err
            error = str(err)
        out.append(CatalogRecord(case_id, None if kind == "-" else kind,
                                 slot, text, anchor, expr, error))
    return out


class Catalog:
    """Indexed view over the two data files; read-only after construction."""

    def __init__(self):
        self._records = _read_records("catalog.txt", strict=True)
        self._raw = _read_records("catalog_raw.txt", strict=False)
        self._by_key = {(r.case_id, r.kind, r.slot): r for r in self._records}
        self._raw_by_key = {(r.case_id, r.kind, r.slot): r for r in self._raw}
        self._cases = {}
        for cid in CaseId:
            a = self._by_key[(cid.value, None, "a")].expr
            b = self._by_key[(cid.value, None, "b")].expr
            for name, e in (("a", a), ("b", b)):
                if collect_coords(e):
                    raise ValueError(f"{cid.value}: {name} must not contain jet coordinates")
                if Var("t") in nodes(e):
                    raise ValueError(f"{cid.value}: {name} must not depend on t")
            self._cases[cid] = CaseSpec(cid, a, b, parse_expr("2*sigma*exp(-alpha*x^2)"))

    def records(self) -> tuple[CatalogRecord, ...]:
        return tuple(self._records)

    def raw_readings(self) -> tuple[CatalogRecord, ...]:
        return tuple(self._raw)

    def raw_reading(self, case_id: CaseId, kind: Optional[Kind], slot: str) -> Optional[CatalogRecord]:
        return self._raw_by_key.get((case_id.value, kind.value if kind else None, slot))

    def corrected_reading(self, case_id: CaseId, kind: Optional[Kind], slot: str) -> Optional[CatalogRecord]:
        return self._by_key.get((case_id.value, kind.value if kind else None, slot))

    def case(self, case_id: CaseId) -> CaseSpec:
        return self._cases[case_id]

    def cases(self) -> tuple[CaseSpec, ...]:
        return tuple(self._cases[cid] for cid in CaseId)

    def multiplier(self, kind: Kind) -> Multiplier:
        q1 = self._by_key[("all", kind.value, "Q1")].expr
        q2 = self._by_key[("all", kind.value, "Q2")].expr
        return Multiplier(kind, q1, q2)

    def build_system(self, case_id: CaseId, params: Optional[ParamValues] = None) -> PdeSystem:
        """The split system of a case, as stored in its E1/E2 records.  With
        `params` given, the five model parameters are substituted numerically
        (eps=0 removes the b-terms outright, since they fold away with the
        zero factor)."""
        e1 = self._by_key[(case_id.value, None, "E1")].expr
        e2 = self._by_key[(case_id.value, None, "E2")].expr
        if params is not None:
            binds = {name: as_expr(params.get(name))
                     for name in ("eps", "mu", "sigma", "alpha", "g")}
            e1 = substitute(e1, binds)
            e2 = substitute(e2, binds)
        return PdeSystem(case_id, e1, e2)

    def conserved_vector(self, case_id: CaseId, kind: Kind) -> Optional[ConservedVector]:
        """The block's Tt, Tx and PhiT records where shipped; None without Tt."""
        tt, tx, phi = (self._by_key.get((case_id.value, kind.value, slot))
                       for slot in ("Tt", "Tx", "PhiT"))
        if tt is None:
            return None
        return ConservedVector(case_id, kind, tt.expr, tx and tx.expr, phi and phi.expr)

    def residual_target(self, case_id: CaseId, kind: Kind) -> Optional[EulerResidualTarget]:
        """Transcribed residual targets only; the case-1b charge target is
        not displayed anywhere and lives behind derived_residual instead."""
        rec = self._by_key.get((case_id.value, kind.value, "Ru"))
        if rec is None or rec.anchor.startswith("derived:"):
            return None
        rv = self._by_key[(case_id.value, kind.value, "Rv")]
        return EulerResidualTarget(case_id, kind, rec.expr, rv.expr, derived=False)

    def derived_residual(self, case_id: CaseId, kind: Kind) -> Optional[EulerResidualTarget]:
        rec = self._by_key.get((case_id.value, kind.value, "Ru"))
        if rec is None or not rec.anchor.startswith("derived:"):
            return None
        rv = self._by_key[(case_id.value, kind.value, "Rv")]
        return EulerResidualTarget(case_id, kind, rec.expr, rv.expr, derived=True)

    def any_residual_target(self, case_id: CaseId, kind: Kind) -> EulerResidualTarget:
        target = self.residual_target(case_id, kind) or self.derived_residual(case_id, kind)
        if target is None:
            raise KeyError(f"no residual target for {case_id.value}/{kind.value}")
        return target


@lru_cache(maxsize=1)
def load_catalog() -> Catalog:
    return Catalog()
