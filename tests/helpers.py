"""Helpers shared by several test modules."""

from dataclasses import fields

from ptnls.catalog import CaseId, Kind, PdeSystem, load_catalog
from ptnls.jetexpr import ParamValues, substitute


def with_params(system: PdeSystem, params: ParamValues) -> PdeSystem:
    """The system with the five model parameters substituted numerically
    (eps = 0 removes the b-terms outright, since they fold away with the
    zero factor)."""
    binds = {f.name: params.get(f.name) for f in fields(ParamValues)}
    return PdeSystem(system.case_id, substitute(system.E1, binds),
                     substitute(system.E2, binds))


def cataloged_densities() -> list:
    """(case, kind, form) of every density the catalog holds."""
    cat = load_catalog()
    out = []
    for case_id in CaseId:
        for kind in Kind:
            cv = cat.conserved_vector(case_id, kind)
            if cv is not None:
                out += [(case_id, kind, form) for form, e in
                        (("Tt", cv.Tt), ("PhiT", cv.complex_density)) if e is not None]
    return out
