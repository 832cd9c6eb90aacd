"""Helpers shared by several test modules."""

from dataclasses import fields

from ptnls.catalog import PdeSystem
from ptnls.jetexpr import ParamValues, substitute


def with_params(system: PdeSystem, params: ParamValues) -> PdeSystem:
    """The system with the five model parameters substituted numerically
    (eps = 0 removes the b-terms outright, since they fold away with the
    zero factor)."""
    binds = {f.name: params.get(f.name) for f in fields(ParamValues)}
    return PdeSystem(system.case_id, substitute(system.E1, binds),
                     substitute(system.E2, binds))
