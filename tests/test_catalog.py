"""Catalog integrity: record parsing, case data, corrected-vs-raw readings."""

import numpy as np
import pytest

from ptnls.catalog import CaseId, Kind, PdeSystem, load_catalog
from ptnls.jetexpr import (JetSampler, ParamValues, Var, collect_coords,
                           contains_t_derivative, eval_expr, expr_equiv,
                           parse_expr, to_text)

from helpers import with_params

CAT = load_catalog()

ALL_BLOCKS = [(c, k) for c in CaseId for k in Kind]


def test_case_id_parsing():
    assert CaseId.parse("1a") is CaseId.CASE1A
    assert CaseId.parse("case2") is CaseId.CASE2
    assert Kind.parse("Energy") is Kind.ENERGY
    with pytest.raises(ValueError, match="unknown case"):
        CaseId.parse("9")
    with pytest.raises(ValueError):
        Kind.parse("momentum")


def test_every_corrected_record_parses():
    records = CAT.records()
    assert len(records) == 49
    for rec in records:
        assert rec.expr is not None, f"{rec.case_id}/{rec.kind}/{rec.slot}: {rec.error}"


def test_raw_readings_parse_status():
    raws = CAT.raw_readings()
    assert len(raws) == 7
    bad = {(r.case_id, r.kind, r.slot) for r in raws if r.expr is None}
    # exactly the three displays with ungrammatical derivative tokens
    assert bad == {
        ("case1a", "energy", "Tx"),
        ("case1b", "energy", "Tt"),
        ("case2", "energy", "Tx"),
    }
    for r in raws:
        if r.expr is None:
            assert "offset" in r.error


def test_potentials_are_spatial_only():
    for spec in CAT.cases():
        for e in (spec.a, spec.b):
            assert not collect_coords(e)
            assert not contains_t_derivative(e)
            assert "t" not in {v.name for v in _vars(e)}


def _vars(e):
    out = []
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Var):
            out.append(n)
        for attr in ("arg", "lhs", "rhs"):
            child = getattr(n, attr, None)
            if child is not None:
                stack.append(child)
    return out


def test_case_potentials_match_known_forms():
    assert expr_equiv(CAT.case(CaseId.CASE1A).a, parse_expr("1/2*x^2"))
    assert expr_equiv(CAT.case(CaseId.CASE1A).b, parse_expr("x"))
    assert expr_equiv(CAT.case(CaseId.CASE1B).b,
                      parse_expr("-(alpha+3)*x*exp(-1/2*(alpha+1)*x^2)"))
    assert expr_equiv(
        CAT.case(CaseId.CASE2).a,
        parse_expr("x^2/2 - 1/2*g^2*exp(-x^2) - 2*sigma*g^4*exp(-(alpha+1)*x^2)"))


def test_multipliers():
    en = CAT.multiplier(Kind.ENERGY)
    ch = CAT.multiplier(Kind.CHARGE)
    assert to_text(en.Q1) == "v_t" and to_text(en.Q2) == "u_t"
    assert to_text(ch.Q1) == "u" and to_text(ch.Q2) == "-v"


# The split of i q_t + 1/2 q_xx - (a + i eps b) q - G |q|^2 q = 0 into real
# components, with the case's own a and b substituted: the audit reference
# for the stored E1/E2 records, which are what build_system returns.
_SYSTEM_TEMPLATE = (
    "u_t + 1/2*v_xx - eps*({b})*u - ({a})*v + 2*mu^2*sigma*exp(-alpha*x^2)*(u^2 + v^2)*v",
    "-v_t + 1/2*u_xx - ({a})*u + eps*({b})*v + 2*mu^2*sigma*exp(-alpha*x^2)*(u^2 + v^2)*u",
)


@pytest.mark.parametrize("case_id", list(CaseId))
def test_system_template_matches_stored_records(case_id):
    spec = CAT.case(case_id)
    a, b = to_text(spec.a), to_text(spec.b)
    system = CAT.build_system(case_id)
    assert system.E1 is parse_expr(_SYSTEM_TEMPLATE[0].format(a=a, b=b))
    assert system.E2 is parse_expr(_SYSTEM_TEMPLATE[1].format(a=a, b=b))
    assert system.E1 is CAT.corrected_reading(case_id, None, "E1").expr
    assert system.E2 is CAT.corrected_reading(case_id, None, "E2").expr


def test_system_at_eps_zero_drops_gain_terms():
    for case_id in CaseId:
        system = with_params(CAT.build_system(case_id), ParamValues(eps=0.0))
        assert "eps" not in to_text(system.E1)
        assert "eps" not in to_text(system.E2)


def test_system_numeric_params_fold():
    system = with_params(CAT.build_system(CaseId.CASE2), ParamValues(eps=0.0, g=0.0))
    # both wells vanish with g = 0, leaving the plain harmonic trap
    sampler = JetSampler(seed=1)
    batch = sampler.batch(20, 2)
    ref = with_params(CAT.build_system(CaseId.CASE1A), ParamValues(eps=0.0))
    for lhs, rhs in ((system.E1, ref.E1), (system.E2, ref.E2)):
        a = eval_expr(lhs, batch, ParamValues(eps=0.0, g=0.0))
        b = eval_expr(rhs, batch, ParamValues(eps=0.0, g=0.0, alpha=0.5))
        assert np.max(np.abs(a - b)) < 1e-12


def test_on_shell_requires_unit_rate_terms():
    system = CAT.build_system(CaseId.CASE1A)
    e1, e2 = system.E1, system.E2
    u, u_t, v_t = parse_expr("u"), parse_expr("u_t"), parse_expr("v_t")
    for bad in (PdeSystem(CaseId.CASE1A, e1 + u_t, e2),       # 2*u_t + ...
                PdeSystem(CaseId.CASE1A, e1 + u_t * u, e2),   # u_t times a jet
                PdeSystem(CaseId.CASE1A, e1 + v_t, e2),       # another t-jet
                PdeSystem(CaseId.CASE1A, e1, e2 + v_t)):      # 0*v_t + ...
        with pytest.raises(ValueError, match="plus t-jet-free terms"):
            bad.on_shell(u_t)


def test_on_shell_rejects_t_jets_it_cannot_reduce():
    system = CAT.build_system(CaseId.CASE2)
    with pytest.raises(ValueError, match="other than u_t and v_t"):
        system.on_shell(parse_expr("u_tx*v + u_t"))


@pytest.mark.parametrize("case_id,kind", ALL_BLOCKS)
def test_cataloged_densities_are_t_jet_free_on_shell(case_id, kind):
    cv = CAT.conserved_vector(case_id, kind)
    system = CAT.build_system(case_id)
    for e in (cv.Tt, cv.complex_density) if cv else ():
        if e is not None:
            assert not contains_t_derivative(system.on_shell(e))


_AVAILABILITY = {
    (CaseId.CASE1A, Kind.ENERGY): {"Tt", "Tx", "PhiT"},
    (CaseId.CASE1A, Kind.CHARGE): {"Tt", "Tx", "PhiT"},
    (CaseId.CASE1B, Kind.ENERGY): {"Tt"},
    (CaseId.CASE1B, Kind.CHARGE): {"Tt"},
    (CaseId.CASE1C, Kind.ENERGY): set(),
    (CaseId.CASE1C, Kind.CHARGE): set(),
    (CaseId.CASE2, Kind.ENERGY): {"Tt", "Tx"},
    (CaseId.CASE2, Kind.CHARGE): {"Tt", "Tx", "PhiT"},
}


@pytest.mark.parametrize("case_id,kind", ALL_BLOCKS)
def test_conserved_vector_availability(case_id, kind):
    slots = _AVAILABILITY[(case_id, kind)]
    cv = CAT.conserved_vector(case_id, kind)
    if not slots:
        assert cv is None
        return
    assert (cv.Tt is not None) == ("Tt" in slots)
    assert (cv.Tx is not None) == ("Tx" in slots)
    assert (cv.complex_density is not None) == ("PhiT" in slots)


@pytest.mark.parametrize("case_id,kind", ALL_BLOCKS)
def test_residual_target_availability(case_id, kind):
    tgt = CAT.residual_target(case_id, kind)
    assert tgt.derived == ((case_id, kind) == (CaseId.CASE1B, Kind.CHARGE))
    assert tgt.Ru is not None and tgt.Rv is not None


@pytest.mark.parametrize("case_id,kind", ALL_BLOCKS)
def test_residual_targets_vanish_at_eps_zero(case_id, kind):
    tgt = CAT.residual_target(case_id, kind)
    batch = JetSampler(seed=2).batch(40, 2)
    p0 = ParamValues(eps=0.0)
    for e in (tgt.Ru, tgt.Rv):
        assert np.max(np.abs(eval_expr(e, batch, p0))) < 1e-14


@pytest.mark.parametrize("case_id,kind", [
    (CaseId.CASE1A, Kind.ENERGY),
    (CaseId.CASE1A, Kind.CHARGE),
    (CaseId.CASE2, Kind.CHARGE),
])
def test_complex_density_equals_Tt(case_id, kind):
    cv = CAT.conserved_vector(case_id, kind)
    res = expr_equiv(cv.Tt, cv.complex_density, n=60, tol=1e-12)
    assert res, f"worst {res.worst_rel_error}"


def test_anchors_present():
    for rec in CAT.records():
        assert rec.anchor.strip()
