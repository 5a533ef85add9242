"""Difference operators: coefficients, constants, balancing, summation identity."""

import math

import pytest

from references import balance_defect, proof_params, summation_lhs
from vandiejen.operators import (
    Configuration,
    CouplingSet,
    SummationParams,
    MassTag,
    balance_solve,
    c0_constant,
    coeff_V0,
    coeff_V_shift,
    d_param,
    def_V0,
    def_operator,
    dual_couplings,
    eigen_constant,
    operator_terms,
    reflected_couplings,
    summation_rhs,
    source_constant,
    vd_V0,
    vd_V_pm,
    vd_operator,
    weighted_terms,
)
from vandiejen.sfun import CaseKind, CaseParams, DomainError

R, A = 1.1, 1.8


def make(label):
    return CaseParams(CaseKind.from_label(label), r=R, a=A)


def couplings_for(label, fill=0.37):
    case = make(label)
    return tuple(fill + 0.05 * k for k in range(2 * (case.rho + 1)))


X2 = (0.41 + 0.07j, 0.83 - 0.11j)
LAM = 1.45
BETA = 0.31


# --------------------------------------------------------------------------
# structure: tags, coupling sets, configurations
# --------------------------------------------------------------------------


def test_mass_tag_parse_aliases():
    assert MassTag.parse("1") is MassTag.PLUS_ONE
    assert MassTag.parse("+1") is MassTag.PLUS_ONE
    assert MassTag.parse(" P1 ") is MassTag.PLUS_ONE
    assert MassTag.parse("-1") is MassTag.MINUS_ONE
    assert MassTag.parse("m1") is MassTag.MINUS_ONE
    assert MassTag.parse("1/lambda") is MassTag.PLUS_INV
    assert MassTag.parse("+1/lam") is MassTag.PLUS_INV
    assert MassTag.parse("-1/L") is MassTag.MINUS_INV
    assert MassTag.parse("mil") is MassTag.MINUS_INV
    assert MassTag.parse(MassTag.PLUS_INV) is MassTag.PLUS_INV


def test_mass_tag_parse_rejects_unknown():
    with pytest.raises(DomainError):
        MassTag.parse("2")
    with pytest.raises(DomainError):
        MassTag.parse("lam")


def test_mass_tag_values_and_unit_flag():
    lam = 1.6
    assert MassTag.PLUS_ONE.value_for(lam) == 1.0
    assert MassTag.MINUS_ONE.value_for(lam) == -1.0
    assert MassTag.PLUS_INV.value_for(lam) == pytest.approx(1 / lam)
    assert MassTag.MINUS_INV.value_for(lam) == pytest.approx(-1 / lam)
    assert MassTag.PLUS_ONE.is_unit and MassTag.MINUS_ONE.is_unit
    assert not MassTag.PLUS_INV.is_unit and not MassTag.MINUS_INV.is_unit


def test_coupling_set_validation():
    with pytest.raises(DomainError):
        CouplingSet((0.1, 0.2), lam=-1.0, beta=0.3)
    with pytest.raises(DomainError):
        CouplingSet((0.1, 0.2), lam=1.4, beta=0.0)
    cs = CouplingSet((0.1, 0.2, 0.3, 0.4), lam=1.4, beta=0.3)
    cs.validate_for(make("II"))
    cs.validate_for(make("III"))
    with pytest.raises(DomainError):
        cs.validate_for(make("I"))
    with pytest.raises(DomainError):
        cs.validate_for(make("IV"))
    assert sum(cs.g) == pytest.approx(1.0)


@pytest.mark.parametrize("g, lam, beta", [((math.nan, 0.2), 1.4, 0.3), ((0.1, 0.2), math.inf, 0.3),
                                         ((0.1, 0.2), 1.4, math.inf)])
def test_coupling_set_rejects_a_parameter_that_is_not_finite(g, lam, beta):
    with pytest.raises(DomainError, match="finite"):
        CouplingSet(g, lam=lam, beta=beta)


def test_coupling_duals():
    cs = CouplingSet((0.1, -0.2, 0.45, 0.3), lam=1.4, beta=0.3)
    refl = CouplingSet(reflected_couplings(cs.g, cs.lam), cs.lam, cs.beta)
    assert refl.lam == cs.lam and refl.beta == cs.beta
    for g, gr in zip(cs.g, refl.g):
        assert gr == pytest.approx((cs.lam + 1) / 2 - g)
    # reflecting twice returns the original couplings
    back = CouplingSet(reflected_couplings(refl.g, refl.lam), refl.lam, refl.beta)
    for g, gb in zip(cs.g, back.g):
        assert gb == pytest.approx(g)

    dual = CouplingSet(dual_couplings(cs.g, cs.lam), 1.0 / cs.lam, cs.lam * cs.beta)
    assert dual.lam == pytest.approx(1 / cs.lam)
    assert dual.beta == pytest.approx(cs.lam * cs.beta)
    for g, gd in zip(cs.g, dual.g):
        assert gd == pytest.approx((cs.lam + 1 - 2 * g) / (2 * cs.lam))
    # the deformed dual is an involution as well
    back = CouplingSet(dual_couplings(dual.g, dual.lam), 1.0 / dual.lam, dual.lam * dual.beta)
    assert back.lam == pytest.approx(cs.lam)
    assert back.beta == pytest.approx(cs.beta)
    for g, gb in zip(cs.g, back.g):
        assert gb == pytest.approx(g)


def test_configuration_basics():
    cs = CouplingSet((0.1, 0.2, 0.3, 0.4), lam=1.25, beta=0.3)
    conf = Configuration(make("II"), cs, ("1", "m1", "1/lam"))
    assert conf.size == 3
    assert conf.mass_values == pytest.approx((1.0, -1.0, 1 / 1.25))
    expected = 2 * 1.25 * sum(conf.mass_values) + sum(cs.g) - 2 * (1.25 + 1)
    assert balance_defect(conf.coupling, conf.mass_values) == pytest.approx(expected)
    assert balance_defect(conf.coupling, conf.mass_values) == pytest.approx(
        balance_defect(cs, conf.mass_values))
    assert not abs(balance_defect(conf.coupling, conf.mass_values)) < 1e-12
    with pytest.raises(DomainError):
        Configuration(make("II"), cs, ())


# --------------------------------------------------------------------------
# balancing
# --------------------------------------------------------------------------


def test_balance_solve_zeroes_each_variant():
    lam = 1.35
    counts = dict(N=2, Nt=1, M=1, Mt=2)
    probes = {
        "source": lambda g: 2 * lam * 1.7 + sum(g) - 2 * (lam + 1),
        "eigen-plain": lambda g: 2 * lam * (2 - 1) + sum(g) - 2,
        "kernel-cauchy": lambda g: 2 * lam * (2 - 1 - 1) + sum(g) - 2,
        "kernel-dual": lambda g: 2 * lam * (2 - 1) + sum(g) + 2 * (2 - 1),
        "deformed-groundstate": lambda g: 2 * lam * (2 - 1) + sum(g) - 2 * (1 + 1),
        "kernel-deformed": lambda g: 2 * lam * (2 - 1 - 1) + sum(g) - 2 * (1 - 2 + 1),
    }
    g0 = couplings_for("IV")
    for variant, probe in probes.items():
        g = balance_solve(variant, lam, g0, mass_sum=1.7, **counts)
        assert probe(g) == pytest.approx(0.0, abs=1e-12)
        # only the solved entry moved
        assert g[:-1] == g0[:-1]


def test_balance_solve_index_and_variants():
    # the two deformation constants share one constraint
    ga = balance_solve("deformed-groundstate", 1.2, (0.1,) * 8, N=2, Nt=1)
    gb = balance_solve("deformed-constant", 1.2, (0.1,) * 8, N=2, Nt=1)
    assert ga == gb
    with pytest.raises(DomainError):
        balance_solve("no-such-variant", 1.2, (0.1, 0.2))


# --------------------------------------------------------------------------
# scalar blocks and constants
# --------------------------------------------------------------------------


def test_d_param_species_split():
    lam = 1.3
    assert d_param(0.4, 1.0, lam) == 0.4
    assert d_param(0.4, 1 / lam, lam) == 0.4
    assert d_param(0.4, -1.0, lam) == pytest.approx(0.4 - (lam + 1) / 2)
    assert d_param(0.4, -1 / lam, lam) == pytest.approx(0.4 - (lam + 1) / 2)
    # symbolic tag wins over the numeric sign
    assert d_param(0.4, -1.0, lam, MassTag.PLUS_ONE) == 0.4
    assert d_param(0.4, 1.0, lam, MassTag.MINUS_INV) == pytest.approx(
        0.4 - (lam + 1) / 2)


def test_source_constant_vanishes_when_balanced():
    # elliptic case: the s argument collapses to the zero lattice exactly
    # on the balance constraint, so the constant vanishes there
    case = make("IV")
    masses = (1.0, -1.0, 1 / LAM)
    g = balance_solve("source", LAM, couplings_for("IV"), mass_sum=sum(masses))
    val = source_constant(case, g, LAM, BETA, masses)
    assert abs(val) < 1e-12
    # a detuned coupling moves it off zero
    g_bad = (g[0] + 0.05,) + g[1:]
    assert abs(source_constant(case, g_bad, LAM, BETA, masses)) > 1e-4


def test_c0_constant_swapped_species_duality():
    # the mass-independent constant flips sign under the swapped-species
    # substitution (dual couplings, inverted lam, scaled step)
    for label in ("I", "II", "III", "IV"):
        case = make(label)
        g = couplings_for(label)
        base = c0_constant(case, g, LAM, BETA)
        g_dual = tuple((LAM + 1 - 2 * v) / (2 * LAM) for v in g)
        swapped = c0_constant(case, g_dual, 1 / LAM, LAM * BETA)
        assert swapped == pytest.approx(-base, rel=1e-10)


def test_eigen_constant_is_sum_of_parts():
    case = make("II")
    g = couplings_for("II")
    masses = (1.0, -1.0)
    total = eigen_constant(case, g, LAM, BETA, masses)
    assert total == pytest.approx(
        c0_constant(case, g, LAM, BETA)
        + source_constant(case, g, LAM, BETA, masses))


# --------------------------------------------------------------------------
# coefficient cross-checks: generic vs specialised closed forms
# --------------------------------------------------------------------------


@pytest.mark.parametrize("label", ("I", "II", "III", "IV"))
def test_unit_mass_shift_coefficients_agree(label):
    case = make(label)
    g = couplings_for(label)
    masses = (1.0, 1.0)
    tags = (MassTag.PLUS_ONE, MassTag.PLUS_ONE)
    for j in range(2):
        for sign in (1, -1):
            generic = coeff_V_shift(case, g, LAM, BETA, masses, tags, X2, j, sign)
            special = vd_V_pm(case, g, LAM, BETA, X2, j, sign)
            assert generic == special  # identical factor by factor


@pytest.mark.parametrize("label", ("I", "II", "III", "IV"))
def test_unit_mass_zeroth_coefficient_relation(label):
    # on all-unit masses the generic zeroth coefficient equals the
    # specialised one minus the additive constant
    case = make(label)
    g = couplings_for(label)
    masses = (1.0, 1.0)
    generic = coeff_V0(case, g, LAM, BETA, masses, X2)
    special = vd_V0(case, g, LAM, BETA, X2)
    c0 = c0_constant(case, g, LAM, BETA)
    scale = max(abs(generic), abs(special), abs(c0))
    assert abs(generic - (special - c0)) / scale < 1e-12


@pytest.mark.parametrize("label", ("I", "II", "III"))
def test_constant_function_is_eigenfunction(label):
    # the plain unit-mass operator applied to 1 returns the closed-form
    # eigenvalue; free couplings suffice away from the elliptic case
    case = make(label)
    g = couplings_for(label)
    n_p = len(X2)
    value = sum(weighted_terms(vd_operator(case, g, LAM, BETA, (0, 1)).weights(X2),
                               lambda x: 1.0 + 0j), start=0j)
    expected = eigen_constant(case, g, LAM, BETA, (1.0,) * n_p)
    assert value == pytest.approx(expected, rel=1e-11)


def test_constant_function_elliptic_needs_balance():
    case = make("IV")
    g = balance_solve("eigen-plain", LAM, couplings_for("IV"), N=len(X2))
    value = sum(weighted_terms(vd_operator(case, g, LAM, BETA, (0, 1)).weights(X2),
                               lambda x: 1.0 + 0j), start=0j)
    expected = eigen_constant(case, g, LAM, BETA, (1.0,) * len(X2))
    scale = max(abs(value), abs(expected))
    assert abs(value - expected) / scale < 1e-10
    # off the constraint the identity genuinely fails
    g_bad = (g[0] + 0.1,) + g[1:]
    bad = sum(weighted_terms(vd_operator(case, g_bad, LAM, BETA, (0, 1)).weights(X2),
                             lambda x: 1.0 + 0j), start=0j)
    bad_expected = eigen_constant(case, g_bad, LAM, BETA, (1.0,) * len(X2))
    assert abs(bad - bad_expected) / max(abs(bad), abs(bad_expected)) > 1e-3


def test_conjugated_operator_on_constant_matches_source():
    # with mixed masses the conjugated operator acts on 1 with eigenvalue
    # given by the closed-form source constant
    for label in ("I", "II", "III"):
        case = make(label)
        g = couplings_for(label)
        masses = (1.0, -1 / LAM)
        tags = (MassTag.PLUS_ONE, MassTag.MINUS_INV)
        value = sum(operator_terms(
            case, g, LAM, BETA, masses, tags, X2, lambda x: 1.0 + 0j), start=0j)
        expected = source_constant(case, g, LAM, BETA, masses)
        scale = max(abs(value), abs(expected))
        assert abs(value - expected) / scale < 1e-10


def test_deformed_apply_constant_eigenvalue():
    # two-species operator on the constant function, trigonometric case
    case = make("II")
    g = couplings_for("II")
    x = (0.52 + 0.06j,)
    xt = (0.95 - 0.09j,)
    value = sum(weighted_terms(def_operator(case, g, LAM, BETA, (0,), (1,)).weights((*x, *xt)),
                               lambda Q: 1.0 + 0j), start=0j)
    masses = (1.0, -1 / LAM)
    expected = eigen_constant(case, g, LAM, BETA, masses)
    scale = max(abs(value), abs(expected))
    assert abs(value - expected) / scale < 1e-10


def test_deformed_apply_constant_eigenvalue_elliptic_balanced():
    case = make("IV")
    x = (0.52 + 0.06j,)
    xt = (0.95 - 0.09j,)
    g = balance_solve("deformed-constant", LAM, couplings_for("IV"),
                      N=len(x), Nt=len(xt))
    value = sum(weighted_terms(def_operator(case, g, LAM, BETA, (0,), (1,)).weights((*x, *xt)),
                               lambda Q: 1.0 + 0j), start=0j)
    masses = (1.0,) * len(x) + (-1 / LAM,) * len(xt)
    expected = eigen_constant(case, g, LAM, BETA, masses)
    scale = max(abs(value), abs(expected))
    assert abs(value - expected) / scale < 1e-9


def test_deformed_zeroth_matches_mixed_multiset():
    # the two-species zeroth coefficient is the unit-mass form evaluated
    # on the multiset {x} with masses 1 and {xt} with masses -1/lam
    case = make("III")
    g = couplings_for("III")
    x = (0.52 + 0.06j, 0.31 - 0.04j)
    xt = (0.95 - 0.09j,)
    direct = def_V0(case, g, LAM, BETA, x, xt)
    masses = (1.0, 1.0, -1 / LAM)
    via_generic = coeff_V0(case, g, LAM, BETA, masses, x + xt)
    c0 = c0_constant(case, g, LAM, BETA)
    scale = max(abs(direct), abs(via_generic))
    assert abs(direct - (via_generic + c0)) / scale < 1e-11


# --------------------------------------------------------------------------
# the exact summation identity
# --------------------------------------------------------------------------


def free_params(case, n_coords=2, seed_shift=0.0):
    rho = case.rho
    X = tuple(0.43 + 0.21 * k + 0.07j * (-1) ** k + seed_shift for k in range(n_coords))
    m = tuple(0.9 + 0.13 * k - 0.05j for k in range(n_coords))
    a = tuple(0.12 - 0.03j + 0.08 * k for k in range(n_coords))
    c = tuple(0.21 + 0.09 * nu + 0.02j for nu in range(rho + 1))
    d = tuple(-0.17 - 0.07 * nu + 0.03j for nu in range(rho + 1))
    n = tuple(0.17 + 0.05 * k - 0.11j for k in range(2 * (rho + 1)))
    return SummationParams(X=X, m=m, gamma=0.29j, a=a, c=c, d=d, n=n)


@pytest.mark.parametrize("label", ("I", "II", "III"))
def test_summation_identity_free_parameters(label):
    case = make(label)
    p = free_params(case)
    lhs = summation_lhs(case, p)
    rhs = summation_rhs(case, p)
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-10


def test_summation_identity_elliptic_balanced():
    # in the elliptic case the identity needs sum(n) + 2 gamma sum(m) to
    # stay free only up to the constraint; pin the last boundary parameter
    case = make("IV")
    p = free_params(case)
    n = list(p.n)
    target = 0.23 - 0.08j  # put the full parameter sum at a generic point
    n[-1] = target - 2 * p.gamma * sum(p.m) - sum(n[:-1])
    # elliptic identity additionally needs the sum placed on the lattice
    n[-1] = -2 * p.gamma * sum(p.m) - sum(n[:-1])
    p = SummationParams(X=p.X, m=p.m, gamma=p.gamma, a=p.a, c=p.c, d=p.d, n=tuple(n))
    lhs = summation_lhs(case, p)
    rhs = summation_rhs(case, p)
    assert abs(rhs) < 1e-12
    assert abs(lhs - rhs) < 1e-8


def test_summation_identity_wrong_shape_rejected():
    case = make("II")
    p = free_params(make("I"))  # rho mismatch: c, d, n too short
    with pytest.raises(DomainError):
        summation_lhs(case, p)
    with pytest.raises(DomainError):
        SummationParams(X=(0.3,), m=(1.0, 2.0), gamma=0.2j, a=(0.1,),
                       c=(0.1,), d=(0.1,), n=(0.1, 0.2))


def test_proof_params_fields():
    case = make("II")
    g = couplings_for("II")
    masses = (1.0, -1 / LAM)
    p = proof_params(case, g, LAM, BETA, masses, X2, a0=0.05j)
    assert p.gamma == pytest.approx(1j * LAM * BETA)
    assert p.X == X2 and p.m == tuple(complex(m) for m in masses)
    for a_j, m_j in zip(p.a, masses):
        assert a_j == pytest.approx(
            -(1j * LAM * BETA / 4) * (m_j + 1 / (LAM * m_j)) + 0.05j)
    for c_nu in p.c:
        assert c_nu == pytest.approx(1j * BETA * (LAM - 1) / 4)
    for d_nu in p.d:
        assert d_nu == pytest.approx(-1j * BETA * (LAM - 1) / 4)
    rho = case.rho
    for nu in range(rho + 1):
        assert p.n[nu] == pytest.approx(
            -0.5j * LAM * BETA - case.omega[nu] / 2 + 1j * g[nu] * BETA)
        assert p.n[nu + rho + 1] == pytest.approx(
            -0.5j * BETA - case.omega[nu] / 2 + 1j * g[nu + rho + 1] * BETA)
    with pytest.raises(DomainError):
        proof_params(case, g[:2], LAM, BETA, masses, X2)


def test_proof_params_reproduce_operator_action():
    # the summation identity specialised through proof_params must agree
    # with the closed-form constants route on the same data
    case = make("III")
    g = couplings_for("III")
    masses = (1.0, -1.0)
    p = proof_params(case, g, LAM, BETA, masses, X2)
    lhs = summation_lhs(case, p)
    rhs = summation_rhs(case, p)
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-9
