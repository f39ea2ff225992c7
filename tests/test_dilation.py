"""Exact dilation laws as test oracles.

A density dilated by lambda has Yukawa and Newton potentials lambda^2
times those of the original, when kappa -> kappa/lambda.  So R -> lambda
R, kappa -> kappa/lambda and alpha -> alpha/lambda^2 leave the
fixed-point equation invariant: eta(r) -> eta(r/lambda), gamma and P
are unchanged, and N scales by lambda^3.  The nodes of make_domain(lambda
R, n) are lambda times those at R, exactly so at powers of 2, where each
law holds bit for bit: through the ring primitives and the panel split,
`RingOperator`, the launches, the Jacobian solves through G^-1 and LU,
and both locators.  A van der Waals kernel keeps its amplitude under
varkappa -> varkappa/lambda, so its potentials scale by lambda^3, bit
for bit at powers of 2 and to roundoff elsewhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardball import eos, field, kernels, phase

EXT = eos.EosModel(mode=eos.MODE_CS_EXTENDED)


@pytest.fixture(scope="module")
def grand():
    """Criterion 8's grand transition at n=256, dilated by each lambda: unit Yukawa at
    kappa = 1/lambda, alpha l1 = 31, R = 30 lambda."""
    out = {}
    for lam in (0.5, 1.0, 2.0):
        spec = kernels.KernelSpec(a_y=1.0, kappa=1.0 / lam)
        out[lam] = phase.grand_canonical_transition(
            spec, 31.0 / kernels.l1_norm_r3(spec), field.make_domain(30.0 * lam, n=256),
            (-4.88, -4.15), model=EXT,
        )
    return out


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_grand_transition_keeps_gamma_and_scales_the_mass_jump(grand, lam):
    assert grand[lam].gamma_gl == grand[1.0].gamma_gl
    assert grand[lam].delta_N / lam**3 == grand[1.0].delta_N


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("R", [5.0, 10.0])
def test_yukawa_plus_newton_ring_matrix_scales_by_lambda_squared(R, lam):
    def ring(kappa, radius):
        spec = kernels.KernelSpec(a_y=1.0, kappa=kappa, a_n=0.01)
        domain = field.make_domain(radius, n=64)
        return field._ring_matrix(spec, domain, domain.nodes)

    assert np.array_equal(ring(1.0 / lam, lam * R), lam**2 * ring(1.0, R))


# petit-r15's inputs (bench/workloads.py): R=15, n=64, the vapor-fold mass
# N_HAT_15 at R=15, n=256, and the grand crossing GAMMA_GL_15 there
N_HAT_15 = 453.4086905340539
GAMMA_GL_15 = -4.655290873521921


@pytest.fixture(scope="module")
def petit():
    """petit-r15's transition, dilated by each lambda, its mass bracket by lambda^3."""
    out = {}
    for lam in (0.5, 1.0, 2.0):
        spec = kernels.KernelSpec(a_y=1.0, kappa=1.0 / lam)
        out[lam] = phase.petit_canonical_transition(
            spec, 31.0 / kernels.l1_norm_r3(spec), field.make_domain(15.0 * lam, n=64),
            N_bracket=(0.965 * N_HAT_15 * lam**3, 0.968 * N_HAT_15 * lam**3), model=EXT,
            gamma_gl=GAMMA_GL_15,
        )
    return out


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_petit_transition_keeps_gamma_and_delta_gamma_and_scales_the_mass(petit, lam):
    assert petit[lam].N_vd / lam**3 == petit[1.0].N_vd
    assert petit[lam].gamma_gl == petit[1.0].gamma_gl
    assert petit[lam].delta_Gamma == petit[1.0].delta_Gamma


@pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("R", [5.0, 10.0])
def test_van_der_waals_ring_matrix_scales_by_lambda_cubed(R, lam):
    # to the bit at powers of 2; at lambda = 3 every entry to 1e-12 of its
    # row's largest (an entry far below it is a difference of two ring
    # primitives, whose rounding it carries: up to 4e-11 of itself)
    def ring(varkappa, radius):
        spec = kernels.KernelSpec(a_w=1.0, varkappa=varkappa)
        domain = field.make_domain(radius, n=64)
        return field._ring_matrix(spec, domain, domain.nodes)

    base, dilated = ring(1.0, R), ring(1.0 / lam, lam * R) / lam**3
    if lam != 3.0:
        assert np.array_equal(dilated, base)
    rows = np.max(np.abs(base), axis=1, keepdims=True)
    assert np.max(np.abs(dilated - base) / rows) <= 1e-12


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_ring_operator_scales_by_lambda_squared(lam):
    # above the dense gate a Yukawa plus Newton kernel is applied by its
    # RingOperator, bit for bit
    def operator(kappa, radius):
        spec = kernels.KernelSpec(a_y=1.0, kappa=kappa, a_n=0.01)
        op = field._self_ring(spec, field.make_domain(radius, n=1024))
        assert isinstance(op, field.RingOperator)
        return op

    v = np.random.default_rng(21).uniform(0.05, 0.45, 1024)
    base, dilated = operator(1.0, 30.0), operator(1.0 / lam, 30.0 * lam)
    assert np.array_equal(dilated @ v, lam**2 * (base @ v))


def _row_relative_error(spec, dilated_spec, lam, R, power):
    """Largest entry of |M_dilated / lam^power - M|, each over its row's largest |M|, n=64."""
    def ring(spec, radius):
        domain = field.make_domain(radius, n=64)
        return field._ring_matrix(spec, domain, domain.nodes)

    base = ring(spec, R)
    rows = np.max(np.abs(base), axis=1, keepdims=True)
    return np.max(np.abs(ring(dilated_spec, lam * R) / lam**power - base) / rows)


@pytest.mark.parametrize("R", [5.0, 10.0])
def test_yukawa_ring_matrix_alone_scales_by_lambda_squared_at_three(R):
    assert _row_relative_error(kernels.KernelSpec(a_y=1.0, kappa=1.0),
                               kernels.KernelSpec(a_y=1.0, kappa=1.0 / 3.0), 3.0, R, 2) <= 1e-12


@pytest.mark.parametrize("R", [5.0, 10.0])
def test_newton_ring_matrix_alone_scales_by_lambda_squared_at_three(R):
    spec = kernels.KernelSpec(a_y=0.0, a_n=1.0)
    assert _row_relative_error(spec, spec, 3.0, R, 2) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(lam=st.floats(0.25, 4.0), R=st.sampled_from([5.0, 10.0]))
def test_mixed_ring_matrix_scales_at_any_lambda(lam, R):
    # Yukawa + Newton + van der Waals, the van der Waals amplitude taken
    # down by lambda so that every part scales by lambda^2
    spec = kernels.KernelSpec(a_y=1.0, kappa=1.0, a_n=0.01, a_w=1.0, varkappa=1.0)
    dilated = kernels.KernelSpec(a_y=1.0, kappa=1.0 / lam, a_n=0.01, a_w=1.0 / lam,
                                 varkappa=1.0 / lam)
    assert _row_relative_error(spec, dilated, lam, R, 2) <= 1e-12
