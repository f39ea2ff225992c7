"""Exact dilation laws as test oracles.

A density dilated by lambda has Yukawa and Newton potentials lambda^2
times those of the original, when kappa -> kappa/lambda.  So R -> lambda
R, kappa -> kappa/lambda and alpha -> alpha/lambda^2 leave the
fixed-point equation invariant: eta(r) -> eta(r/lambda), gamma and P
are unchanged, and N scales by lambda^3.  The nodes of make_domain(lambda
R, n) are lambda times those at R, exactly so at powers of 2, where each
law holds bit for bit: through the ring primitives and the panel split,
the launches, the Jacobian solves through G^-1 and the locator.
"""

import numpy as np
import pytest

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
