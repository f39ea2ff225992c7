"""Property tests over the paper's parameter space.

The abstract takes the attraction as any non-negative combination of
its kernels and states its results for a region of couplings.  Each
example draws a Yukawa kernel, a van der Waals one or both, a coupling
alpha ||V||_1 in [22.5, 60], a radius R in [4, 50] and either EOS mode,
and runs the grand transition on the default band at n=64.  No
reference value is needed: a located transition has equal pressures
and its gas lies below its liquid at every node, and a transition not
located raises a ValueError that names alpha, R and n.

The dilation law of `tests/test_dilation.py` holds on the same draws:
kappa, varkappa and a_w divided by lambda, alpha by lambda^2 and R
multiplied by lambda leave the transition's gamma unchanged and scale
its mass jump by lambda^3, bit for bit at lambda = 0.5 and 2, and a
transition not located fails at both sizes with the same error, up to
the inputs its message names in parentheses.  Ten draws fit about a
second; the explicit example is a known break of the law.
"""

import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardball import eos, field, kernels, phase


@st.composite
def kernel_specs(draw):
    kind = draw(st.sampled_from(["yukawa", "van der Waals", "both"]))
    parts = {}
    if kind != "van der Waals":
        parts.update(a_y=1.0, kappa=draw(st.floats(0.5, 2.0)))
    if kind != "yukawa":
        parts.update(a_w=draw(st.floats(0.2, 2.0)), varkappa=draw(st.floats(0.5, 2.0)))
    return kernels.KernelSpec(**parts)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(spec=kernel_specs(), alpha_l1=st.floats(22.5, 60.0), R=st.floats(4.0, 50.0),
       mode=st.sampled_from([eos.MODE_CS_EXTENDED, eos.MODE_HARD_SPHERE]))
def test_grand_transition_is_located_or_named(spec, alpha_l1, R, mode):
    alpha = alpha_l1 / kernels.l1_norm_r3(spec)
    dom = field.make_domain(R, n=64)
    try:
        tr = phase.grand_canonical_transition(spec, alpha, dom, model=eos.EosModel(mode=mode))
    except ValueError as exc:
        assert f"alpha {alpha!r}, R {R!r}, n 64" in str(exc)
        return
    gas, liquid = tr.gas.functionals.P, tr.liquid.functionals.P
    assert abs(gas - liquid) <= 1e-8 * max(1.0, abs(gas), abs(liquid))
    assert np.all(tr.gas.solution.field.values <= tr.liquid.solution.field.values)


def _dilated(spec, alpha, R, mode, lam):
    """The grand transition at n=64 with lengths dilated by lam, as (gamma_gl, delta_N / lam^3).

    A ValueError or RuntimeError comes back as its class and its message
    with the parenthesised inputs cut.
    """
    spec = kernels.KernelSpec(a_y=spec.a_y, kappa=spec.kappa / lam, a_w=spec.a_w / lam,
                              varkappa=spec.varkappa / lam)
    try:
        tr = phase.grand_canonical_transition(spec, alpha / lam**2,
                                              field.make_domain(lam * R, n=64),
                                              model=eos.EosModel(mode=mode))
    except (ValueError, RuntimeError) as exc:
        message, cut = str(exc), None
        while cut != message:
            cut, message = message, re.sub(r"\([^()]*\)", "", message)
        return type(exc), message
    return tr.gamma_gl, tr.delta_N / lam**3


@settings(deadline=None, derandomize=True, max_examples=10)
@given(spec=kernel_specs(), alpha_l1=st.floats(22.5, 60.0), R=st.floats(4.0, 50.0),
       mode=st.sampled_from([eos.MODE_CS_EXTENDED, eos.MODE_HARD_SPHERE]),
       lam=st.sampled_from([0.5, 2.0]))
@example(spec=kernels.KernelSpec(a_w=1.0), alpha_l1=57.0, R=34.0,
         mode=eos.MODE_CS_EXTENDED, lam=0.5).xfail(
    raises=AssertionError,
    reason="the located crossing's gap check has an absolute floor that does not "
           "scale with the ball: the gap left, 5.2e-8 at R 34 and 6.5e-9 at R 17, "
           "fails it only at R 34")
def test_grand_transition_dilates(spec, alpha_l1, R, mode, lam):
    alpha = alpha_l1 / kernels.l1_norm_r3(spec)
    assert _dilated(spec, alpha, R, mode, lam) == _dilated(spec, alpha, R, mode, 1.0)
