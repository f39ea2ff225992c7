"""Property tests over the paper's parameter space.

The abstract takes the attraction as any non-negative combination of
its kernels and states its results for a region of couplings.  Each
example draws a Yukawa kernel, a van der Waals one or both, a coupling
alpha ||V||_1 in [22.5, 60], a radius R in [4, 50] and either EOS mode,
and runs the grand transition on the default band at n=64.  No
reference value is needed: a located transition has equal pressures
and its gas lies below its liquid at every node, and a transition not
located raises a ValueError that names alpha, R and n.
"""

import numpy as np
from hypothesis import given, settings
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
