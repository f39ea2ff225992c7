"""Property tests over the paper's parameter space.

The abstract takes the attraction as any non-negative combination of
its kernels and states its results for a region of couplings.  Each
example draws a Yukawa kernel, a van der Waals one or both, a coupling
alpha ||V||_1 in [22.5, 60], a radius R in [4, 50] and either EOS mode,
and runs the grand transition on the default band at n=64.  No
reference value is needed: a located transition has equal pressures,
to the larger of 1e-8 max(1, |P|) and what its Newton on gamma
resolves, |delta_N| (1e-12 + 8.9e-16 |gamma_gl|), and its gas lies
below its liquid at every node, and a transition not located raises a
ValueError that names alpha, R and n.

The dilation law of `tests/test_dilation.py` holds on the same draws:
kappa, varkappa and a_w divided by lambda, alpha by lambda^2 and R
multiplied by lambda leave the transition's gamma unchanged and scale
its mass jump by lambda^3, bit for bit at lambda = 0.5 and 2, and a
transition not located fails at both sizes with the same error, up to
the inputs its message names in parentheses.  Ten draws fit about a
second; the explicit example is a case whose pressure gap, left at the
Newton's resolution, grows with the ball past the 1e-8 floor.

The petit transition is drawn from the same space at n=64, with its
default brackets: a located transition has equal free energies to
1e-8 max(1, |F_vapor|), both profiles at N_vd to 1e-8 relative, N_vd
between the gas's mass and the liquid's, and a droplet at a lower
chemical potential than the vapor; any other outcome is a ValueError
or RuntimeError that names alpha, R and n.  Four draws and the explicit
examples fit about two seconds; the two overpacked droplet trials
locate, and the other two examples end in a droplet mass match that
fails (a mass in the jump across the hard-sphere kink, and a droplet
warm-started far from its mass), whose error `phase.droplet_solve`
names.
"""

import os
import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardball import eos, field, kernels, phase

# Tier-1 runs a few derandomized draws of each property; a longer run
# sets PARAMETER_SPACE_DRAWS to draw that many instead.
_DRAWS = int(os.environ.get("PARAMETER_SPACE_DRAWS", 0))


@st.composite
def kernel_specs(draw):
    kind = draw(st.sampled_from(["yukawa", "van der Waals", "both"]))
    parts = {}
    if kind != "van der Waals":
        parts.update(a_y=1.0, kappa=draw(st.floats(0.5, 2.0)))
    if kind != "yukawa":
        parts.update(a_w=draw(st.floats(0.2, 2.0)), varkappa=draw(st.floats(0.5, 2.0)))
    return kernels.KernelSpec(**parts)


@settings(deadline=None, derandomize=True, max_examples=_DRAWS or 40)
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
    resolution = abs(tr.delta_N) * (1e-12 + 8.9e-16 * abs(tr.gamma_gl))
    assert abs(gas - liquid) <= max(1e-8 * max(1.0, abs(gas), abs(liquid)), resolution)
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


@settings(deadline=None, derandomize=True, max_examples=_DRAWS or 10)
@given(spec=kernel_specs(), alpha_l1=st.floats(22.5, 60.0), R=st.floats(4.0, 50.0),
       mode=st.sampled_from([eos.MODE_CS_EXTENDED, eos.MODE_HARD_SPHERE]),
       lam=st.sampled_from([0.5, 2.0]))
@example(spec=kernels.KernelSpec(a_w=1.0), alpha_l1=57.0, R=34.0,
         mode=eos.MODE_CS_EXTENDED, lam=0.5)
def test_grand_transition_dilates(spec, alpha_l1, R, mode, lam):
    alpha = alpha_l1 / kernels.l1_norm_r3(spec)
    assert _dilated(spec, alpha, R, mode, lam) == _dilated(spec, alpha, R, mode, 1.0)


@settings(deadline=None, derandomize=True, max_examples=_DRAWS or 4)
@given(spec=kernel_specs(), alpha_l1=st.floats(22.5, 60.0), R=st.floats(4.0, 50.0),
       mode=st.sampled_from([eos.MODE_CS_EXTENDED, eos.MODE_HARD_SPHERE]))
@example(spec=kernels.KernelSpec(a_y=1.0, kappa=1.607545069392191),
         alpha_l1=37.42116294548373, R=46.173546404282824, mode=eos.MODE_HARD_SPHERE)
@example(spec=kernels.KernelSpec(a_w=1.7551720454573272, varkappa=0.9176315967708457),
         alpha_l1=38.0736193954387, R=20.50347360525474, mode=eos.MODE_HARD_SPHERE)
@example(spec=kernels.KernelSpec(a_w=1.4899300299169465, varkappa=1.8305604383571377),
         alpha_l1=35.5126970883169, R=47.26983406572031, mode=eos.MODE_HARD_SPHERE)
@example(spec=kernels.KernelSpec(a_y=1.0, kappa=2.0), alpha_l1=50.0, R=12.0,
         mode=eos.MODE_CS_EXTENDED)
def test_petit_transition_is_located_or_named(spec, alpha_l1, R, mode):
    alpha = alpha_l1 / kernels.l1_norm_r3(spec)
    dom = field.make_domain(R, n=64)
    try:
        tr = phase.petit_canonical_transition(spec, alpha, dom, model=eos.EosModel(mode=mode))
    except (ValueError, RuntimeError) as exc:
        assert f"alpha {alpha!r}, R {R!r}, n 64" in str(exc)
        return
    F = tr.vapor.functionals.F
    assert abs(F - tr.droplet.functionals.F) <= 1e-8 * max(1.0, abs(F))
    for point in (tr.vapor, tr.droplet):
        assert abs(point.functionals.N - tr.N_vd) <= 1e-8 * tr.N_vd
    assert tr.gas.functionals.N <= tr.N_vd < tr.liquid.functionals.N
    assert tr.delta_Gamma < 0.0
