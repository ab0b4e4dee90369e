"""The integrator's check of the initial state, and the lifetime of its solvers."""

import gc
import weakref

import numpy as np
import pytest

from femspde.integrator import IntegrationError, LinearSolver, integrate

from .test_integrator import DET2D, hat, make_assembled, split_system  # noqa: F401


def test_non_finite_initial_state_names_no_step(hat):
    # U_0 is finite, but its norm overflows: that is the initial state's fault
    ap = make_assembled(hat, 'a.1.1 = "1"\nphi = "1e200*sin(x1)"', n=8)
    with pytest.raises(IntegrationError) as err:
        integrate(ap, None, 0.1, 2)
    assert str(err.value) == "non-finite initial state or |U|_0h"
    assert (err.value.step, err.value.sample) == (None, None)


@pytest.mark.parametrize("reused", [False, True], ids=["krylov", "direct"])
def test_solvers_are_freed_by_reference_counting(reused):
    # a solver in a reference cycle, e.g. one its preconditioner holds, would
    # outlive its last reference until the cyclic collector runs
    op = split_system("tensor(2)", 80, DET2D)
    enabled = gc.isenabled()
    gc.disable()
    try:
        solver = LinearSolver(op, reused=reused)
        assert solver.direct == reused
        solver.solve(np.ones((1, op.lattice.total_sites)))
        ref = weakref.ref(solver)
        del solver
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
