"""Orders of the scheme and of its Richardson mixture against the exact
reference of tests/exact_oracles.py, which does not run the scheme: hat1d,
a^11 = 1, phi = sin x1, terminal |.|_0h errors at T = 0.25 on the ladder
16/32/64 with the mixture's second level at 2n, one dt for every lattice.
An error that the lattices share, such as a noise term read at the wrong
time, does not cancel here as it does against a reference lattice."""

import numpy as np
import pytest

from femspde import (
    AssembledProblem,
    NoisePath,
    build_element,
    build_torus,
    compute_reference_tensors,
    estimate_order,
    extrapolation_coefficients,
    integrate,
    parse_problem_text,
    sample_seed,
)
from femspde.lattice import norms_0h
from femspde.study import resolve_steps
from tests.exact_oracles import on_sites, terminal_modes
from tests.mixture_oracles import combine

L = 2 * np.pi
T = 0.25
LADDER = (16, 32, 64)
KS = np.array([-1, 0, 1])
SIN_X1 = np.array([0.5j, 0.0, -0.5j])  # sin x1 on the modes KS

# the problem text, the oracle's coefficients and the Monte Carlo samples
CASES = {
    "deterministic": ('a.1.1 = "1"\nphi = "sin(x1)"', {"a": 1.0}, 1),
    "noise-driven": (
        'a.1.1 = "1"\nsigma.1.1 = "0.3"\ng.1 = "0.1*cos(4*t)"\nphi = "sin(x1)"',
        {"a": 1.0, "sigma": 0.3, "g": lambda t: np.array([0.0, 0.1 * np.cos(4 * t), 0.0])},
        10,
    ),
}


def exact_orders(text, oracle, samples):
    """Fitted orders of the base and mixture errors, the RMS over the samples,
    with every sample of a lattice run as one block."""
    element = build_element("hat1d")
    tensors = compute_reference_tensors(element)
    problem = parse_problem_text(text)
    steps = resolve_steps(T, L, 2 * LADDER[-1])
    dt = T / steps
    if problem.has_noise:
        noises = [NoisePath(sample_seed(2018, s), steps, dt) for s in range(samples)]
        increments = np.stack([path.increments[0] for path in noises])
    else:
        noises, increments = None, np.zeros((1, steps))
    exact = terminal_modes(KS, SIN_X1, dt, increments, **oracle)
    terminal = {}
    for n in (*LADDER, 2 * LADDER[-1]):
        ap = AssembledProblem(element, tensors, problem, build_torus(1, L / n, n))
        terminal[n] = integrate(ap, noises, T, steps, record="terminal").terminal
    coefficients = extrapolation_coefficients(1)
    base, mixture = [], []
    for n in LADDER:
        lattice = terminal[n].lattice
        reference = on_sites(KS, exact, lattice.axis_coords())
        mixed = combine([terminal[n], terminal[2 * n]], coefficients)
        for errors, u in ((base, terminal[n]), (mixture, mixed)):
            errors.append(float(np.sqrt(np.mean(norms_0h(lattice, u.values - reference) ** 2))))
    hs = [L / n for n in LADDER]
    return estimate_order(list(zip(hs, base))), estimate_order(list(zip(hs, mixture)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_orders_against_exact_reference(case):
    base, mixture = exact_orders(*CASES[case])
    assert 1.9 <= base <= 2.1
    assert 3.8 <= mixture <= 4.2
