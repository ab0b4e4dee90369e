"""Test oracles for the convergence study: a Richardson mixture of whole
nested-level solutions and the error norm between two fields, each written
directly from its definition."""

import numpy as np

from femspde.lattice import GridFunction, norms_0h, restrict


def combine(level_solutions: list[GridFunction], coefficients: np.ndarray) -> GridFunction:
    """Mixture of nested-level solutions with extrapolation_coefficients' weights,
    restricted by injection to the coarsest, sample by sample."""
    if len(level_solutions) != len(coefficients):
        raise ValueError(f"expected {len(coefficients)} level solutions, "
                         f"got {len(level_solutions)}")
    coarse = level_solutions[0].lattice
    out = np.zeros(level_solutions[0].values.shape)
    for c, sol in zip(coefficients, level_solutions):
        out += c * restrict(sol, coarse).values
    return GridFunction(coarse, out)


def error_norm(u: GridFunction, reference: GridFunction) -> np.ndarray:
    """|u - reference|_{0,h} of every sample, on a shared lattice."""
    if u.lattice != reference.lattice:
        raise ValueError(f"lattice mismatch: {u.lattice} vs {reference.lattice}")
    return norms_0h(u.lattice, u.values - reference.values)
