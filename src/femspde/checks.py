"""Runtime verification of the element and coefficient assumptions.

The invertibility constant of the lattice mass operator is obtained from the
Fourier symbol of its Toeplitz form,

    S(theta) = sum_lam R_lam cos(lam . theta),

whose minimum over the torus of frequencies is the sharp constant delta of
the quadratic form on l2.  The compatibility identities tie the first and
second discrete moments of the tensors to the identity matrix; they are what
makes the assembled operators second-order consistent.  The cardinal check
verifies psi(0) = 1 with psi vanishing on all other lattice points, which is
what lets grid values be read as nodal values.

Each check decides its own verdict: the row it returns carries ``ok`` under
that check's rule (symmetry residual below 1e-12, symbol minimum above
DELTA_THRESHOLD, each compatibility family below RESIDUAL_TOL, cardinal
residual at most 1e-12), the table prints PASS or FAIL from it, and an element
passes exactly when every row does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .elements import FiniteElement, lattice_points_in_box
from .integrator import LinearSolver
from .lattice import GridFunction
from .tensors import ReferenceTensors

DELTA_THRESHOLD = 1e-8
RESIDUAL_TOL = 1e-10


class SymbolError(RuntimeError):
    """Raised when the mass symbol has a non-negligible imaginary part."""


@dataclass
class IdentityRow:
    """One line of the verification table, with the verdict of its own rule."""

    name: str
    target: float
    computed: float
    residual: float
    ok: bool

    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"


@dataclass
class AssumptionReport:
    element: str
    d: int
    delta_estimate: float
    compatibility_residuals: dict[str, float]
    details: list[IdentityRow]

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.details)


# ---------------------------------------------------------------------------
# invertibility via the Toeplitz symbol
# ---------------------------------------------------------------------------


def symbol_values(tensors: ReferenceTensors, thetas: np.ndarray) -> np.ndarray:
    """Evaluate the complex mass symbol at an (m, d) array of frequencies.

    Raises SymbolError if any imaginary part exceeds 1e-12, which signals a
    broken reflection symmetry upstream.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    vals = np.zeros(thetas.shape[0], dtype=complex)
    for lam in tensors.gamma:
        phase = thetas @ np.asarray(lam, dtype=float)
        vals += tensors.r(lam) * np.exp(1j * phase)
    worst_im = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    if worst_im > 1e-12:
        raise SymbolError(f"mass symbol has imaginary part {worst_im:.3e}")
    return vals.real


def check_invertibility(tensors: ReferenceTensors, grid_points_per_axis: int = 0) -> float:
    """Sharp invertibility constant: minimum of the mass symbol over frequencies.

    Samples S(theta) on a regular grid of [0, 2pi)^d and polishes the
    minimizer with a derivative-free local search.  An even grid contains
    theta = pi per axis, where the built-in elements attain their minimum.
    """
    from scipy.optimize import minimize  # only element verification needs it

    d = tensors.d
    if grid_points_per_axis <= 0:
        grid_points_per_axis = {1: 1024, 2: 128, 3: 32, 4: 16}.get(d, 16)
    axis = np.linspace(0.0, 2.0 * np.pi, grid_points_per_axis, endpoint=False)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    thetas = np.stack([g.ravel() for g in grids], axis=1)
    vals = symbol_values(tensors, thetas)
    best = int(np.argmin(vals))
    best_val = float(vals[best])
    start = thetas[best]

    def objective(theta):
        return float(symbol_values(tensors, theta.reshape(1, -1))[0])

    res = minimize(
        objective,
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 2000},
    )
    return min(best_val, float(res.fun))


# ---------------------------------------------------------------------------
# compatibility identities
# ---------------------------------------------------------------------------


def _worst_case(cases) -> IdentityRow:
    """Row of the first (label, target, value) case with the largest |value - target|."""
    label, target, value = max(cases, key=lambda case: abs(case[2] - case[1]))
    residual = abs(value - target)
    return IdentityRow(label, target, value, residual, residual < RESIDUAL_TOL)


def check_compatibility(tensors: ReferenceTensors) -> tuple[dict[str, float], list[IdentityRow]]:
    """Residuals of the zero/first/second-moment identities of the tensors.

    Returns a map identity-family -> max abs residual, plus a per-family
    detail row carrying the worst offending index combination.
    """
    gamma = tensors.gamma
    axes = range(1, tensors.d + 1)
    pairs = list(itertools.product(axes, repeat=2))
    quads = list(itertools.product(axes, repeat=4))
    families = {
        "sum_R": [("sum R = 1", 1.0, sum(tensors.r(lam) for lam in gamma))],
        "sum_Rij": (
            (f"sum R^{{{i}{j}}} = 0", 0.0, sum(tensors.rab(lam, i, j) for lam in gamma))
            for i, j in pairs
        ),
        "first_moment": (
            (f"sum lam_{k} R^{i} = {int(t)}", t,
             sum(lam[k - 1] * tensors.rbeta(lam, i) for lam in gamma))
            for i, k in pairs
            for t in [float(i == k)]
        ),
        # target delta_{ik} delta_{jl} + delta_{il} delta_{jk}
        "second_moment": (
            (f"sum lam_{k} lam_{l} R^{{{i}{j}}} = {t:g}", t,
             sum(lam[k - 1] * lam[l - 1] * tensors.rab(lam, i, j) for lam in gamma))
            for i, j, k, l in quads
            for t in [(2.0 if i == j else 1.0) * ({i, j} == {k, l})]
        ),
        "sum_Q": (
            (f"sum Q^{{{i}{j},{k}{l}}} = 0", 0.0,
             sum(tensors.q(lam, i, j, k, l) for lam in gamma))
            for i, j, k, l in quads
        ),
        "sum_Qtilde": (
            (f"sum Qtilde^{{{i},{k}}} = 0", 0.0, sum(tensors.qtilde(lam, i, k) for lam in gamma))
            for i, k in pairs
        ),
    }
    rows = [_worst_case(cases) for cases in families.values()]
    return {family: row.residual for family, row in zip(families, rows)}, rows


def smallest_eigenvalue_inverse_power(
    op, iters: int = 200, tol: float = 1e-13, seed: int = 0
) -> float:
    """Smallest eigenvalue of a symmetric stencil operator by inverse power
    iteration, factoring the operator once through LinearSolver.

    The Rayleigh estimate approaches the minimum from above, so it certifies
    lower bounds; its accuracy is limited by the gap to the next eigenvalue,
    which clusters for mass operators on fine tori.
    """
    lattice = op.lattice
    solver = LinearSolver(op)

    def rayleigh(v: np.ndarray) -> float:
        return float(v @ op.apply(GridFunction(lattice, v.reshape(lattice.shape))).flat())

    v = np.random.default_rng(seed).normal(size=lattice.total_sites)
    v /= np.linalg.norm(v)
    value = rayleigh(v)
    for _ in range(iters):
        w = solver.solve(v)
        w /= np.linalg.norm(w)
        new_value = rayleigh(w)
        if abs(new_value - value) < tol * max(1.0, abs(new_value)):
            return new_value
        v, value = w, new_value
    return value


# ---------------------------------------------------------------------------
# cardinal interpolation property
# ---------------------------------------------------------------------------


def check_cardinal(element: FiniteElement) -> tuple[bool, float]:
    """True iff psi(0) = 1 and psi vanishes at every other lattice point, to 1e-12."""
    lo, hi = element.psi.support_bbox()
    others = [lam for lam in lattice_points_in_box(element.lambda_set, lo, hi) if any(lam)]
    pts = np.array([(0,) * element.d, *others], dtype=float)
    defects = element.psi.eval_many(pts)
    defects[0] -= 1.0
    worst = float(np.max(np.abs(defects)))
    return worst <= 1e-12, worst


# ---------------------------------------------------------------------------
# parabolicity of the coefficients
# ---------------------------------------------------------------------------


def check_parabolicity(
    problem,
    L: float,
    T: float = 1.0,
    sample_points: int = 10_000,
    t_samples: int = 3,
) -> float:
    """Smallest eigenvalue of a - sigma sigma^T / 2 over sampled (t, x).

    A positive return spot-checks the strong parabolicity condition; sampling
    can only refute the condition, not prove it.  Raises ValueError if the
    sampled diffusion matrix is not symmetric.
    """
    d = problem.d
    per_axis = max(2, int(round(sample_points ** (1.0 / d))))
    axes = [np.linspace(0.0, L, per_axis, endpoint=False)] * d
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    times = np.linspace(0.0, T, max(1, t_samples))
    worst = np.inf
    for t in times:
        amat = problem.eval_a(pts, t)  # (N, d, d)
        asym = float(np.max(np.abs(amat - np.swapaxes(amat, 1, 2))))
        if asym > 1e-10:
            raise ValueError(f"diffusion matrix not symmetric: deviation {asym:.3e}")
        sig = problem.eval_sigma(pts, t)  # (N, d, rho)
        m = amat - 0.5 * np.einsum("nir,njr->nij", sig, sig)
        if d == 1:
            worst = min(worst, float(m[:, 0, 0].min()))
        else:
            worst = min(worst, float(np.linalg.eigvalsh(m)[:, 0].min()))
    return worst


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


def verify_element(element: FiniteElement, tensors: ReferenceTensors) -> AssumptionReport:
    """Assemble the full assumption report for an element."""
    sym_residual = tensors.symmetry_residual()
    symbol_min = check_invertibility(tensors)
    residuals, rows = check_compatibility(tensors)
    cardinal_ok, cardinal_residual = check_cardinal(element)
    rows.insert(0, IdentityRow("tensor reflection symmetry", 0.0, sym_residual, sym_residual,
                               sym_residual < 1e-12))
    rows.insert(1, IdentityRow("delta (symbol minimum)", DELTA_THRESHOLD, symbol_min,
                               max(DELTA_THRESHOLD - symbol_min, 0.0),
                               symbol_min > DELTA_THRESHOLD))
    rows.append(IdentityRow("cardinal interpolation", 0.0, cardinal_residual, cardinal_residual,
                            cardinal_ok))
    return AssumptionReport(
        element=element.name,
        d=element.d,
        delta_estimate=max(symbol_min, 0.0),
        compatibility_residuals=residuals,
        details=rows,
    )
