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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elements import FiniteElement, lattice_points_in_box
from .integrator import LinearSolver, SolverConfig
from .lattice import GridFunction
from .tensors import ReferenceTensors

DELTA_THRESHOLD = 1e-8
RESIDUAL_TOL = 1e-10


class SymbolError(RuntimeError):
    """Raised when the mass symbol has a non-negligible imaginary part."""


@dataclass
class IdentityRow:
    """One line of the verification table."""

    name: str
    target: float
    computed: float
    residual: float

    def verdict(self, tol: float = RESIDUAL_TOL) -> str:
        return "PASS" if self.residual < tol else "FAIL"


@dataclass
class AssumptionReport:
    element: str
    d: int
    symmetry_ok: bool
    symmetry_residual: float
    delta_estimate: float
    compatibility_residuals: dict[str, float]
    cardinal_ok: bool
    cardinal_residual: float
    details: list[IdentityRow] = field(default_factory=list)
    delta_threshold: float = DELTA_THRESHOLD
    residual_tol: float = RESIDUAL_TOL

    @property
    def passed(self) -> bool:
        return (
            self.symmetry_ok
            and self.cardinal_ok
            and self.delta_estimate > self.delta_threshold
            and all(r < self.residual_tol for r in self.compatibility_residuals.values())
        )


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


def _delta_sets(a: tuple[int, ...], b: tuple[int, ...]) -> float:
    return 1.0 if set(a) == set(b) else 0.0


def check_compatibility(tensors: ReferenceTensors) -> tuple[dict[str, float], list[IdentityRow]]:
    """Residuals of the zero/first/second-moment identities of the tensors.

    Returns a map identity-family -> max abs residual, plus a per-family
    detail row carrying the worst offending index combination.
    """
    d = tensors.d
    gamma = tensors.gamma
    rows: list[IdentityRow] = []
    residuals: dict[str, float] = {}

    s = sum(tensors.r(lam) for lam in gamma)
    rows.append(IdentityRow("sum R = 1", 1.0, s, abs(s - 1.0)))
    residuals["sum_R"] = abs(s - 1.0)

    worst = IdentityRow("sum R^ij = 0", 0.0, 0.0, -1.0)
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            v = sum(tensors.rab(lam, i, j) for lam in gamma)
            if abs(v) > worst.residual:
                worst = IdentityRow(f"sum R^{{{i}{j}}} = 0", 0.0, v, abs(v))
    rows.append(worst)
    residuals["sum_Rij"] = worst.residual

    worst = IdentityRow("first moment", 0.0, 0.0, -1.0)
    for i in range(1, d + 1):
        for k in range(1, d + 1):
            target = 1.0 if i == k else 0.0
            v = sum(lam[k - 1] * tensors.rbeta(lam, i) for lam in gamma)
            if abs(v - target) > worst.residual:
                worst = IdentityRow(
                    f"sum lam_{k} R^{i} = {int(target)}", target, v, abs(v - target)
                )
    rows.append(worst)
    residuals["first_moment"] = worst.residual

    worst = IdentityRow("second moment", 0.0, 0.0, -1.0)
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                for l in range(1, d + 1):
                    base = _delta_sets((i, j), (k, l))
                    target = 2.0 * base if i == j else base
                    v = sum(
                        lam[k - 1] * lam[l - 1] * tensors.rab(lam, i, j) for lam in gamma
                    )
                    if abs(v - target) > worst.residual:
                        worst = IdentityRow(
                            f"sum lam_{k} lam_{l} R^{{{i}{j}}} = {target:g}",
                            target,
                            v,
                            abs(v - target),
                        )
    rows.append(worst)
    residuals["second_moment"] = worst.residual

    worst = IdentityRow("sum Q = 0", 0.0, 0.0, -1.0)
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                for l in range(1, d + 1):
                    v = sum(tensors.q(lam, i, j, k, l) for lam in gamma)
                    if abs(v) > worst.residual:
                        worst = IdentityRow(f"sum Q^{{{i}{j},{k}{l}}} = 0", 0.0, v, abs(v))
    rows.append(worst)
    residuals["sum_Q"] = worst.residual

    worst = IdentityRow("sum Qtilde = 0", 0.0, 0.0, -1.0)
    for i in range(1, d + 1):
        for k in range(1, d + 1):
            v = sum(tensors.qtilde(lam, i, k) for lam in gamma)
            if abs(v) > worst.residual:
                worst = IdentityRow(f"sum Qtilde^{{{i},{k}}} = 0", 0.0, v, abs(v))
    rows.append(worst)
    residuals["sum_Qtilde"] = worst.residual

    return residuals, rows


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
    solver = LinearSolver(op, SolverConfig())

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


def check_cardinal(element: FiniteElement, tol: float = 1e-12) -> tuple[bool, float]:
    """True iff psi(0) = 1 and psi vanishes at every other lattice point."""
    lo, hi = element.psi.support_bbox()
    points = lattice_points_in_box(element.lambda_set, lo, hi)
    worst = abs(element.evaluate(np.zeros(element.d)) - 1.0)
    for lam in points:
        if all(c == 0 for c in lam):
            continue
        worst = max(worst, abs(element.evaluate(np.asarray(lam, dtype=float))))
    return worst <= tol, worst


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


def verify_element(
    element: FiniteElement,
    tensors: ReferenceTensors,
    grid_points_per_axis: int = 0,
    delta_threshold: float = DELTA_THRESHOLD,
    residual_tol: float = RESIDUAL_TOL,
) -> AssumptionReport:
    """Assemble the full assumption report for an element."""
    sym_residual = tensors.symmetry_residual()
    symmetry_ok = sym_residual < 1e-12
    symbol_min = check_invertibility(tensors, grid_points_per_axis)
    residuals, rows = check_compatibility(tensors)
    cardinal_ok, cardinal_residual = check_cardinal(element)
    rows.insert(0, IdentityRow("tensor reflection symmetry", 0.0, sym_residual, sym_residual))
    rows.insert(1, IdentityRow("delta (symbol minimum)", delta_threshold, symbol_min,
                               0.0 if symbol_min > delta_threshold else delta_threshold - symbol_min))
    rows.append(IdentityRow("cardinal interpolation", 0.0, cardinal_residual, cardinal_residual))
    return AssumptionReport(
        element=element.name,
        d=element.d,
        symmetry_ok=symmetry_ok,
        symmetry_residual=sym_residual,
        delta_estimate=max(symbol_min, 0.0),
        compatibility_residuals=residuals,
        cardinal_ok=cardinal_ok,
        cardinal_residual=cardinal_residual,
        details=rows,
        delta_threshold=delta_threshold,
        residual_tol=residual_tol,
    )
