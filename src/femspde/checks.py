"""Runtime verification of the element and coefficient assumptions.

The invertibility constant of the lattice mass operator is obtained from the
Fourier symbol of its Toeplitz form,

    S(theta) = sum_lam R_lam cos(lam . theta),

whose minimum over the torus of frequencies is the sharp constant delta of
the quadratic form on l2.  S is real because R(lam) = R(-lam) for every psi;
whether the computed tensors keep that evenness is judged by one rule, the
tensor reflection symmetry row.  The compatibility identities tie the first
and second discrete moments of the tensors to the identity matrix; they are
what makes the assembled operators second-order consistent, and each family
is one sum over Gamma (axis 0 of the tensor arrays).  The cardinal check
verifies psi(0) = 1 with psi vanishing on all other lattice points, which is
what lets grid values be read as nodal values.

Each check decides its own verdict: the row it returns carries ``ok`` under
that check's rule (symmetry residual below 1e-12, symbol minimum above
DELTA_THRESHOLD, each compatibility family below RESIDUAL_TOL, cardinal
residual at most 1e-12), the table prints PASS or FAIL from it, and an element
passes exactly when every row does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import FiniteElement, lattice_points_in_box
from .integrator import LinearSolver
from .lattice import GridFunction
from .tensors import ReferenceTensors

DELTA_THRESHOLD = 1e-8
RESIDUAL_TOL = 1e-10


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
    """Evaluate the mass symbol S(theta) = sum_lam R_lam cos(lam . theta) at an
    (m, d) array of frequencies.

    R(lam) = R(-lam) for every psi, so the symbol is real; whether the
    computed tensors keep that evenness is the symmetry row's verdict.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    vals = np.zeros(thetas.shape[0])
    for lam, r in zip(tensors.gamma, tensors.R):
        vals += r * np.cos(thetas @ np.asarray(lam, dtype=float))
    return vals


def check_invertibility(tensors: ReferenceTensors) -> float:
    """Sharp invertibility constant: minimum of the mass symbol over frequencies.

    Samples S(theta) on a regular grid of [0, 2pi)^d, 1024, 128, 32 or 16
    points per axis for d = 1, 2, 3, 4 (16 beyond), and polishes the minimizer
    with a derivative-free local search.  An even grid contains theta = pi per
    axis, where the built-in elements attain their minimum.
    """
    from scipy.optimize import minimize  # only element verification needs it

    d = tensors.d
    per_axis = {1: 1024, 2: 128, 3: 32, 4: 16}.get(d, 16)
    axis = np.linspace(0.0, 2.0 * np.pi, per_axis, endpoint=False)
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


def _worst_case(label: str, target, terms: np.ndarray) -> IdentityRow:
    """Row of the worst index of one identity family.

    terms has axis 0 over Gamma; the sum runs over it in Gamma order (the
    built-in sum adds whole rows, one shift after another).  The worst index
    is the first, in C order, with the largest |sum - target|; label is
    formatted with its 1-based indices and the target t.
    """
    value = sum(terms)
    target = np.broadcast_to(target, value.shape)
    residuals = np.abs(value - target)
    index = np.unravel_index(np.argmax(residuals), residuals.shape)
    t, residual = float(target[index]), float(residuals[index])
    return IdentityRow(label.format(*(n + 1 for n in index), t=t), t, float(value[index]),
                       residual, residual < RESIDUAL_TOL)


def check_compatibility(tensors: ReferenceTensors) -> tuple[dict[str, float], list[IdentityRow]]:
    """Residuals of the zero/first/second-moment identities of the tensors.

    Each family is one sum over Gamma of an array indexed like its label.
    Returns a map identity-family -> max abs residual, plus a per-family
    detail row carrying the worst offending index combination.
    """
    lam = np.asarray(tensors.gamma)  # (G, d) integers
    eye = np.eye(tensors.d)
    lam_kl = lam[:, :, None] * lam[:, None, :]  # lam_k lam_l, in integers
    families = {
        "sum_R": ("sum R = 1", 1.0, tensors.R[:, None]),
        "sum_Rij": ("sum R^{{{0}{1}}} = 0", 0.0, tensors.Rab),
        "first_moment": ("sum lam_{1} R^{0} = {t:g}", eye,
                         lam[:, None, :] * tensors.Rbeta[:, :, None]),
        # target delta_{ik} delta_{jl} + delta_{il} delta_{jk}
        "second_moment": ("sum lam_{2} lam_{3} R^{{{0}{1}}} = {t:g}",
                          np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye),
                          lam_kl[:, None, None] * tensors.Rab[..., None, None]),
        "sum_Q": ("sum Q^{{{0}{1},{2}{3}}} = 0", 0.0, tensors.Q),
        "sum_Qtilde": ("sum Qtilde^{{{0},{1}}} = 0", 0.0, tensors.Qtilde),
    }
    rows = [_worst_case(*family) for family in families.values()]
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
        return float(v @ op.apply(GridFunction(lattice, v.reshape(lattice.shape))).values.ravel())

    v = np.random.default_rng(seed).normal(size=lattice.total_sites)
    v /= np.linalg.norm(v)
    value = rayleigh(v)
    for _ in range(iters):
        w = solver.solve(v[None])[0]
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
