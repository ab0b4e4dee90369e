"""
Coupled noise across meshes and strong convergence
==================================================

Strong (pathwise) error measurement needs every mesh to see the same driving
noise.  Because all meshes share one time grid, the same Wiener increments
are reused verbatim on every level; increments are generated counter-based,
so the value at (seed, rho, step) is addressable without streaming.

The study averages squared errors over per-sample seeds and fits the
root-mean-square error: the base scheme converges at order ~2 and the
two-level mixture at order ~4, with a strictly smaller error on every mesh.
It runs on a problem driven by the noise alone (phi = 0, f = 0), so every
error it reports comes from the coupled noise paths; the samples advance
together in blocks on each mesh.
"""

import numpy as np

from femspde import (
    NoisePath,
    build_element,
    build_torus,
    compute_reference_tensors,
    integrate_multilevel,
    parse_problem_text,
    sample_seed,
)
from femspde.study import StudyConfig, run_convergence_study

PROBLEM = """
a.1.1 = "1"
sigma.1.1 = "0.3"
g.1 = "0.1"
phi = "sin(x1)"
"""

element = build_element("hat1d")
tensors = compute_reference_tensors(element)
problem = parse_problem_text(PROBLEM)

# -- the coupling itself -------------------------------------------------------

# solve the same path on a mesh and its refinement: the two trajectories are
# driven by identical increments and stay strongly correlated
coarse = build_torus(1, 2 * np.pi / 16, 16)
site = 4  # x = pi/2
pairs = []
for k in range(50):
    noise = NoisePath(sample_seed(7, k), steps=16, dt=0.01, rho_count=1)
    levels = integrate_multilevel(element, tensors, problem, coarse, 2, noise,
                                  T=0.16, steps=16, record="terminal")
    pairs.append((levels[0].terminal.values[0, site], levels[1].terminal.values[0, 2 * site]))
corr = np.corrcoef(np.asarray(pairs).T)[0, 1]
print(f"correlation of the coarse/fine values at x = pi/2 over 50 paths: {corr:.4f}")

# -- strong convergence orders -------------------------------------------------

# without sigma, nu and g this problem's solution is 0 on every mesh
NOISE_DRIVEN = """
a.1.1 = "1 + 0.25*cos(x1)"
sigma.1.1 = "0.3*cos(x1)"
nu.1 = "0.2"
g.1 = "0.1*sin(x1)"
"""

cfg = StudyConfig(
    L=2 * np.pi,
    ladder_n=[16, 32, 64],
    ref_n=256,
    T=0.25,
    jbar=1,
    ratio=0.25,
    samples=25,
    base_seed=4242,
)
result = run_convergence_study(element, tensors, parse_problem_text(NOISE_DRIVEN), cfg)
print(f"\n{result.samples} samples, {result.steps} shared time steps")
for report in result.reports():
    errs = "  ".join(f"{e:.3e}" for e in report.errors)
    print(f"{report.label:16s} errors: {errs}   fitted order {report.fitted_order:.3f}")
print("\nmixture beats the base scheme at every mesh:",
      all(m < b for m, b in zip(result.mixture.errors, result.base.errors)))
