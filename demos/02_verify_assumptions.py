"""
Verifying the element assumptions at runtime
============================================

The scheme is well posed when the mass operator is invertible on the lattice
and second-order consistent when the tensor moment identities hold.  Both are
checkable facts about a candidate element, so the package certifies them
instead of trusting the construction.
"""

import numpy as np

from femspde import (
    build_element,
    check_invertibility,
    check_parabolicity,
    compute_reference_tensors,
    parse_problem_text,
    verify_element,
)

# -- certify the built-ins ----------------------------------------------------

for preset in ("hat1d", "tensor(2)", "triangle2d"):
    element = build_element(preset)
    tensors = compute_reference_tensors(element)
    report = verify_element(element, tensors)
    print(f"{preset:12s} delta = {report.delta_estimate:.12f} "
          f"worst residual = {max(report.compatibility_residuals.values()):.2e} "
          f"-> {'PASS' if report.passed else 'FAIL'}")

# The invertibility constant is the minimum of the Fourier symbol of the mass
# stencil; for the hat it is exactly 1/3, attained at the highest frequency.
hat = build_element("hat1d")
tensors = compute_reference_tensors(hat)
delta = check_invertibility(tensors)
print("\nhat1d symbol minimum:", delta, "(= 1/3)")

# -- spot-check parabolicity of a coefficient set ------------------------------

good = parse_problem_text('a.1.1 = "1.6 + 0.5*sin(x1)"\nsigma.1.1 = "1"\nd = 1')
bad = parse_problem_text('a.1.1 = "1"\nsigma.1.1 = "sqrt(2)"\nd = 1')
print("\nkappa estimate, a = 1.6 + 0.5 sin(x1), sigma = 1   :",
      check_parabolicity(good, L=2 * np.pi))
print("kappa estimate, a = 1,              sigma = sqrt(2):",
      check_parabolicity(bad, L=2 * np.pi), "(not strictly positive -> reject)")

# Sampling can refute the condition but never prove it; the checker reports
# the smallest eigenvalue of a - sigma sigma^T / 2 it found.
