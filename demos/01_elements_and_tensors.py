"""
Finite elements and their reference tensors
===========================================

Each built-in element is one symmetric mother function psi stored as exact
piecewise polynomials, together with its shift set.  Everything the lattice
scheme needs is derived from inner products of psi against shifted copies of
itself, computed by Gauss rules that are exact for the polynomial integrands.
"""

import numpy as np

from femspde import build_element, compute_reference_tensors

# -- the classical 1-D hat ---------------------------------------------------

hat = build_element("hat1d")
print("hat1d")
print("  neighbor set Gamma:", hat.gamma)
print("  psi(0) =", hat.psi((0.0,)), "  psi(0.5) =", hat.psi((0.5,)))

# Each tensor is an array whose axis 0 runs over Gamma, in the order of
# tensors.gamma; derivative axes count from 0.
tensors = compute_reference_tensors(hat)
zero, one = tensors.gamma.index((0,)), tensors.gamma.index((1,))
print("  mass row      R_0, R_1   =", tensors.R[zero], ",", tensors.R[one])
print("  stiffness     R11_0, R11_1 =", tensors.Rab[zero, 0, 0], ",", tensors.Rab[one, 0, 0])
print("  first deriv   R1_{+1}    =", tensors.Rbeta[one, 0])

# The mass row sums to one and the stiffness row to zero; these are the
# zeroth compatibility identities that make the scheme consistent.
print("  sum R  =", sum(tensors.R))
print("  sum R11 =", sum(tensors.Rab[:, 0, 0]))

# -- the P1 element on the criss-cross triangulation -------------------------

tri = build_element("triangle2d")
tri_tensors = compute_reference_tensors(tri)
print("\ntriangle2d")
print("  |Gamma| =", len(tri.gamma), "(six neighbors plus the origin)")
zero, east = tri_tensors.gamma.index((0, 0)), tri_tensors.gamma.index((1, 0))
print("  (psi, psi) =", tri_tensors.R[zero], " neighbor overlap =", tri_tensors.R[east])

# -- products of hats in any dimension ---------------------------------------

ten = build_element("tensor(2)")
ten_tensors = compute_reference_tensors(ten)
print("\ntensor(2)")
print("  |Gamma| =", len(ten.gamma), "(the full 3x3 neighborhood)")
print("  R factorizes:", ten_tensors.R[ten_tensors.gamma.index((1, 0))], "=", 1 / 6 * 2 / 3)

# Evaluating psi anywhere is exact piecewise-polynomial evaluation:
pts = np.array([[0.25, 0.25], [0.75, -0.25], [1.5, 0.0]])
print("  psi at", pts.tolist(), "->", ten.psi.eval_many(pts))
