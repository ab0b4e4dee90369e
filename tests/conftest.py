import numpy as np
import pytest

from femspde.elements import build_element
from femspde.tensors import compute_reference_tensors


@pytest.fixture(scope="session")
def hat1d():
    return build_element("hat1d")


@pytest.fixture(scope="session")
def tensor2():
    return build_element("tensor(2)")


@pytest.fixture(scope="session")
def triangle2d():
    return build_element("triangle2d")


@pytest.fixture(scope="session")
def hat1d_tensors(hat1d):
    return compute_reference_tensors(hat1d)


@pytest.fixture(scope="session")
def tensor2_tensors(tensor2):
    return compute_reference_tensors(tensor2)


@pytest.fixture(scope="session")
def triangle2d_tensors(triangle2d):
    return compute_reference_tensors(triangle2d)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def skew_hat_text():
    # hat1d whose right piece has slope -0.99999999997: psi(1) = 3e-11, and
    # the tensors miss reflection symmetry by about as much
    return """\
d = 1
name = skew-hat
lambda = (-1) (0) (1)

[cell]
type = box
lo = -1
hi = 0
poly = 0: 1  1: 1

[cell]
type = box
lo = 0
hi = 1
poly = 0: 1  1: -0.99999999997
"""


@pytest.fixture(scope="session")
def large_scaled_hat_text():
    # hat1d with every value scaled by 1000.3: R(lam) and R(-lam) differ by
    # about 6e-11 in floating point
    return """\
d = 1
name = scaled-hat
lambda = (-1) (0) (1)

[cell]
type = box
lo = -1
hi = 0
poly = 0: 1000.3  1: 1000.3

[cell]
type = box
lo = 0
hi = 1
poly = 0: 1000.3  1: -1000.3
"""
