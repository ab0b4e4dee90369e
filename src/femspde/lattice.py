"""Periodic lattices on a torus and real-valued grid functions over them.

A lattice is the restriction of h Z^d to a torus of side L = n h, with an
even number n of sites per axis so that halving h keeps the coarse sites a
subset of the fine ones.  Restriction between nested lattices is plain
injection (sampling at the shared sites): under the cardinal interpolation
property the coordinate vector of a solution is its nodal values, so no
averaging is wanted.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TorusLattice:
    d: int
    h: float
    n: int  # sites per axis

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if self.h <= 0.0:
            raise ValueError("mesh size h must be positive")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"sites per axis must be even and >= 4, got {self.n}")

    @property
    def L(self) -> float:
        return self.n * self.h

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def total_sites(self) -> int:
        return self.n**self.d

    def axis_coords(self) -> np.ndarray:
        return self.h * np.arange(self.n)

    def coords(self) -> np.ndarray:
        """All site coordinates as an (n^d, d) array in C order."""
        axes = [self.axis_coords()] * self.d
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def multi_indices(self) -> np.ndarray:
        axes = [np.arange(self.n)] * self.d
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def refine(self) -> "TorusLattice":
        """Halve h, double n; same torus length, coarse sites nested in fine."""
        return TorusLattice(self.d, self.h / 2.0, self.n * 2)


def build_torus(d: int, h: float, sites_per_axis: int) -> TorusLattice:
    return TorusLattice(d, float(h), int(sites_per_axis))


class GridFunction:
    """Real field over the sites of a TorusLattice, stored shaped (n, ..., n)."""

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: TorusLattice, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape == (lattice.total_sites,):
            values = values.reshape(lattice.shape)
        if values.shape != lattice.shape:
            raise ValueError(f"values shape {values.shape} does not match {lattice.shape}")
        self.lattice = lattice
        self.values = values

    @staticmethod
    def zeros(lattice: TorusLattice) -> "GridFunction":
        return GridFunction(lattice, np.zeros(lattice.shape))

    def copy(self) -> "GridFunction":
        return GridFunction(self.lattice, self.values.copy())

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _same_lattice(self, other)
        return GridFunction(self.lattice, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _same_lattice(self, other)
        return GridFunction(self.lattice, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.lattice, self.values * scalar)

    __rmul__ = __mul__


class SampleBlock:
    """Fields of several Monte Carlo samples over one lattice, stored (samples, n, ..., n)."""

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: TorusLattice, values: np.ndarray):
        if values.shape[1:] != lattice.shape:
            raise ValueError(f"block shape {values.shape} does not match {lattice.shape}")
        self.lattice = lattice
        self.values = values


def _same_lattice(a: GridFunction, b: GridFunction) -> None:
    if a.lattice != b.lattice:
        raise ValueError(f"lattice mismatch: {a.lattice} vs {b.lattice}")


def norm_0h(u: GridFunction) -> float:
    """Discrete L2 norm: |U|_{0,h} = (h^d sum_x U(x)^2)^(1/2)."""
    return float(norms_0h(u.lattice, u.values[None])[0])


def norms_0h(lattice: TorusLattice, block: np.ndarray) -> np.ndarray:
    """|U|_{0,h} of every sample of a (samples, *lattice.shape) block."""
    axes = tuple(range(1, lattice.d + 1))
    return np.sqrt(lattice.h**lattice.d * np.sum(block**2, axis=axes))


def inner_0h(u: GridFunction, v: GridFunction) -> float:
    _same_lattice(u, v)
    h = u.lattice.h
    return float(h**u.lattice.d * np.sum(u.values * v.values))


def nesting_factor(fine: TorusLattice, coarse: TorusLattice) -> int:
    """Power-of-two site ratio between nested lattices; raises if not nested."""
    if fine.d != coarse.d:
        raise ValueError("dimension mismatch between lattices")
    if abs(fine.L - coarse.L) > 1e-12 * max(fine.L, coarse.L):
        raise ValueError(f"torus lengths differ: {fine.L} vs {coarse.L}")
    if fine.n % coarse.n != 0:
        raise ValueError(f"{fine.n} sites not a multiple of {coarse.n}")
    step = fine.n // coarse.n
    if step & (step - 1):
        raise ValueError(f"site ratio {step} is not a power of two")
    return step


def restrict(fine: GridFunction, coarse: TorusLattice) -> GridFunction:
    """Injection: sample the fine field at the coarse sites."""
    step = nesting_factor(fine.lattice, coarse)
    sl = (slice(None, None, step),) * coarse.d
    return GridFunction(coarse, fine.values[sl].copy())


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def format_float(v: float) -> str:
    """Scientific notation with 17 significant digits, '.' separator, at least
    two exponent digits (the same text as numpy's format_float_scientific with
    precision=16, unique=False, exp_digits=2)."""
    return "%.16e" % v


def grid_function_to_csv(u: GridFunction) -> str:
    """One row per site: multi-index, coordinates, value; LF line endings."""
    d = u.lattice.d
    buf = io.StringIO()
    header = [f"i{k + 1}" for k in range(d)] + [f"x{k + 1}" for k in range(d)] + ["value"]
    buf.write(",".join(header) + "\n")
    idx = u.lattice.multi_indices()
    xs = u.lattice.coords()
    flat = u.flat()
    for row in range(idx.shape[0]):
        cols = [str(int(i)) for i in idx[row]]
        cols += [format_float(x) for x in xs[row]]
        cols.append(format_float(flat[row]))
        buf.write(",".join(cols) + "\n")
    return buf.getvalue()


def write_grid_function_csv(path, u: GridFunction) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(grid_function_to_csv(u))
