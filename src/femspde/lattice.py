"""Periodic lattices on a torus and real-valued grid functions over them.

A GridFunction is the one state type: a block of Monte Carlo samples over
one lattice, stored (samples, n, ..., n), where one noise path is a block of
one sample.  Every layer (stencil products, norms, restriction, the
integrator's states) takes and returns that form.

A lattice is the restriction of h Z^d to a torus of side L = n h, with an
even number n of sites per axis so that halving h keeps the coarse sites a
subset of the fine ones.  Restriction between nested lattices is plain
injection (sampling at the shared sites): under the cardinal interpolation
property the coordinate vector of a solution is its nodal values, so no
averaging is wanted.

The CSV text of a run's fields is formatted here, one field
(grid_function_to_csv) or a trajectory streamed state by state (states_csv);
no function here opens a file.
"""

from __future__ import annotations

import math
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
        try:  # the assembly divides by h^2 and the norms scale by h^d
            powers = [float(self.h) ** k for k in (1, 2, -2, self.d)]
        except (OverflowError, ZeroDivisionError):
            powers = [math.inf]
        if not all(0.0 < p < math.inf for p in powers):
            raise ValueError(f"mesh size h must be positive, with h^2, 1/h^2 and h^{self.d} "
                             f"finite and nonzero, got {self.h}")
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
        return self.h * self.multi_indices()

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
    """Real fields of a block of samples over the sites of a TorusLattice.

    values is always (samples, n, ..., n).  Values shaped lattice.shape are
    one sample and gain the leading axis (a view, not a copy); any other
    shape is a ValueError.
    """

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: TorusLattice, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim == lattice.d:
            values = values[None]
        if values.shape[1:] != lattice.shape:
            raise ValueError(f"values shape {values.shape} is neither {lattice.shape} nor "
                             f"(samples, *{lattice.shape})")
        self.lattice = lattice
        self.values = values


def norms_0h(lattice: TorusLattice, block: np.ndarray) -> np.ndarray:
    """|U|_{0,h} = (h^d sum_x U(x)^2)^(1/2) of every sample of a
    (samples, *lattice.shape) block; inf where it overflows."""
    axes = tuple(range(1, lattice.d + 1))
    with np.errstate(over="ignore"):
        return np.sqrt(lattice.h**lattice.d * np.sum(block**2, axis=axes))


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
    """Injection: sample every sample's fine field at the coarse sites."""
    step = nesting_factor(fine.lattice, coarse)
    sl = (slice(None),) + (slice(None, None, step),) * coarse.d
    return GridFunction(coarse, fine.values[sl].copy())


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


# the text of one value: scientific notation with 17 significant digits, '.'
# separator, at least two exponent digits (numpy's format_float_scientific with
# precision=16, unique=False, exp_digits=2)
FLOAT_FORMAT = "%.16e"


def format_float(v: float) -> str:
    """One value in FLOAT_FORMAT."""
    return FLOAT_FORMAT % v


def _one_sample(u: GridFunction) -> np.ndarray:
    if len(u.values) != 1:
        raise ValueError(f"a CSV holds one sample, got {len(u.values)}")
    return u.values.reshape(-1)


def grid_function_to_csv(u: GridFunction) -> str:
    """One row per site of a one-sample field: multi-index, coordinates, value; LF line endings.

    The rows are one %-format call: the multi-indices are written into a
    per-site row template, and the coordinates and values fill it in order.
    """
    flat = _one_sample(u)
    d = u.lattice.d
    header = [f"i{k + 1}" for k in range(d)] + [f"x{k + 1}" for k in range(d)] + ["value"]
    floats = "," + ",".join([FLOAT_FORMAT] * (d + 1)) + "\n"
    template = "".join([",".join(map(str, i)) + floats
                        for i in u.lattice.multi_indices().tolist()])
    values = np.column_stack([u.lattice.coords(), flat]).ravel().tolist()
    return ",".join(header) + "\n" + template % tuple(values)


def states_csv(times: np.ndarray, states: list[GridFunction]):
    """A trajectory of one-sample fields as rows step,time,site,value; LF line endings.

    Yields the header and then one chunk of text per state, so that a writer
    holds one state's text at a time.  Each chunk is one %-format call over a
    per-site row template, built once: the step-and-time prefix and the value
    alternate in its arguments.
    """
    sites = len(_one_sample(states[0]))
    template = "".join([f"%s{site},{FLOAT_FORMAT}\n" for site in range(sites)])
    yield "step,time,site,value\n"
    for k, state in enumerate(states):
        args = [f"{k},{format_float(times[k])},"] * (2 * sites)
        args[1::2] = _one_sample(state).tolist()
        yield template % tuple(args)
