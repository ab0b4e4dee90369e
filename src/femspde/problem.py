"""Problem definitions: coefficient fields for drift, noise, free terms, data.

A problem file is key-value text; values are expressions in x1..xd and t:

    d = 1
    rho_max = 1
    a.1.1 = "1 + 0.25*cos(x1)"
    b.1 = "0.1"
    c = "-0.2"
    sigma.1.1 = "0.3"
    nu.1 = "0"
    f = "sin(x1)"
    g.1 = "0.1"
    phi = "sin(x1)"

Quotes around values are optional.  Keys that are absent default to zero,
except the diffusion matrix `a`, which is required.  `a` must be symmetric:
a missing mirror entry is filled in from its transpose, and providing both
with different expressions is an error.  The l2-valued coefficients sigma,
nu and g are truncated to rho <= rho_max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr
from .expr import Ast


class ProblemFormatError(ValueError):
    """Raised for malformed problem files."""


@dataclass
class Problem:
    d: int
    rho_max: int
    a: dict[tuple[int, int], Ast]
    b: dict[int, Ast] = field(default_factory=dict)
    c: Ast | None = None
    sigma: dict[tuple[int, int], Ast] = field(default_factory=dict)
    nu: dict[int, Ast] = field(default_factory=dict)
    f: Ast | None = None
    g: dict[int, Ast] = field(default_factory=dict)
    phi: Ast | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ProblemFormatError("problem dimension must be >= 1")
        if not self.a:
            raise ProblemFormatError("the diffusion matrix 'a' is required")
        self._symmetrize_a()
        for ast in self._all_exprs():
            expr.validate_dimension(ast, self.d)

    def _all_exprs(self):
        out = list(self.a.values()) + list(self.b.values()) + list(self.sigma.values())
        out += list(self.nu.values()) + list(self.g.values())
        for ast in (self.c, self.f, self.phi):
            if ast is not None:
                out.append(ast)
        return out

    def _symmetrize_a(self):
        for (i, j), ast in list(self.a.items()):
            if not (1 <= i <= self.d and 1 <= j <= self.d):
                raise ProblemFormatError(f"a.{i}.{j} is outside dimension {self.d}")
            mirror = self.a.get((j, i))
            if mirror is None:
                self.a[(j, i)] = ast
            elif i != j and expr.to_source(mirror) != expr.to_source(ast):
                raise ProblemFormatError(
                    f"a.{i}.{j} and a.{j}.{i} differ; the diffusion matrix must be symmetric"
                )

    # -- structure ---------------------------------------------------------

    @property
    def has_noise(self) -> bool:
        return bool(self.sigma or self.nu or self.g)

    # -- vectorized evaluation ----------------------------------------------

    def eval_a(self, pts: np.ndarray, t: float) -> np.ndarray:
        n = pts.shape[0]
        out = np.zeros((n, self.d, self.d))
        for (i, j), ast in self.a.items():
            out[:, i - 1, j - 1] = expr.eval_many(ast, pts, t)
        return out

    def eval_sigma(self, pts: np.ndarray, t: float) -> np.ndarray:
        n = pts.shape[0]
        out = np.zeros((n, self.d, self.rho_max))
        for (i, rho), ast in self.sigma.items():
            out[:, i - 1, rho - 1] = expr.eval_many(ast, pts, t)
        return out

    def active_rhos(self) -> list[int]:
        """Noise indices rho with any nonzero sigma, nu or g entry."""
        rhos = {r for (_, r) in self.sigma} | set(self.nu) | set(self.g)
        return sorted(r for r in rhos if r <= self.rho_max)


# ---------------------------------------------------------------------------
# problem file parsing
# ---------------------------------------------------------------------------


def parse_problem_text(text: str, rho_max: int | None = None) -> Problem:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProblemFormatError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] == '"':
            value = value[1:-1]
        if key in entries:
            raise ProblemFormatError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    d_decl = entries.pop("d", None)
    rho_decl = entries.pop("rho_max", None)

    a: dict[tuple[int, int], Ast] = {}
    b: dict[int, Ast] = {}
    sigma: dict[tuple[int, int], Ast] = {}
    nu: dict[int, Ast] = {}
    g: dict[int, Ast] = {}
    c = f = phi = None

    def parse_value(key: str, source: str) -> Ast:
        try:
            return expr.parse(source)
        except expr.ExprSyntaxError as exc:
            raise ProblemFormatError(f"key {key!r}: {exc}") from exc

    for key, value in entries.items():
        parts = key.split(".")
        head = parts[0]
        try:
            if head == "a" and len(parts) == 3:
                a[(int(parts[1]), int(parts[2]))] = parse_value(key, value)
            elif head == "b" and len(parts) == 2:
                b[int(parts[1])] = parse_value(key, value)
            elif head == "c" and len(parts) == 1:
                c = parse_value(key, value)
            elif head == "sigma" and len(parts) == 3:
                sigma[(int(parts[1]), int(parts[2]))] = parse_value(key, value)
            elif head == "nu" and len(parts) == 2:
                nu[int(parts[1])] = parse_value(key, value)
            elif head == "f" and len(parts) == 1:
                f = parse_value(key, value)
            elif head == "g" and len(parts) == 2:
                g[int(parts[1])] = parse_value(key, value)
            elif head == "phi" and len(parts) == 1:
                phi = parse_value(key, value)
            else:
                raise ProblemFormatError(f"unknown key {key!r}")
        except ValueError as exc:
            if isinstance(exc, ProblemFormatError):
                raise
            raise ProblemFormatError(f"bad index in key {key!r}") from None

    # drop structural zeros so that noise detection sees only real terms
    b = {k: v for k, v in b.items() if not expr.is_zero(v)}
    sigma = {k: v for k, v in sigma.items() if not expr.is_zero(v)}
    nu = {k: v for k, v in nu.items() if not expr.is_zero(v)}
    g = {k: v for k, v in g.items() if not expr.is_zero(v)}
    if c is not None and expr.is_zero(c):
        c = None
    if f is not None and expr.is_zero(f):
        f = None

    if d_decl is not None:
        d = int(d_decl)
    else:
        axes = [expr.max_axis(ast) for ast in a.values()]
        idx = [max(i, j) for (i, j) in a]
        d = max(axes + idx + [1])

    if rho_max is None:
        if rho_decl is not None:
            rho_max = int(rho_decl)
        else:
            rhos = [r for (_, r) in sigma] + list(nu) + list(g)
            rho_max = max(rhos, default=1)
    if rho_max < 1:  # would drop every sigma, nu and g term
        raise ProblemFormatError(f"rho_max must be >= 1, got {rho_max}")

    sigma = {k: v for k, v in sigma.items() if k[1] <= rho_max}
    nu = {k: v for k, v in nu.items() if k <= rho_max}
    g = {k: v for k, v in g.items() if k <= rho_max}

    return Problem(d=d, rho_max=rho_max, a=a, b=b, c=c, sigma=sigma, nu=nu, f=f, g=g, phi=phi)
