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
except the diffusion matrix `a`, which is required.  KEY_INDICES gives the
indices each key takes: an axis i in 1..d, a Wiener index rho >= 1.  `a`
must be symmetric: a missing mirror entry is filled in from its transpose,
and providing both with expressions that parse to different trees is an
error.  The l2-valued coefficients sigma, nu and g are truncated to
rho <= rho_max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr
from .expr import Ast
from .polynomials import parse_integer, read_key_values


class ProblemFormatError(ValueError):
    """Raised for malformed problem files."""


# The indices of each key, in field order: "i" is an axis in 1..d, "rho" a
# Wiener index >= 1.  A field with one index is keyed by an int, one with two
# by a pair, and one with none holds an expression or None.
KEY_INDICES: dict[str, tuple[str, ...]] = {
    "a": ("i", "i"),
    "b": ("i",),
    "c": (),
    "sigma": ("i", "rho"),
    "nu": ("rho",),
    "f": (),
    "g": ("rho",),
    "phi": (),
}
# the terms whose structural zeros are dropped, so that noise detection sees
# only real terms; the required `a` and the data `phi` keep theirs
ZERO_DROPPED = ("b", "c", "sigma", "nu", "f", "g")


def _index(key) -> tuple[int, ...]:
    return key if isinstance(key, tuple) else (key,)


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
        for head, kinds in KEY_INDICES.items():
            terms = getattr(self, head)
            if not kinds:
                terms = {} if terms is None else {(): terms}
            kept = {}
            for key, ast in terms.items():
                index = _index(key)
                name = ".".join(map(str, (head, *index)))
                if any(n < 1 or (kind == "i" and n > self.d) for kind, n in zip(kinds, index)):
                    raise ProblemFormatError(f"key {name!r} is out of range: axes run "
                                             f"over 1..{self.d}, Wiener indices from 1")
                try:
                    expr.validate_dimension(ast, self.d)
                except ValueError as exc:
                    raise ProblemFormatError(f"key {name!r}: {exc}") from None
                truncated = "rho" in kinds and index[-1] > self.rho_max
                if not truncated and not (head in ZERO_DROPPED and expr.is_zero(ast)):
                    kept[key] = ast
            setattr(self, head, kept if kinds else kept.get(()))
        # after the keys, so that one with a Wiener index below 1 is named
        if self.rho_max < 1:  # would drop every sigma, nu and g term
            raise ProblemFormatError(f"rho_max must be >= 1, got {self.rho_max}")
        self._symmetrize_a()

    def _symmetrize_a(self):
        for (i, j), ast in list(self.a.items()):
            mirror = self.a.get((j, i))
            if mirror is None:
                self.a[(j, i)] = ast
            elif i != j and mirror != ast:  # frozen dataclasses: equal trees
                raise ProblemFormatError(
                    f"a.{i}.{j} and a.{j}.{i} differ; the diffusion matrix must be symmetric"
                )

    # -- structure ---------------------------------------------------------

    @property
    def has_noise(self) -> bool:
        return bool(self.sigma or self.nu or self.g)

    # -- vectorized evaluation ----------------------------------------------

    def eval_a(self, x: tuple, t: float) -> np.ndarray:
        """a at the points of coordinate arrays x (see expr.eval_many): (*shape, d, d)."""
        return self._eval_matrix(self.a, self.d, x, t)

    def eval_sigma(self, x: tuple, t: float) -> np.ndarray:
        """sigma at the points of coordinate arrays x: (*shape, d, rho_max)."""
        return self._eval_matrix(self.sigma, self.rho_max, x, t)

    def _eval_matrix(self, terms, columns, x, t):
        shape = np.broadcast_shapes(*(np.shape(c) for c in x))
        out = np.zeros((*shape, self.d, columns))
        for (i, j), ast in terms.items():
            out[..., i - 1, j - 1] = expr.eval_many(ast, x, t)
        return out

    def active_rhos(self) -> list[int]:
        """Noise indices rho with any nonzero sigma, nu or g entry."""
        return sorted({r for (_, r) in self.sigma} | set(self.nu) | set(self.g))


# ---------------------------------------------------------------------------
# problem file parsing
# ---------------------------------------------------------------------------


def parse_problem_text(text: str, rho_max: int | None = None) -> Problem:
    entries, _ = read_key_values(text, ProblemFormatError)
    for key, value in entries.items():
        if len(value) >= 2 and value[0] == value[-1] == '"':
            entries[key] = value[1:-1]

    d_decl = entries.pop("d", None)
    rho_decl = entries.pop("rho_max", None)

    # each field's terms in file order, a key without indices under ()
    terms: dict[str, dict] = {head: {} for head in KEY_INDICES}
    for key, value in entries.items():
        head, *parts = key.split(".")
        if head not in KEY_INDICES or len(parts) != len(KEY_INDICES[head]):
            raise ProblemFormatError(f"unknown key {key!r}")
        try:
            index = tuple(int(p) for p in parts)
        except ValueError:
            raise ProblemFormatError(f"bad index in key {key!r}") from None
        try:
            ast = expr.parse(value)
        except expr.ExprSyntaxError as exc:
            raise ProblemFormatError(f"key {key!r}: {exc}") from exc
        slot = index[0] if len(index) == 1 else index
        if slot in terms[head]:  # b.1 and b.01, say
            raise ProblemFormatError(f"key {key!r} repeats the index of an earlier key")
        terms[head][slot] = ast

    if d_decl is not None:
        d = parse_integer("d", d_decl, ProblemFormatError)
    else:
        axes = [axis for ast in terms["a"].values() for axis in expr.axes(ast)]
        idx = [max(i, j) for (i, j) in terms["a"]]
        d = max(axes + idx + [1])

    if rho_max is None:
        if rho_decl is not None:
            rho_max = parse_integer("rho_max", rho_decl, ProblemFormatError)
        else:  # the largest Wiener index of a nonzero term; it is its key's last index
            rhos = [_index(key)[-1] for head, kinds in KEY_INDICES.items() if "rho" in kinds
                    for key, ast in terms[head].items() if not expr.is_zero(ast)]
            rho_max = max(rhos, default=1)

    return Problem(d=d, rho_max=rho_max, **{
        head: terms[head] if kinds else terms[head].get(()) for head, kinds in KEY_INDICES.items()
    })
