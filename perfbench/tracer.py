"""Span tracer that wraps femspde's public functions from outside the package.

Every wrapped call records one span: (name, start, end, parent).  Spans stay
in memory until the run ends.  Counters are recorded at the same boundaries.

A function bound with ``from module import name`` lives on in every module
that imported it, so ``install`` replaces each binding of the original object
in every loaded ``femspde`` module (and in the CLI's command table), not only
the one where it is defined.  Methods are patched on their class.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# span name -> femspde function patched under that name
FUNCTIONS = {
    "expr.eval": ("femspde.expr", "eval_many"),
    "assembly.drift": ("femspde.assembly", "assemble_drift"),
    "assembly.noise": ("femspde.assembly", "assemble_noise"),
    "assembly.mollify": ("femspde.assembly", "mollify_data"),
    "tensors.overlap": ("femspde.tensors", "build_overlap_tables"),
    "tensors.reference": ("femspde.tensors", "compute_reference_tensors"),
    "elements.build": ("femspde.elements", "build_element"),
    "elements.validate": ("femspde.elements", "validate_element"),
    "integrator.step": ("femspde.integrator", "step_implicit_em"),
    "integrator.integrate": ("femspde.integrator", "integrate"),
    "lattice.restrict": ("femspde.lattice", "restrict"),
    "richardson.error": ("femspde.richardson", "trajectory_error"),
    "study.run": ("femspde.study", "run_convergence_study"),
    "cli.simulate": ("femspde.cli", "run_simulate"),
}

# span name -> (femspde module, class, method)
METHODS = {
    "integrator.factor": ("femspde.integrator", "LinearSolver", "__init__"),
    "integrator.solve": ("femspde.integrator", "LinearSolver", "solve"),
    "assembly.apply": ("femspde.assembly", "StencilOperator", "apply"),
    "integrator.noise_path": ("femspde.integrator", "NoisePath", "__init__"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return fn recording one span per call; after(result) may add to a counter."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every femspde binding of the traced functions and methods."""
        import scipy.sparse.linalg

        import femspde.cli  # noqa: F401  (its command table holds run_simulate)

        counters = {
            "expr.eval": lambda out: self._count("expr.eval_points", len(out)),
            "integrator.integrate": lambda traj: self._count(
                "integrator.recorded_bytes", _trajectory_bytes(traj)
            ),
        }
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "femspde"]
        for span, (module_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(span, original, counters.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
            commands = sys.modules["femspde.cli"].COMMANDS
            for key, value in list(commands.items()):
                if value is original:
                    commands[key] = traced
        for span, (module_name, cls_name, method) in METHODS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            setattr(cls, method, self.wrap(span, getattr(cls, method)))
        # LinearSolver.solve imports bicgstab at call time, so the module
        # attribute is the one binding to replace.
        scipy.sparse.linalg.bicgstab = self._counting_bicgstab(scipy.sparse.linalg.bicgstab)

    def _count(self, name: str, amount: int) -> None:
        self.counts[name] += int(amount)

    def _counting_bicgstab(self, bicgstab):
        @functools.wraps(bicgstab)
        def counted(*args, callback=None, **kwargs):
            def tick(xk):
                self.counts["integrator.krylov_iters"] += 1
                if callback is not None:
                    callback(xk)

            return bicgstab(*args, callback=tick, **kwargs)

        return counted

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer totals: inclusive time and calls per span name, plus self times."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += (end - start) - child_time[i]
            if not self._has_ancestor_named(i, name):
                total[name] += end - start
        return {
            "expr.eval_points": self.counts["expr.eval_points"],
            "expr.eval_s": total["expr.eval"],
            "assembly.drift_s": total["assembly.drift"],
            "assembly.drift_calls": calls["assembly.drift"],
            "assembly.noise_s": total["assembly.noise"],
            "assembly.noise_calls": calls["assembly.noise"],
            "assembly.mollify_s": total["assembly.mollify"],
            "assembly.mollify_calls": calls["assembly.mollify"],
            "tensors.overlap_s": total["tensors.overlap"],
            "tensors.overlap_calls": calls["tensors.overlap"],
            "tensors.reference_s": total["tensors.reference"],
            "elements.build_s": total["elements.build"] + total["elements.validate"],
            "integrator.factor_s": total["integrator.factor"],
            "integrator.factor_calls": calls["integrator.factor"],
            "integrator.solve_s": total["integrator.solve"],
            "integrator.solve_calls": calls["integrator.solve"],
            "integrator.krylov_iters": self.counts["integrator.krylov_iters"],
            "assembly.apply_s": total["assembly.apply"],
            "assembly.apply_calls": calls["assembly.apply"],
            "integrator.step_s": total["integrator.step"],
            "integrator.noise_path_s": total["integrator.noise_path"],
            "integrator.integrate_s": total["integrator.integrate"],
            "integrator.integrate_calls": calls["integrator.integrate"],
            "integrator.recorded_bytes": self.counts["integrator.recorded_bytes"],
            "lattice.restrict_s": total["lattice.restrict"],
            "lattice.restrict_calls": calls["lattice.restrict"],
            "richardson.error_s": total["richardson.error"],
            "study.self_s": self_time["study.run"],
            "cli.self_s": self_time["cli.simulate"],
        }

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str) -> None:
        """Write all spans as JSON: one [name, start, end, parent] row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _trajectory_bytes(traj) -> int:
    states = traj.states if traj.states is not None else [traj.terminal]
    return sum(state.values.nbytes for state in states)
