"""What importing the package loads: the noise map and the Fourier split need
nothing of scipy.fft or scipy.special, the SVG escapes its labels itself and
a rational literal loads fractions only when it is parsed, so none of these
modules is imported."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
UNLOADED = ("scipy.fft", "scipy.special", "html", "fractions", "decimal")


@pytest.mark.parametrize("module", ["femspde", "femspde.cli"])
def test_import_loads_none_of_the_unneeded_modules(module):
    # in an interpreter of its own: this one has loaded scipy.special for the tests
    code = (f"import sys, {module}; "
            f"print(sorted(m for m in {UNLOADED!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
