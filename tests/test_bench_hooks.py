"""The benchmark in ``perfbench/`` wraps package functions by name; a name
it hooks that no longer exists breaks only its traced runs, so installing
its hooks is checked here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = ["perfbench", "src"]
from probe import Probe
from spans import Tracer
from skrp import cli

Probe().install()
Tracer().install()
code, text = cli.run_config({
    "profile": {"family": "quadratic", "K": 1.0, "phi0": 1.0,
                "interval": [-1.0, 1.0]},
    "model": {"variant": "annulus", "a": 1.0},
    "checks": [{"name": "duality", "points": 5},
               {"name": "connection_form", "points": 5},
               {"name": "kahler", "points": 5}]})
assert code == 0, text

from skrp import models, profiles, reparam
prof = profiles.make_profile(profiles.Quadratic(K=1.0, phi0=1.0), (-1.0, 1.0))
reparam.boundary_limits(reparam.build_reparam(prof, -1.0), "hi")
models.ball_extension_coeffs(prof, -1.0, 1.0, 0.0)
"""


def test_probe_and_tracer_install():
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
