"""Every script under demos/ runs to the end: exit 0 and no traceback.

Each script runs in its own interpreter with the package under test on
PYTHONPATH.  The timeout is many times what a script takes, so a demo that
stalls, as the cyclotomic ladder did when the Smith form's Hermite passes
let their entries grow, fails here instead of hanging.
"""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import tracelattice

SRC = os.path.dirname(os.path.dirname(tracelattice.__file__))
DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "a3_family_tour.py",
        "cyclotomic_ladder.py",
        "obstruction_gallery.py",
    ]


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_to_the_end(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
