"""README.md shows what the package does: each `$ trace-lattice ...` line in
its "Examples, with their exact output" block prints exactly the lines
under it, and its Library block runs.

The examples run in a shell, as a reader would type them, with
`trace-lattice` and `python3` standing for this interpreter and the package
under test on PYTHONPATH.
"""
from __future__ import annotations

import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import tracelattice

SRC = os.path.dirname(os.path.dirname(tracelattice.__file__))
README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def _block(heading: str, fence: str) -> str:
    """The first fenced block of the given language after the heading."""
    start = README.index(heading)
    match = re.compile(rf"^```{fence}\n(.*?)^```$", re.M | re.S).search(README, start)
    assert match, f"no ```{fence} block after {heading!r}"
    return match.group(1)


def _examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for each `$ ` line of the examples block."""
    out: list[tuple[str, list[str]]] = []
    for line in _block("Examples, with their exact output", "sh").splitlines():
        if line.startswith("$ "):
            out.append((line[2:], []))
        elif line:
            out[-1][1].append(line + "\n")
    return [(cmd, "".join(lines)) for cmd, lines in out]


EXAMPLES = _examples()


def test_examples_are_found():
    assert [cmd.split()[1] for cmd, _ in EXAMPLES] == [
        "classify",
        "cyclotomic",
        "reparam",
        "obstruction",
        "gen-a3",
    ]
    assert all(expected for _, expected in EXAMPLES)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_its_output(command, expected):
    python = shlex.quote(sys.executable)
    shell = re.sub(r"\bpython3\b", python, command).replace(
        "trace-lattice", f"{python} -m tracelattice"
    )
    proc = subprocess.run(
        shell, shell=True, capture_output=True, text=True, env=_env(), timeout=60
    )
    assert proc.stdout == expected


def test_readme_library_block_runs():
    code = _block("## Library", "python")
    assert "fake_a3(o)" in code
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
