"""The examples run as scripts: an API change that breaks one fails here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_example(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_observability_mips_commits_its_counter():
    """The 16-CLB counter probe lands on tiles 1 and 5, pulling in a
    neighbor for slack."""
    out = run_example("observability_mips.py")
    assert "affected tiles: [1, 5] (neighbor expansion: True)" in out
