"""CI smoke tests for the ``examples/`` scripts.

Each example is executed as a real subprocess (the way a user runs it), at
sizes small enough for CI, and must exit cleanly — the examples carry their
own result assertions, so a drifting API or a wrong aggregate fails here
instead of rotting silently.  ``reproduce_paper.py`` runs all 34 registered
panels at the ``tiny`` scale (about 5 s), then two single panels
(``--experiment``) and ``--list``, whose 34 lines must tell the panels
apart.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"

#: every example script plus the arguments that keep its runtime CI-sized
EXAMPLES = [
    ("quickstart.py", []),
    ("composite_keys.py", []),
    ("index_based_join.py", []),
    ("miss_heavy_filter.py", []),
    ("serve_quickstart.py", []),
    ("reproduce_paper.py", ["--scale", "tiny"]),
    ("reproduce_paper.py", ["--experiment", "fig03", "--scale", "tiny"]),
    ("reproduce_paper.py", ["--experiment", "serve", "--scale", "tiny"]),
    ("reproduce_paper.py", ["--list"]),
]


def example_id(example):
    script, args = example
    return script if not args else f"{script} {' '.join(args)}"


def _run(script: str, args: list[str]) -> subprocess.CompletedProcess:
    """Run one example the way a user does; it must exit cleanly."""
    path = EXAMPLES_DIR / script
    assert path.exists(), f"example {script} disappeared"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, str(path), *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{script} exited with {result.returncode}\n"
        f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    return result


@pytest.mark.parametrize("example", EXAMPLES, ids=example_id)
def test_example_runs_clean(example):
    script, args = example
    assert _run(script, args).stdout.strip(), f"{script} printed nothing"


def test_list_tells_every_panel_apart():
    """``--list`` gives each registered panel its own description: a
    variant's keywords or ``run_*`` line follow its module's title."""
    lines = _run("reproduce_paper.py", ["--list"]).stdout.splitlines()
    descriptions = [line.split(None, 1)[1] for line in lines]
    assert len(set(descriptions)) == len(descriptions) == len(ALL_EXPERIMENTS) == 34


def test_every_example_is_listed():
    """A new example must be added to the smoke matrix (or explicitly not)."""
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    covered = {script for script, _ in EXAMPLES}
    assert on_disk == covered, (
        f"examples not covered by the smoke matrix: {sorted(on_disk - covered)}; "
        f"listed but missing on disk: {sorted(covered - on_disk)}"
    )
