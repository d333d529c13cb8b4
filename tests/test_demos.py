"""Every demo script, and the README's library example, runs cleanly
from the repository root; each demo prints exactly the text pinned in
tests/demo_outputs/<demo>.txt."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
OUTPUTS = Path(__file__).resolve().parent / "demo_outputs"


def run_python(args):
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True)


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    res = run_python([str(demo.relative_to(ROOT))])
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    assert res.stdout == (OUTPUTS / (demo.stem + ".txt")).read_text()


def readme_library_block():
    """The python block under "## Library entry points" in README.md."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_snippet_runs():
    res = run_python(["-c", readme_library_block()])
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    assert res.stdout.splitlines()[-1] == \
        "KoszulVerdict(koszul=True, n_max=6, witness=None)"
