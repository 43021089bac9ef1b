"""Every example script must run clean, end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=[script.stem for script in EXAMPLES]
)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "examples must narrate what they show"


def test_examples_exist():
    names = {script.stem for script in EXAMPLES}
    assert {
        "quickstart",
        "bookstore_demo",
        "crash_recovery_demo",
        "checkpoint_tuning",
        "stateful_vs_queued",
        "orderflow_demo",
    } <= names


def test_bench_report_generator_runs(tmp_path):
    """The report is deterministic: regenerating it reproduces the
    committed EXPERIMENTS.md byte for byte."""
    output = tmp_path / "EXPERIMENTS.md"
    result = subprocess.run(
        [sys.executable, "-m", "repro.bench", str(output)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert output.read_bytes() == (REPO_ROOT / "EXPERIMENTS.md").read_bytes()
