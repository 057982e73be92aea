import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    """The benchmark's own self-test: every metric BENCHMARK.json names is
    emitted, a traced pass (which wraps the functions perfbench/tracing.py
    lists by name) matches an untraced one, and corrupted references fail.
    A change to src/ that drops a wrapped name or a listed metric fails
    here."""
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stderr
