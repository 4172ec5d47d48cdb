import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_synthetic_benchmark_smoke(child_env):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "synthetic_benchmark.py"), "--vocab", "200", "--dim", "10",
         "--train-pairs", "40", "--test-pairs", "60"],
        capture_output=True, text=True, env=child_env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "vocab=200 dim=10 train=40 test=60 seed=42"
    rows = lines[2:]
    assert len(rows) == 6  # one per default noise level
    for row in rows:
        base_cos, ref_cos = row.split(" | ")[3].split(" -> ")
        assert -1.0 <= float(base_cos) <= 1.0 and -1.0 <= float(ref_cos) <= 1.0
