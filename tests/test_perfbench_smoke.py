"""The benchmark's quick mode runs every workload at minimal size, traced
and untraced, and fails when a traced run sees no call to a function its
workload must reach (for instance when a public function is wrapped so that
the tracer no longer recognises it)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_quick_mode_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--quick"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["ok"] is True, result["problems"]
