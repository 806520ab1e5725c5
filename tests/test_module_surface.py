"""What other code relies on at module level: the names the benchmark
tracer patches, and what ``import copsep`` loads."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import copsep

ROOT = Path(__file__).resolve().parents[1]


def test_every_tracer_target_exists():
    # perfbench/tracer.py replaces vars(owner)[attr] for each target; a
    # name that a refactor drops makes every traced benchmark run fail
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(owner.__name__, attr) for owner, attr, _, _ in tracer.TARGETS if attr not in vars(owner)]
    assert tracer.TARGETS and missing == []


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a third of a second to import; only
    # kendall_tau needs it, and imports it when called
    src = str(Path(copsep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, copsep; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"
