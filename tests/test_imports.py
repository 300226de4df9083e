"""Import hygiene: the program's entry points do not load networkx.

networkx is a test-only oracle.  The check runs in a fresh interpreter,
since this test process has networkx loaded by other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

ENTRY_POINTS = ("repro.api", "repro.cli", "repro.serve.app", "repro.benchgen.tgff")


def test_entry_points_do_not_import_networkx():
    script = (
        "import importlib, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert result.stdout.strip() == "[]"
