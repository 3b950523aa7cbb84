"""The frozen files are what the package produces now.

Runs ``scripts/regen_goldens.py --check``, so a stale golden, shipped
schema or asset, or ``tests/data/all_ops.json`` fails the suite. The
script writes trace results with ``dumps_results``, while
``tests/test_all_ops.py`` compares them with ``dumps_doc(results_to_doc(...))``
and ``tests/test_cli.py`` with the ``simulate`` output, so all three
paths are pinned to the same bytes.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "regen_goldens.py"


def test_frozen_files_are_current():
    check = subprocess.run(
        [sys.executable, str(SCRIPT), "--check"], capture_output=True, text=True
    )
    assert check.returncode == 0, check.stdout + check.stderr
    assert check.stdout == ""
