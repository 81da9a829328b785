"""Each benchmark workload's own checks pass on the package.

``Workload.setup()`` builds the workload's molecules and runs one operation
of every kind through the package, checked against the harness's
independent reference (``bench/reference.py``) or the documented table
dialect; ``cli_corpus`` runs its subcommands in process. A broken call into
``stark.solve`` or a tensor route then fails here, not only in a benchmark
run. The harness modules are imported from ``bench/`` as they are.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_checks_pass(name):
    workloads.WORKLOADS[name](seed=1, root=ROOT).setup()
