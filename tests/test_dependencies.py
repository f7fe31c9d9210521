"""The library runs on the standard library alone."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def test_numpy_is_never_imported():
    # A fresh interpreter: the test process itself may have numpy loaded
    # by an unrelated plugin.
    code = ("import sys\n"
            "import repro, repro.server.app, repro.sim.batched, "
            "repro.analysis.markov\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
