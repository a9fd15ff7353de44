"""The routing core runs on the standard library alone.

Building and driving a service must not pull numpy into the process: every
simulator run would pay its import cost in resident memory for nothing.
The check runs in a fresh interpreter so modules imported by other tests
cannot mask (or fake) the result.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
from repro import Simulator, VideoTitle, VoDService
from repro.network.grnet import build_grnet_topology

service = VoDService(Simulator(), build_grnet_topology())
service.seed_title("U4", VideoTitle("movie", size_mb=600.0, duration_s=3600.0))
service.start()
service.decide("U2", "movie")
print("numpy" in sys.modules)
"""


def test_building_a_grnet_service_does_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
