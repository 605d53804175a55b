"""The reference rasterizer is a test oracle, not a product dependency."""

import os
import pathlib
import subprocess
import sys

from repro.verify.reference_raster import Rasterizer

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def test_entry_points_never_load_the_reference_rasterizer():
    # A fresh interpreter: this test process has long since imported
    # the module itself.
    module = Rasterizer.__module__
    code = (
        "import sys\n"
        "import repro.cli, repro.service.server, repro.experiments.runner\n"
        f"print({module!r} in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert result.stdout.strip() == "False", result.stdout
