"""Load every script under scripts/ so a renamed library name they import
fails here rather than in a user's run."""

import glob
import os
import runpy


def test_scripts_load():
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                          os.pardir, "scripts", "*.py")))
    assert paths
    for path in paths:
        assert callable(runpy.run_path(path, run_name="smoke")["main"])
