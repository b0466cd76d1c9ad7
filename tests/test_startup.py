"""chargelab's import path and the box/orthant commands load no SciPy.

SciPy is imported inside the functions that need it (qhull for polytope
bodies and halfspace cones, linprog for cone interiors, the FFT for
non-box windows), so that every process does not pay its import time."""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

PROBE = """
import json, sys
sys.path.insert(0, {src!r})
import chargelab
from chargelab.cli import main

def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

seen = {{"import chargelab": scipy_modules()}}
for argv in {commands!r}:
    code = main(argv + ["--out", {out!r} + "/" + "-".join(argv)])
    seen[" ".join(argv)] = [code] + scipy_modules()
print(json.dumps(seen))
"""

COMMANDS = [["verify", "--case", "extremal-charge"],
            ["verify", "--case", "mixed-m1"],
            ["stechkin-curve"], ["recover"], ["sharpness-search"]]


def test_no_scipy_on_the_import_path_or_box_commands(tmp_path):
    code = PROBE.format(src=SRC, commands=COMMANDS, out=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen.pop("import chargelab") == []
    assert seen == {" ".join(argv): [0] for argv in COMMANDS}
