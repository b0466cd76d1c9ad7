"""chargelab's import path, its box/orthant commands and its general-body
path load no SciPy.

SciPy is imported inside the functions that need it (qhull for the volume
μ(K∩C) of a polytope or with a halfspaces cone, linprog for cone interiors
and Chebyshev centers), so that every process does not pay its import
time.  Polytopes are completed and windows correlated in NumPy."""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

HEADER = """
import json, sys
sys.path.insert(0, {src!r})
import chargelab
from chargelab.cli import main

def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

seen = {{"import chargelab": scipy_modules()}}
"""

COMMANDS_PROBE = """
for argv in {commands!r}:
    code = main(argv + ["--out", {out!r} + "/" + "-".join(argv)])
    seen[" ".join(argv)] = [code] + scipy_modules()
print(json.dumps(seen))
"""

COMMANDS = [["verify", "--case", "extremal-charge"],
            ["verify", "--case", "mixed-m1"],
            ["stechkin-curve"], ["recover"], ["sharpness-search"]]

# the inputs and the seminorm of lkbench's general-body workload, and a
# verify run on the 2-ball
GENERAL_PROBE = """
import math
from chargelab import Charge, Cone, ConvexBody, GridSpec, extremal_density, seminorm_Kh

hexagon = ConvexBody.polytope(2, vertices=[
    (math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)])
cube = ConvexBody.polytope(3, facets=[([s * (i == k) for k in range(3)], 1.0)
                                      for i in range(3) for s in (1, -1)])
seen["polytope bodies"] = [len(hexagon.facet_offsets), len(cube.vertices)] + scipy_modules()
C, h = Cone.orthant(2, 0), 0.9
grid = GridSpec.for_cone(2, 0, h, 24, margin=0.25 * h)
for name, K in (("ball", ConvexBody.pball(2, 2.0)), ("hexagon", hexagon)):
    nu = Charge(extremal_density(K, C, h, grid), C)
    value = seminorm_Kh(nu, K, h).value
    seen["seminorm_Kh " + name] = [value > 0] + scipy_modules()
with open({out!r} + "/ball.yaml", "w") as fh:
    fh.write("body: {{kind: pball, p: 2}}\\n")
argv = ["verify", "--case", "nagy-extremal", "--d", "2", "--config", {out!r} + "/ball.yaml"]
seen[" ".join(argv[:5])] = [main(argv + ["--out", {out!r} + "/nagy"])] + scipy_modules()
print(json.dumps(seen))
"""


def probe(code, tmp_path):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_scipy_on_the_import_path_or_box_commands(tmp_path):
    seen = probe((HEADER + COMMANDS_PROBE).format(
        src=SRC, commands=COMMANDS, out=str(tmp_path)), tmp_path)
    assert seen.pop("import chargelab") == []
    assert seen == {" ".join(argv): [0] for argv in COMMANDS}


def test_no_scipy_on_the_general_body_path(tmp_path):
    seen = probe((HEADER + GENERAL_PROBE).format(src=SRC, out=str(tmp_path)),
                 tmp_path)
    assert seen == {"import chargelab": [],
                    "polytope bodies": [6, 8],
                    "seminorm_Kh ball": [True],
                    "seminorm_Kh hexagon": [True],
                    "verify --case nagy-extremal --d 2": [0]}
