"""chargelab runs on NumPy and PyYAML: no command, config check or volume
loads a SciPy module.

Polytopes are completed, μ(K∩C) is computed for polytope pairs and cone
interiors are tested by one NumPy vertex walk, and windows are correlated
with NumPy's FFT.  Each probe runs in a fresh process and lists the `scipy`
modules in `sys.modules` after each step."""

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


# a halfspaces cone through the config check, verify with a halfspaces cone
# on the 1-ball and on the hexagon, and the volume of a 4-D polytope pair
CONE_PROBE = """
import math
import numpy as np
from chargelab import Cone, ConvexBody, volume_body_cone
from chargelab.config import cone_from_config, validate

skewed = {{"kind": "halfspaces", "normals": [[1, 0.3141], [0.2718, 1]]}}
cfg = validate("verify", {{"case": "nagy-extremal", "cone": skewed}})
seen["cone_from_config"] = [cone_from_config(2, cfg["cone"]).kind] + scipy_modules()
hexagon = [[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)]
for name, body, cone in (("l1-ball", {{"kind": "pball", "p": 1}}, skewed),
                         ("hexagon", {{"kind": "polytope", "vertices": hexagon}},
                          {{"kind": "halfspaces", "normals": [[1, 0], [0, 1]]}})):
    with open({out!r} + "/" + name + ".json", "w") as fh:
        json.dump({{"body": body, "cone": cone}}, fh)
    argv = ["verify", "--case", "nagy-extremal", "--d", "2",
            "--config", {out!r} + "/" + name + ".json", "--out", {out!r} + "/" + name]
    seen["verify " + name] = [main(argv)] + scipy_modules()
E = np.eye(4)
cell_24 = [s * E[i] + t * E[j] for i in range(4) for j in range(i + 1, 4)
           for s in (1, -1) for t in (1, -1)]
v = volume_body_cone(ConvexBody.polytope(4, vertices=cell_24), Cone.halfspaces(E[:3]))
seen["volume_body_cone 24-cell"] = [round(v.value, 12)] + scipy_modules()
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


def test_no_scipy_for_halfspaces_cones_or_polytope_volumes(tmp_path):
    seen = probe((HEADER + CONE_PROBE).format(src=SRC, out=str(tmp_path)), tmp_path)
    assert seen == {"import chargelab": [],
                    "cone_from_config": ["halfspaces"],
                    "verify l1-ball": [0],
                    "verify hexagon": [0],
                    "volume_body_cone 24-cell": [1.0]}
