"""Quick test of the benchmark: smoke mode runs the smallest input of every
workload through the same oracle checks.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")


def test_smoke_mode_passes_every_check():
    done = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True, text=True,
                          timeout=120, cwd=RUN.parent.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 5 and result["failed"] == 0
    for workload in ("solve-ladder", "optimize-family", "probe-verify"):
        for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0


@pytest.mark.parametrize("k", [1, 2, 5])
def test_subdivision_keeps_energy_and_balance(k):
    sys.path.insert(0, str(RUN.parent))
    import inputs
    import oracle

    # one loop of weight w along the axis of a translation by s: energy w s^2
    s, w = 1.1, 1.5
    shift = [[math.cosh(s), math.sinh(s), 0.0], [math.sinh(s), math.cosh(s), 0.0], [0.0, 0.0, 1.0]]
    loop = {"surface": {"genus": 2, "generators": [shift]},
            "graph": {"vertices": 1, "edges": [{"from": 0, "to": 0, "weight": w, "class": "loop"}]},
            "vertex_lifts": [[1.0, 0.0, 0.0]], "edge_decks": [[1]]}
    doc = inputs.subdivide(loop, k)
    assert doc["graph"]["vertices"] == k
    assert [e["weight"] for e in doc["graph"]["edges"]] == [k * w] * k
    assert doc["edge_decks"] == [[]] * (k - 1) + [[1]]
    energy, residual = oracle.recompute(doc)
    assert energy == pytest.approx(w * s * s, rel=1e-12)
    assert residual < 1e-12
