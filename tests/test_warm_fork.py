"""Forked pool tasks start warm.

Every driver that forks pool tasks does their stream-independent
set-up before its first fork: the campaign worker (workload registry,
assembled programs, each policy's LUT synthesis), the figure-4 driver
(the panel's LUTs, between the statistics and the cells tasks) and the
server (LUT synthesis's scenario tables, at start-up).  Each child then
finds LUT synthesis's memos filled and builds no scenario table.

Each case runs in a fresh interpreter, so nothing an earlier test
built in this process can warm the children.  The pool task is
wrapped in the child: the wrapper records what the child inherited,
runs the real task, then counts the scenario tables it had to build.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

PROBE = '''
import json, os, sys
from repro.core import lut

OUT = sys.argv[1]

def probe(task):
    def wrapped(*args):
        seen = {"tables": lut._scenario_table.cache_info().currsize,
                "homes": len(lut._HOMES_CACHE),
                "kernels": "repro.workloads.kernels" in sys.modules}
        misses = lut._scenario_table.cache_info().misses
        result = task(*args)
        seen["built"] = lut._scenario_table.cache_info().misses - misses
        with open(os.path.join(OUT, f"{os.getpid()}.json"), "w") as out:
            json.dump(seen, out)
        return result
    return wrapped
'''

CAMPAIGN = PROBE + '''
from repro.runner import CampaignSpec, dist, run_campaign
dist.execute_task = probe(dist.execute_task)
spec = CampaignSpec(workloads=("compress", "li"),
                    policies=("original", "lut-4"),
                    fault_rates=(0.0, 0.01))
result = run_campaign(spec, os.path.join(OUT, "campaign"), max_workers=2)
assert result.complete and result.done == 4, result
'''

FIGURE4 = PROBE + '''
from repro.analysis import energy
from repro.isa.instructions import FUClass
from repro.workloads import workload
energy._cells_task = probe(energy._cells_task)
energy.run_figure4(FUClass.IALU, [workload("compress"), workload("li")],
                   schemes=("original", "lut-4"), swap_modes=("none",),
                   jobs=2)
'''

SERVER = PROBE + '''
import asyncio
from repro.server import EvalServer, ServerConfig, executor
from repro.server.loadgen import Client
executor.evaluate_request = probe(executor.evaluate_request)

async def main():
    server = EvalServer(ServerConfig(executor="pool", max_workers=1))
    client = Client(*await server.start())
    try:
        response = await client.request("POST", "/v1/evaluate", json.dumps(
            {"workloads": ["compress"], "policies": ["lut-4"],
             "swap_modes": ["none"]}).encode())
        assert response.status == 200, response.body
    finally:
        await client.close()
        await server.close()

asyncio.run(main())
'''


@pytest.mark.parametrize("script, children", [
    (CAMPAIGN, 4),  # one per cell
    (FIGURE4, 2),   # one cells task per workload
    (SERVER, 1),    # one miss
], ids=["campaign", "figure4", "server"])
def test_every_forked_task_starts_warm(tmp_path, script, children):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    probes = [json.loads(path.read_text())
              for path in tmp_path.glob("*.json")]
    assert len(probes) == children
    for seen in probes:
        assert seen["tables"] > 0 and seen["homes"] > 0, seen
        assert seen["kernels"], seen
        assert seen["built"] == 0, seen
