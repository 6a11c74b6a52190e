"""A delay injected into one layer moves only the workload that exercises it.

Each delay is installed through a ``sitecustomize`` module on ``PYTHONPATH``,
so it applies in the benchmark process and in the ``repro-map serve``
subprocess alike, and the benchmark runs unmodified:

* a delay in the QASM parser must move ``serve-mixed``'s ``latency_p50_ms``
  beyond its bound (hits parse the request and the stored result) while
  both cold workloads, which never parse QASM, stay within theirs;
* a delay in ``WindowScorer.score`` must move ``qlosure-cold`` beyond its
  bound while ``baselines-cold`` (no qlosure) and ``serve-mixed`` (whose
  median is a cache hit) stay within theirs.

Runs the benchmark nine times (about five minutes on two cores).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
WORKLOADS = ("qlosure-cold", "baselines-cold", "serve-mixed")
SEED = 7
SECONDS = 10
BOUND = next(
    metric["bound"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if metric["name"] == "latency_p50_ms"
)

QASM_PARSER_DELAY = """
import time
import repro.qasm.loader as loader
import repro.qasm.parser as parser

_parse_qasm = parser.parse_qasm


def parse_qasm(source):
    time.sleep(0.05)
    return _parse_qasm(source)


parser.parse_qasm = loader.parse_qasm = parse_qasm
"""

WINDOW_SCORER_DELAY = """
import time
from repro.core.cost import WindowScorer

_score = WindowScorer.score


def score(self, swap):
    deadline = time.perf_counter() + 5e-6
    while time.perf_counter() < deadline:
        pass
    return _score(self, swap)


WindowScorer.score = score
"""

CASES = {
    "qasm-parser": (QASM_PARSER_DELAY, "serve-mixed"),
    "window-scorer": (WINDOW_SCORER_DELAY, "qlosure-cold"),
}


def latency_p50(workload: str, workdir: Path, delay: str | None = None) -> float:
    env = dict(os.environ)
    if delay is not None:
        site = workdir / "site"
        site.mkdir(parents=True)
        (site / "sitecustomize.py").write_text(
            f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{delay}"
        )
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(site), env.get("PYTHONPATH")) if part
        )
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return result["metrics"]["latency_p50_ms"]["value"]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> dict:
    return {
        workload: latency_p50(workload, tmp_path_factory.mktemp(workload))
        for workload in WORKLOADS
    }


@pytest.mark.parametrize("layer", sorted(CASES))
def test_delay_moves_only_the_predicted_workload(layer, baseline, tmp_path):
    delay, moved = CASES[layer]
    changes = {
        workload: latency_p50(workload, tmp_path / workload, delay) / baseline[workload] - 1
        for workload in WORKLOADS
    }
    print(f"{layer} delay: latency_p50_ms change per workload {changes}")
    assert changes[moved] > BOUND, changes
    for workload in WORKLOADS:
        if workload != moved:
            assert changes[workload] <= BOUND, changes
