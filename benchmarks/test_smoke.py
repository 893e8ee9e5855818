"""Schema-only smoke test of the benchmark: no timing gates.

    python3 -m pytest -q benchmarks/test_smoke.py

Runs each workload for one second and checks that the last stdout line names
every metric of BENCHMARK.json with its unit. It takes about a minute,
mostly one `hardynum norms` call, and is not part of the tier-1 suite
(pytest's testpaths is tests/).
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(workload: str, trace: int) -> dict:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload, trace", [
    ("mc_tail", 0), ("norms_catalog", 0), ("small_queries", 0), ("small_queries", 1),
])
def test_result_names_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    assert all(math.isfinite(entry["value"]) for entry in result["metrics"].values())


def test_outside_a_checkout_it_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in (ROOT / "benchmarks").glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    argv = [sys.executable, "benchmarks/run.py", "--workload", "mc_tail", "--seed", "0",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
