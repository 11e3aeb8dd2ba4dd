"""The benchmark's own tests.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from troplift.lift import STAGE_SYSTEM3, NotMember  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                  "--trace", str(trace), "--limit", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _traced(workload, count):
    w = workloads.WORKLOADS[workload]
    cases = run.build_inputs(w, 3)[:count]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = run.run_requests(w, cases, run.WallClock(), tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(r[3] is None for r in records)
    return tracer


@pytest.mark.parametrize("workload,count", [("planted-scaling", 2),
                                            ("mixed-small", 40)])
def test_traced_self_times_fit_in_the_request_time(workload, count):
    tracer = _traced(workload, count)
    request_s = tracer.root_s["request"]
    assert 0 < sum(tracer.self_s.values()) <= request_s
    assert 0 < tracer.steps_s["request"] <= request_s
    stages = sum(tracer.incl_s[s] for s in tracing.LIFT_STAGES.values())
    assert stages <= tracer.incl_s["lift.decide"] <= request_s


def test_install_restores_every_patched_attribute():
    before = [owner.__dict__[attr] for owner, attr, _ in tracing._SITES]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(owner.__dict__[attr] is not original for (owner, attr, _), original
               in zip(tracing._SITES, before))
    tracer.uninstall()
    assert before == [owner.__dict__[attr] for owner, attr, _ in tracing._SITES]


def test_a_wrong_verdict_raises_the_error_rate(monkeypatch, capsys):
    real = workloads.lift.decide
    calls = []

    def wrong_once(inst, point):
        calls.append(1)
        if len(calls) == 1:
            return NotMember(STAGE_SYSTEM3, "injected")
        return real(inst, point)

    monkeypatch.setattr(workloads.lift, "decide", wrong_once)
    result = run.run("planted-scaling", 5, seconds=0.1, trace=0, limit=2)
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert report["extras"]["error_rate"]["value"] == 0.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "mixed-small", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
