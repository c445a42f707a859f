"""The benchmark's own tests: tiny runs finish, and bad answers count as failed.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest
from conftest import BENCH
from deltoids import PartialMatching

import clicold
import library
import run
from spans import Recorder
from speed import Speed

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
GOLDEN = ("golden", library.parse_group("Z12"),
          [[0], [1], [2], [4], [6], [8], [10], [11]],
          [[1], [2], [3], [4], [6], [8], [10], [11]])


def bench(*args, cwd=BENCH.parent):
    cmd = [sys.executable, str(BENCH / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def small_runner(tmp_path):
    workload = run.Workload("small-sweep", 1, True, tmp_path)
    workload.items = [GOLDEN]
    return run.Runner(workload, Recorder(traced=False), 0, Speed())


def test_corrupted_matching_certificate_is_a_failed_op(tmp_path, monkeypatch):
    real = library.max_matching

    def reused_column(D):
        m = real(D)
        (a0, b0), (a1, _) = m.pairs[:2]
        return PartialMatching(((a0, b0), (a1, b0)) + m.pairs[2:], m.defect)

    monkeypatch.setattr(library, "max_matching", reused_column)
    runner = small_runner(tmp_path)
    runner.run(traced=False)
    assert runner.attempted == 1 and len(runner.wrong) == 1
    assert "certificate matching does not verify" in runner.wrong[0][1]


def test_wrong_deficiency_is_a_failed_op(tmp_path, monkeypatch):
    real = library.deficiency_by_subsets
    monkeypatch.setattr(library, "deficiency_by_subsets", lambda D: real(D) + 1)
    runner = small_runner(tmp_path)
    runner.run(traced=False)
    assert runner.attempted == 1 and len(runner.wrong) == 1
    assert "deficiency routes disagree" in runner.wrong[0][1][0]


def test_wrong_large_cyclic_answer_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(library, "rho_by_feasibility", lambda D: 2)
    workload = run.Workload("large-cyclic", 1, True, tmp_path)
    workload.items = workload.items[:1]
    runner = run.Runner(workload, Recorder(traced=False), 0, Speed())
    runner.run(traced=False)
    assert len(runner.wrong) == 1 and "rho 2 != 1" in runner.wrong[0][1]


def cli_runner(tmp_path, label):
    workload = run.Workload("cli-cold", 1, True, tmp_path)
    workload.items = [op for op in workload.items if op.label == label]
    return workload, run.Runner(workload, Recorder(traced=False), 0, Speed())


def test_cli_corrupted_witness_and_wrong_deficiency_are_failed_ops(tmp_path, monkeypatch):
    for label, tamper in (
        ("witness fixture", lambda r: r["certificates"]["witness"]["S"].pop()),
        ("deficiency fixture", lambda r: r["results"].update(delta=2)),
    ):
        workload, runner = cli_runner(tmp_path, label)
        real = clicold.run_op

        def tampered(rec, state, op, tamper=tamper, real=real):
            out = real(rec, state, op)
            report = json.loads(out["stdout"])
            tamper(report)
            return dict(out, stdout=json.dumps(report))

        monkeypatch.setattr(clicold, "run_op", tampered)
        runner.run(traced=False)
        monkeypatch.undo()
        assert runner.attempted == 1 and len(runner.wrong) == 1, label


def test_cli_exit_3_on_a_solvable_input_is_a_failed_op(tmp_path):
    _, runner = cli_runner(tmp_path, "rho Z64-n30")
    runner.run(traced=False)
    assert runner.attempted == 1 and not runner.wrong
    assert "exit 3" in runner.failed[0][1] and "rho=1" in runner.failed[0][1]
