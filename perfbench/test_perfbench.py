"""Tests of the benchmark itself, at smoke size (a few seconds per workload)."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*args, cwd=bench.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _result(*args):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    return result


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)
    names = [m["name"] for sec in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[sec]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_emits_declared_metrics(workload):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result = _result("--workload", workload, "--seed", "0", "--seconds", "1",
                         "--trace", trace, "--size", "smoke")
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = _declared(section)
        assert set(result["metrics"]) == set(declared)
        for name, entry in result["metrics"].items():
            assert NAME.match(name)
            assert entry["unit"] == declared[name]
            assert isinstance(entry["value"], (int, float))
        if trace == "0":
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    args = ("--workload", "stable_pool", "--seed", "5", "--seconds", "1", "--trace", "1",
            "--size", "smoke")
    first, second = _result(*args), _result(*args)
    for name in bench.COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    assert first["metrics"]["solver.solves"]["value"] == 2


@pytest.mark.parametrize("workload,kind", [("phase_grids", int), ("cone_mc", list)])
def test_perturbed_reference_entry_fails(workload, kind):
    reference = dict(bench.load_reference("smoke", 0))
    key = next(k for k, v in reference.items() if isinstance(v, kind)
               and k.split(" ")[0] in {"phase", "mc-complexity", "bounds"})
    reference[key] = reference[key] + 1 if kind is int else [reference[key][0] * 1.01,
                                                             reference[key][1]]
    result = bench.run_workload(workload, 0, 1.0, False, "smoke", reference=reference)
    assert result["failed"] > 0 and not result["correct"]


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = _run("--workload", "cone_mc", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
