"""Smoke test of the benchmark at a tiny size: every metric named in
BENCHMARK.json is printed with its unit, the output checks pass, and a wrong
expected result is caught."""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _main(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], tiny=True)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(capsys, trace, section):
    code, lines, result = _main(capsys, "all", trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in SPEC["workloads"]:
        w = workload["name"]
        for metric in SPEC[section]:
            name, unit = metric["name"], metric["unit"]
            assert result["metrics"][f"{w}.{name}"]["unit"] == unit
            assert any(line.startswith(f"{w} {name} = ") and line.endswith(f" {unit}")
                       for line in lines), (w, name)
        for printed in ("item_p50_ms", "item_tail_ms"):
            assert any(line.startswith(f"{w} {printed} = ") for line in lines), (w, printed)
        assert any(line.startswith(f"{w} failed_ratio = 0.0 ratio") for line in lines)


def test_corrupted_analytical_set_is_counted_as_failed(capsys, monkeypatch):
    run._load_package()
    import workloads

    real = workloads.analytical_dependency

    def corrupted(spec, t):
        d = real(spec, t)
        return dataclasses.replace(d, indices=d.indices[1:])

    monkeypatch.setattr(workloads, "analytical_dependency", corrupted)
    code, lines, result = _main(capsys, "deps", 0)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    ratio = next(line for line in lines if line.startswith("deps failed_ratio = "))
    assert float(ratio.split()[3]) > 0


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "learn",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
