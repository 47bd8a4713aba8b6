"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""
import copy
import gzip
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, check_rows,  # noqa: E402
                       load_reference)

SPEC = run.load_spec()


def tiny(workload, steps=2):
    """A short variant of a workload: its first steps."""
    return replace(workload, steps=steps)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name, tmp_path):
    wl = tiny(WORKLOADS[name])
    reference = load_reference()
    header, samples = run.timed_run(wl, 1, 0.0, reference)
    summary = run.summarize(samples, SPEC["end_to_end"])
    assert header["failed"] == 0, header["problems"]
    assert set(summary) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(s["value"] > 0 for s in summary.values())

    header, samples = run.traced_run(wl, 1, 0.0, reference, str(tmp_path),
                                     "t")
    summary = run.summarize(samples, SPEC["per_layer"])
    assert header["failed"] == 0, header["problems"]
    assert set(summary) == {m["name"] for m in SPEC["per_layer"]}
    assert os.path.getsize(tmp_path / "t_spans0.csv.gz") > 0
    per_element = summary["local.kernel_calls_per_element"]["value"]
    assert per_element == (3.0 if wl.method == 2 else 2.0)
    if wl.method == 2:
        assert summary["rankone.factors_per_solve"]["value"] == 1
        assert summary["rankone.backsolves_per_solve"]["value"] == 3


def test_reference_passes_and_perturbed_reference_fails():
    reference = load_reference()
    wl = WORKLOADS["smooth-h"]
    steps = reference[wl.name]
    assert check_rows(wl, DEFAULT_SEED, steps, reference) == []

    bad = copy.deepcopy(reference)
    bad[wl.name][2]["e_sigma"] *= 1.0 + 1e-3
    assert check_rows(wl, DEFAULT_SEED, steps, bad)
    bad = copy.deepcopy(reference)
    bad[wl.name][1]["n_dofs"] += 2
    assert check_rows(wl, 5, steps, bad)


def test_perturbed_reference_fails_a_run():
    wl = tiny(WORKLOADS["smooth-h"])
    bad = copy.deepcopy(load_reference())
    bad[wl.name][0]["eta"] *= 1.0 + 1e-3
    header, samples = run.timed_run(wl, DEFAULT_SEED, 0.0, bad)
    assert header["failed"] == run.MIN_STUDIES
    assert samples["study_s"] == []


def test_method_equivalence_is_checked():
    wl = WORKLOADS["smooth-m2"]
    steps = load_reference()[wl.name]
    assert check_rows(wl, DEFAULT_SEED, steps, {}, None)
    other = copy.deepcopy(steps)
    other[-1]["rel_combined"] *= 1.0 + 1e-3
    assert check_rows(wl, DEFAULT_SEED, steps, {}, other)
    assert check_rows(wl, DEFAULT_SEED, steps, {}, steps) == []


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "smooth-h", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_child_spans(tmp_path):
    tr = Tracer("t")
    inner = tr.wrap("basis.inner", lambda: sum(range(20000)))
    outer = tr.wrap("study.outer", lambda: [inner() for _ in range(3)])
    outer()
    stats = tr.per_name()
    assert stats["basis.inner"][0] == 3 and stats["study.outer"][0] == 1
    total = stats["study.outer"][1]
    assert stats["study.outer"][2] + stats["basis.inner"][2] == \
        pytest.approx(total, rel=1e-9)
    assert 0.0 < stats["study.outer"][2] < total
    tr.write_spans(str(tmp_path / "s.csv.gz"))
    with gzip.open(tmp_path / "s.csv.gz", "rt") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "run_id,span,parent,name,start_s,end_s"
    assert len(lines) == 5 and lines[1].startswith("t,0,-1,study.outer,")
