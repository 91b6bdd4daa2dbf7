"""Tests of the benchmark itself: generator, branch classifier, checks, a tiny run.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    RANGES, WHY, Workload, differing_points, failed_points, make_workload,
)

cli, gas, numerics, optics = layers.import_program(run.SRC)


@pytest.mark.parametrize("name", sorted(WHY))
def test_generator_is_deterministic_and_stays_in_range(name):
    lo, hi = RANGES[name]
    texts = set()
    for seed in range(40):
        wl = make_workload(name, seed)
        assert wl == make_workload(name, seed)
        texts.add(wl.config_text())
        grid = wl.grid()
        assert lo <= grid[0] < grid[-1] <= hi
        if wl.temperature is not None:
            assert abs(wl.temperature - 0.5) <= 0.01
        # the program reads the same grid back from the config text
        config = cli.parse_config(wl.config_text())
        assert [s.value for s in config.sweep.statistics_list] == list(wl.statistics)
        assert all(abs(a / b - 1.0) < 1e-12 for a, b in zip(config.sweep.grid(), grid))
    assert len(texts) == 40


def _first_branch(monkeypatch, names: dict[str, str], call) -> str | None:
    seen: list[str] = []
    for attr, branch in names.items():
        inner = getattr(numerics, attr)

        def spy(*args, _inner=inner, _branch=branch):
            seen.append(_branch)
            return _inner(*args)

        monkeypatch.setattr(numerics, attr, spy)
    call()
    monkeypatch.undo()
    return seen[0] if seen else None


def test_branch_classifier_agrees_with_polylog_and_fermi_dirac_f(monkeypatch):
    cutoff = numerics.DEFAULT_TOL.series_cutoff
    switch = numerics.SOMMERFELD_SWITCH
    polylog_names = {"_polylog_series": "series", "_polylog_near_one": "near_one"}
    for z in (1e-6, 0.3, math.nextafter(cutoff, 0.0), cutoff, math.nextafter(cutoff, 1.0),
              0.8, 1.0):
        taken = _first_branch(monkeypatch, polylog_names, lambda: numerics.polylog(1.5, z))
        assert layers.polylog_branch(1.5, z, cutoff) == taken, z
    fd_names = {"_polylog_series": "series", "_fd_integer": "integer",
                "_polylog_negative_axis": "hurwitz", "_fd_sommerfeld": "sommerfeld"}
    edge = math.log(cutoff)
    for nu in (1.5, 3.0):
        for x in (-30.0, math.nextafter(edge, -1.0), edge, math.nextafter(edge, 0.0), 0.0, 5.0,
                  math.nextafter(switch, 0.0), switch, math.nextafter(switch, 99.0), 60.0):
            taken = _first_branch(monkeypatch, fd_names, lambda: numerics.fermi_dirac_f(nu, x))
            assert layers.fd_branch(nu, x, cutoff, switch) == taken, (nu, x)


def test_checks_flag_bad_rows():
    wl = make_workload("dsweep", 0)
    good = (run.REFERENCE / "dsweep.csv").read_bytes()
    assert failed_points(good, wl, good) == (set(), 0.0)
    lines = good.decode().split("\n")

    def with_line(index: int, text: str | None) -> bytes:
        edited = list(lines)
        if text is None:
            del edited[index]
        else:
            edited[index] = text
        return "\n".join(edited).encode()

    nan_row = lines[1].rsplit(",", 1)[0] + ",nan"
    assert failed_points(with_line(1, nan_row), wl)[0] == {("fermi", 0)}
    assert failed_points(with_line(len(lines) - 2, None), wl)[0] == {("boltzmann", 3)}
    boltz = lines[9].split(",")
    boltz[2] = f"{float(boltz[2]) * (1 + 1e-6):.11e}"
    assert failed_points(with_line(9, ",".join(boltz)), wl)[0] == {("boltzmann", 0)}
    bad, dev = failed_points(with_line(9, ",".join(boltz)), wl, good)
    assert bad == {("boltzmann", 0)} and 5e-7 < dev < 2e-6
    assert differing_points(with_line(9, ",".join(boltz)), good, wl) == {("boltzmann", 0)}


def _tiny() -> Workload:
    return replace(make_workload("dsweep", 1), points=2)


def test_tiny_workload_end_to_end(tmp_path):
    wl = _tiny()
    (tmp_path / "config.preset").write_text(wl.config_text())
    metrics, attempted, failed, detail = run.end_to_end(
        wl, 1, 0.0, tmp_path, time.perf_counter() + 120.0)
    assert (attempted, failed) == (2 * 6, 0)
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0.0 for v in metrics.values())
    assert all(detail["timings"][name]["n"] == run.MIN_RUNS
               for name in ("setup_s", "calibration_s", "wall_s"))


def test_tiny_workload_traced(tmp_path):
    wl = _tiny()
    (tmp_path / "config.preset").write_text(wl.config_text())
    metrics, attempted, failed, detail = run.traced(wl, 1, 0.0, tmp_path)
    assert (attempted, failed) == (6, 0)
    assert list(metrics) == list(layers.TRACE_METRICS) + list(layers.MICRO_METRICS)
    assert metrics["optics.quad_calls_per_point"] == 3.0
    assert metrics["gas.profile_builds"] == 3
    assert metrics["numerics.fd_calls_per_point.sommerfeld"] == 0.0
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert sum(s["name"] == "point" for s in spans) == 6


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WHY)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
