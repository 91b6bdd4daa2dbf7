"""slowlight benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dsweep --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` it times whole
``slowlight run`` processes on the workload's generated config, one after
another in fresh interpreters, checks every CSV they write, and reports
medians scaled to a reference host speed (see ``end_to_end``).  With
``--trace 1`` it runs the sweep in process, once untraced and once traced,
then repeats the layer microbench for the rest of ``--seconds``.  The last
line of stdout is the result JSON; the line before it holds the details
(sample counts, tail percentiles, environment).  Files go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layers
from workloads import DEFAULT_SEED, WHY, Workload, differing_points, failed_points, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"

MIN_RUNS = 2            # so the byte-identity check always has a pair
CAL_REF_S = 1.5         # calibration time at the reference host speed
BUDGET_S = 170.0        # every child is killed before the run would pass 180 s
CLI = ["-c", "import sys; from slowlight.cli import main; sys.exit(main())"]
CALIBRATE = [str(HERE / "calibrate.py")]

END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def spawn(args: list[str], err_path: Path, timeout: float) -> tuple[float, float, float, int]:
    """Run ``python3 *args`` in a fresh interpreter; (wall s, cpu s, peak rss MB, exit code).

    Wall time runs from spawn to exit; CPU time and peak RSS are the
    child's own, from wait4.  A child still running after ``timeout`` is
    killed and reported with exit code -SIGKILL.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                         file_actions=actions)
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            if not select.select([pidfd], [], [], timeout)[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            reaped = True
        finally:
            os.close(pidfd)
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile that still has ten samples above it, and
    the samples in the order they were taken."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail_pct": None, "tail": None,
           "samples": values}
    if n > 10:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = ordered[n - 11]
    return out


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def reference_for(wl: Workload, seed: int) -> bytes | None:
    path = REFERENCE / f"{wl.name}.csv"
    return path.read_bytes() if seed == DEFAULT_SEED and path.is_file() else None


def end_to_end(wl: Workload, seed: int, seconds: float, outdir: Path, deadline: float):
    config = outdir / "config.preset"
    csv_path, svg_path, err_path = outdir / "run.csv", outdir / "run.svg", outdir / "stderr.txt"
    npoints = len(wl.statistics) * wl.points

    def remaining() -> float:
        return max(1.0, deadline - time.perf_counter())

    # the first start writes bytecode caches and warms the file cache
    setup_ok = spawn([*CLI, "scales", str(config)], err_path, remaining())[3] == 0

    reference = reference_for(wl, seed)
    setup, cal, walls, cpus, rss = [], [], [], [], []
    first, max_dev = None, None
    attempted = failed = 0
    start = time.perf_counter()
    while len(walls) < MIN_RUNS or time.perf_counter() - start + statistics.median(setup) \
            + statistics.median(cal) + statistics.median(walls) <= seconds:
        # a set-up sample and a calibration before each run, so that all
        # three see the same drift in the host's speed
        wall, _, _, code = spawn([*CLI, "scales", str(config)], err_path, remaining())
        setup.append(wall)
        setup_ok = setup_ok and code == 0
        wall, _, _, code = spawn(CALIBRATE, err_path, remaining())
        if code != 0:
            raise AssertionError(f"calibration exited with {code}; see {err_path}")
        cal.append(wall)
        for path in (csv_path, svg_path):
            path.unlink(missing_ok=True)
        wall, cpu, peak, code = spawn(
            [*CLI, "run", str(config), "--out", str(csv_path), "--chart", str(svg_path)],
            err_path, remaining())
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        attempted += npoints
        if code != 0 or not setup_ok or not csv_path.is_file() or not svg_path.is_file() \
                or not svg_path.read_bytes().startswith(b"<svg"):
            failed += npoints
            continue
        data = csv_path.read_bytes()
        if first is None:
            bad, dev = failed_points(data, wl, reference)
            first, max_dev = data, dev if reference is not None else None
        else:
            bad = failed_points(data, wl)[0] | differing_points(data, first, wl)
        failed += len(bad)

    # A shared host's speed drifts by up to a third over minutes, longer than
    # a run, and scales every timing alike.  So each time is reported at the
    # reference speed: the run's median times CAL_REF_S over the median time
    # of calibrate.py.  The measured samples are in the detail line.
    scale = CAL_REF_S / statistics.median(cal)
    metrics = {"wall_s": statistics.median(walls) * scale, "cpu_s": statistics.median(cpus) * scale,
               "peak_rss_mb": statistics.median(rss), "setup_s": statistics.median(setup) * scale}
    detail = {
        "timings": {"wall_s": summarize(walls), "cpu_s": summarize(cpus),
                    "peak_rss_mb": summarize(rss), "setup_s": summarize(setup),
                    "calibration_s": summarize(cal)},
        "speed_scale": scale,
        "max_ref_rel_dev": max_dev,
    }
    return metrics, attempted, failed, detail


def traced(wl: Workload, seed: int, seconds: float, outdir: Path):
    start = time.perf_counter()
    program = layers.import_program(SRC)
    rows, metrics, spans, by_stat = layers.traced_sweep(program, outdir / "config.preset")
    layers.write_spans(spans, outdir / "spans.json")
    csv_path = outdir / "traced.csv"
    program[0].write_csv(rows, csv_path)
    reference = reference_for(wl, seed)
    bad, dev = failed_points(csv_path.read_bytes(), wl, reference)

    micro = layers.Microbench(program, outdir, REFERENCE / "dsweep.csv")
    rounds, last = [], 0.0
    while not rounds or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        rounds.append(micro.round())
        last = time.perf_counter() - began
    for name in layers.MICRO_METRICS:
        metrics[name] = statistics.median(r[name] for r in rounds)
    detail = {"point_ms_by_statistics": by_stat, "microbench_rounds": len(rounds),
              "spans": len(spans), "max_ref_rel_dev": dev if reference is not None else None}
    return metrics, len(wl.statistics) * wl.points, len(bad), detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + BUDGET_S

    if not (SRC / "slowlight" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'slowlight'}; run from a source checkout",
              file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed)
    outdir = HERE / "out" / f"{wl.name}-seed{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.preset").write_text(wl.config_text(), encoding="utf-8")

    try:
        if args.trace:
            metrics, attempted, failed, detail = traced(wl, args.seed, args.seconds, outdir)
        else:
            metrics, attempted, failed, detail = end_to_end(
                wl, args.seed, args.seconds, outdir, deadline)
    except AssertionError as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return 1

    units = layers.PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in units.items()},
    }
    detail.update(workload=wl.name, why=WHY[wl.name], trace=args.trace, grid=wl.grid(),
                  failed_frac=failed / attempted, env=environment(args.seed))
    (outdir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
