#!/usr/bin/env python3
"""Benchmark of the condor_ray streaming synopsis engine.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 10] [--trace 0]

Run from the repository root.  One process runs one workload (see
``workloads.py``) in a fresh Ray session, preceded by ``ray stop --force``.
The process and everything it starts are pinned to one CPU, and Ray gets
``0.5 * P + 1`` logical CPUs for ``P = 2`` partitions: the state actors
reserve 0.5 CPU each, and at least one CPU must stay free for the split and
merge tasks or they are never scheduled.  On one CPU, the processes of the
session hand work to each other without waking another virtual CPU, whose
scheduling delay on a shared host varies from run to run.

Each run sets up (Ray start, fixture build, page-cache warm-up, actor
start-up, a warm-up run), measures for ``--seconds``, checks every output
against a reference computed in this process, and prints one JSON line
last::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``rows_per_s``, ``emit_latency_p50_ms``, ``emit_latency_p90_ms``,
``peak_rss_mb``).  With ``--trace 1`` the timed phase is followed by one
traced run (Ray timeline spans, manifest figures, benchmark-side timers)
and the in-process kernel ladder, and the metrics are the per-layer ones.
A failed, timed-out or wrong operation makes the command exit with 1.
The run writes under ``.perfbench_run/`` in the checkout; only Ray's object
store (``/dev/shm``) and, when the checkout's path is too long for Ray's
sockets, Ray's session directory (``/tmp/ray``) live elsewhere.
"""

from __future__ import annotations

import os
import time


def _process_age_s() -> float:
    """Seconds since this process started (10 ms resolution)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


# process start on the perf_counter clock: setup_s runs from here
PROCESS_START = time.perf_counter() - _process_age_s()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PARALLELISM = 2
RAY_CPUS = PARALLELISM // 2 + 1
DEADLINE_S = 170.0  # from process start; the run must end within 180 s
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "emit_latency_p50_ms": "ms",
    "emit_latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def ray_stop() -> None:
    subprocess.run(
        [sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
    )


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": max(1, int(attempted)),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def start_watchdog(deadline_s: float) -> None:
    """If the run is still going at the deadline, report it failed, stop Ray
    and leave (a stuck set-up or check must not outlive the time limit)."""

    def fire():
        print("watchdog: run exceeded its time limit", flush=True)
        print(result_line(False, 1, 1, {}), flush=True)
        try:
            ray_stop()
        finally:
            os._exit(1)

    t = threading.Timer(max(1.0, deadline_s - (time.perf_counter() - PROCESS_START)), fire)
    t.daemon = True
    t.start()


def ray_temp_dir(run_root: str) -> str | None:
    """Ray's session directory inside the checkout, when its socket paths
    fit the 107-byte AF_UNIX limit (the session name and socket file add
    about 66 bytes); otherwise Ray's default."""
    path = os.path.join(run_root, "ray")
    return path if len(path.encode()) + 70 <= 107 else None


def cpu_ticks() -> list[int]:
    """System-wide CPU ticks from ``/proc/stat``: user nice system idle
    iowait irq softirq steal."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_share(t0: list[int], t1: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    ``cpu_ticks`` readings (the host noise the timings ride on)."""
    d = [b - a for a, b in zip(t0, t1)]
    return d[7] / sum(d) if sum(d) else 0.0


def percentile(xs: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(xs, q)) if xs else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> int:
    sys.path[:0] = [ROOT, HERE]
    import condor_ray  # noqa: F401  (fails here when the program is absent)

    run_root = os.path.join(ROOT, ".perfbench_run")
    work_dir = os.path.join(run_root, f"{workload}-{seed}-{os.getpid()}")
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["TMPDIR"] = tmp
    os.environ["CONDOR_RAY_NATIVE_CACHE"] = os.path.join(run_root, "native")
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    # keep idle workers: with Ray's 1 s default, a worker idle between two
    # operations is killed and the next task pays a fresh worker start-up
    os.environ["RAY_idle_worker_killing_time_threshold_ms"] = str(3_600_000)

    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    start_watchdog(DEADLINE_S)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ray_stop()
    ray_dir = ray_temp_dir(run_root)
    if ray_dir:  # earlier sessions' logs: left alone, they pile up run by run
        shutil.rmtree(ray_dir, ignore_errors=True)
    import ray

    from condor_ray._native import load_cm_native, load_wavelet_native

    load_cm_native()  # compile once per checkout, before any worker needs it
    load_wavelet_native()
    ray.init(
        address="local", num_cpus=RAY_CPUS, include_dashboard=False,
        logging_level="ERROR", log_to_driver=False,
        object_store_memory=256 * 1024 * 1024, _temp_dir=ray_dir,
    )
    ray_ready_s = time.perf_counter() - PROCESS_START
    wl = workloads.WORKLOADS[workload](work_dir, seed, seconds, scale)
    try:
        wl.setup()
        setup_s = time.perf_counter() - PROCESS_START
        ticks = cpu_ticks()
        m = wl.measure(leave_for_trace=trace)
        t_measured = time.perf_counter()
        steal = steal_share(ticks, cpu_ticks())
        rss_mb = workloads.layers.peak_rss_mb()  # before anything shuts down
        layer, traced_rps = {}, 0.0
        if trace and not m.failed:
            try:
                layer, traced_rps = wl.traced()
            except workloads.OpFailed as e:
                m.attempted += 1
                m.failed += 1
                m.notes.append(f"traced run: {e}")
            layer.update(workloads.layers.kernel_ladder(
                wl.ladder_inputs(), wl.columns, PARALLELISM))
        t_traced = time.perf_counter()
        bad = wl.check() if not m.failed else []
        t_checked = time.perf_counter()
    finally:
        try:
            wl.close()
        except Exception as e:  # a dead job must not hide the result
            print(f"close: {e!r}", file=sys.stderr)
        ray.shutdown()  # stops the session's processes and waits for them
        shutil.rmtree(work_dir, ignore_errors=True)
        if ray_dir:
            shutil.rmtree(ray_dir, ignore_errors=True)

    lat = m.latencies_ms
    for note in m.notes:
        print(note)
    print(f"phases: setup {setup_s:.2f} s (Ray ready at {ray_ready_s:.2f} s), measure {t_measured - PROCESS_START - setup_s:.2f} s, "
          f"trace {t_traced - t_measured:.2f} s, check {t_checked - t_traced:.2f} s, "
          f"shutdown {time.perf_counter() - t_checked:.2f} s")
    print(f"{workload}: {len(lat)} latency samples, {m.rows} rows in "
          f"{m.wall_s:.3f} s, {m.attempted} operations, {m.failed} failed; "
          f"{100 * steal:.1f}% of the host's CPU time stolen while timing")
    for b in bad[:20]:
        print(f"MISMATCH: {b}")
    if trace:
        metrics = {
            name: (float(layer.get(name, 0.0)), unit)
            for name, unit in workloads.LAYER_UNITS.items()
        }
        metrics["trace.traced_rows_per_s"] = (traced_rps, "1/s")
        metrics["trace.untraced_rows_per_s"] = (m.busy_rows_per_s, "1/s")
        metrics["failed_frac"] = (m.failed / max(1, m.attempted), "ratio")
        metrics["generator_lag_p90_ms"] = (percentile(m.lags_ms, 90), "ms")
        metrics["host.steal_frac"] = (steal, "ratio")
    else:
        values = {
            "setup_s": setup_s,
            "rows_per_s": m.rows_per_s,
            "emit_latency_p50_ms": percentile(lat, 50),
            "emit_latency_p90_ms": percentile(lat, 90),
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: (values[k], u) for k, u in END_TO_END.items()}
    correct = not bad and m.failed == 0
    print(result_line(correct, m.attempted, m.failed, metrics), flush=True)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input-size factor; the self-tests use a tiny one")
    a = ap.parse_args(argv)
    return run(a.workload, a.seed, a.seconds, bool(a.trace), a.scale)


if __name__ == "__main__":
    sys.exit(main())
