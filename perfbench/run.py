"""Run one benchmark workload and print one JSON result line.

    python3 perfbench/run.py --workload minhash_flagship --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload's public pipeline call, repeated for
``--seconds``, and prints the end-to-end metrics. ``--trace 1`` alternates
that call with a traced rebuild from the public stage functions and prints
the per-layer metrics. Both check the written output (perfbench/checks.py).
The last line of standard output is the JSON result; progress goes to
standard error. See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
N_ROWS = 4000
# One logical CPU hangs the flagship (the fingerprint actor holds the only
# slot the exchange tasks need), so Ray always gets at least two.
RAY_CPUS = 2
OBJECT_STORE_BYTES = 512 * 1024**2
# By default Ray kills idle workers above its CPU count after one second, so
# each call restarted a varying number of worker processes (Python start plus
# package imports, about 1.5 CPU-s each): flagship rounds took either about
# 4 s or about 5.7 s, and a run's median fell on one mode or the other.
# Keeping idle workers for the whole run takes that churn out of the rounds.
RAY_SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 3_600_000,
                     "num_workers_soft_limit": 8}
RUN_TIMEOUT_S = 160
PROBE_TIMEOUT_S = 60
# Ray's session sockets live under its temp dir and AF_UNIX paths stop at
# 107 bytes; the session dir name and socket name take up to 64 of them.
MAX_RAY_TMP_LEN = 107 - 64
WORKLOAD_NAMES = ("minhash_flagship", "simhash_sharded")

END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "rows/s", "setup_s": "s",
                    "driver_peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "io.read_s": "s", "io.write_s": "s", "io.output_bytes": "bytes",
    "kernel.shingle_s": "s", "kernel.minhash_s": "s", "kernel.simhash_s": "s",
    "kernel.shingles": "count", "kernel.distinct_shingles": "count",
    "fingerprint.s": "s", "fingerprint.rows_in": "count", "fingerprint.band_rows": "count",
    "edges.local_edges": "count", "edges.reps": "count",
    "exchange.s": "s", "exchange.rows": "count", "exchange.partitions": "count",
    "exchange.skew": "ratio",
    "cc.s": "s", "cc.reduce_edges_s": "s", "cc.edges_in": "count", "cc.nodes": "count",
    "cc.clusters": "count",
    "assign.s": "s", "assign.rows_out": "count",
    "state.bootstrap_s": "s", "state.increment_s": "s", "state.bytes_written": "bytes",
    "state.files_written": "count", "state.prior_bytes": "bytes",
    "state.merged_old_roots": "count",
    "trace.overhead_s": "s", "call.cpu_s": "s",
}


class RunTimeout(Exception):
    pass


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg: str, code: int = 2):
    log(f"error: {msg}")
    sys.exit(code)


def process_age() -> float:
    """Seconds since this process started, from /proc (10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


AGE_AT_START = process_age()


def host_cpu() -> tuple[float, float]:
    """(busy, stolen) CPU seconds of the whole host so far, from /proc/stat.
    Busy is user + nice + system + irq + softirq over all CPUs; stolen is the
    time the hypervisor ran something else while a CPU here wanted to run."""
    with open("/proc/stat") as fh:
        f = [int(x) for x in fh.readline().split()[1:9]]
    tick = os.sysconf("SC_CLK_TCK")
    return (f[0] + f[1] + f[2] + f[5] + f[6]) / tick, f[7] / tick


HOST_AT_START = host_cpu()


def steal_corrected(wall: float, busy: float, stolen: float) -> float:
    """``wall`` scaled by the share of the CPU time the host asked for that
    the hypervisor delivered: the wall the same work takes on an undisturbed
    host, if the theft spread evenly over it. The host shares its cores with
    other tenants, who take CPU time in bursts of seconds to minutes; a
    SimHash round with 3-9 s stolen took 5.1-7.3 s against 3.8-4.3 s, and
    scaled this way 3.8-4.3 s again. With nothing stolen it is the wall."""
    return wall * busy / (busy + stolen) if busy + stolen > 0 else wall


def age_now() -> float:
    return AGE_AT_START + time.perf_counter() - T_START


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def use_checkout_package() -> None:
    """Import text_dedup_ray from the checkout this file sits in, and export
    that path so Ray workers (started after this) import the same copy."""
    sys.path.insert(0, str(ROOT))
    spec = importlib.util.find_spec("text_dedup_ray")
    if spec is None or spec.origin is None or not Path(spec.origin).resolve().is_relative_to(ROOT):
        fail(f"text_dedup_ray is not importable from the checkout {ROOT}")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"


def start_ray():
    import logging

    import ray
    import ray.data

    ray_tmp = BENCH / ".ray"
    kwargs = {}
    if len(str(ray_tmp)) <= MAX_RAY_TMP_LEN:
        ray_tmp.mkdir(parents=True, exist_ok=True)
        kwargs["_temp_dir"] = str(ray_tmp)
    else:
        log(f"checkout path too long for Ray sockets under {ray_tmp}; using Ray's default temp dir")
    ray.init(address="local", num_cpus=RAY_CPUS, object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR", log_to_driver=False,
             _node_ip_address="127.0.0.1", _system_config=RAY_SYSTEM_CONFIG, **kwargs)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return ray


def probe_workers(ray) -> None:
    """Fail at once when workers cannot import the package; an actor that
    cannot would otherwise restart silently forever."""
    @ray.remote(num_cpus=0)
    def where():
        import text_dedup_ray

        return str(Path(text_dedup_ray.__file__).resolve().parent)

    try:
        got = ray.get(where.remote(), timeout=PROBE_TIMEOUT_S)
    except Exception as exc:  # any probe failure means workers are unusable
        fail(f"Ray workers cannot import text_dedup_ray: {type(exc).__name__}: {exc}")
    if got != str(ROOT / "text_dedup_ray"):
        fail(f"Ray workers import text_dedup_ray from {got}, not from {ROOT}")


def _stat(pid: int) -> tuple[int, int] | None:
    """(parent pid, start time in clock ticks) of a live process; None once
    it has exited (a zombie child of ours is reaped here)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    if fields[0] == "Z":
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass
        return None
    return int(fields[1]), int(fields[19])


def descendants(root: int) -> dict[int, int]:
    """{pid: start ticks} of every live process below ``root``."""
    children: dict[int, list[int]] = {}
    starts = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit() and (st := _stat(int(entry))) is not None:
            children.setdefault(st[0], []).append(int(entry))
            starts[int(entry)] = st[1]
    out, todo = {}, [root]
    while todo:
        for child in children.get(todo.pop(), []):
            out[child] = starts[child]
            todo.append(child)
    return out


def stop_ray(ray) -> None:
    """Shut Ray down and wait until every process it started has ended.
    Workers are re-parented when the raylet exits, so the process tree is
    captured before the shutdown."""
    session_dir = None
    try:
        session_dir = ray._private.worker._global_node.get_session_dir_path()
    except AttributeError:
        log("cannot read the Ray session dir; it is left in place")
    started = descendants(os.getpid())
    ray.shutdown()

    def alive() -> list[int]:
        return [p for p, t in started.items() if (st := _stat(p)) is not None and st[1] == t]

    deadline = time.monotonic() + 10
    while (pids := alive()) and time.monotonic() < deadline:
        time.sleep(0.2)
    for pid in pids:
        log(f"killing leftover process {pid}")
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5
    while (pids := alive()) and time.monotonic() < deadline:
        time.sleep(0.2)
    if pids:
        log(f"processes {pids} did not end")
    if session_dir:
        shutil.rmtree(session_dir, ignore_errors=True)


def measure(wl, args, tr) -> tuple[list[float], list[float], list[float]]:
    """Whole rounds of the timed call (and, traced, one traced pass each):
    at least one, then more while fewer than ``--seconds`` have passed.
    Returns, per round, the call's wall, the host's busy CPU seconds during
    the call and the CPU seconds stolen from the host during it."""
    walls, cpus, stolen = [], [], []
    t_begin = time.perf_counter()
    while not walls or time.perf_counter() - t_begin < args.seconds:
        c0, s0 = host_cpu()
        t0 = time.perf_counter()
        wl.call()
        walls.append(time.perf_counter() - t0)
        c1, s1 = host_cpu()
        cpus.append(c1 - c0)
        stolen.append(s1 - s0)
        if tr is not None:
            tr.new_trace()
            wl.traced_pass(tr)
        log(f"round {len(walls)}: wall {walls[-1]:.3f} s, cpu {cpus[-1]:.2f} s, stolen {stolen[-1]:.2f} s")
    return walls, cpus, stolen


def run(args) -> dict:
    from perfbench.corpus import make_inputs

    run_dir = BENCH / ".runs" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ray = None
    try:
        t0 = time.perf_counter()
        inputs = make_inputs(BENCH / ".cache", run_dir, N_ROWS, args.seed, ROOT)
        input_s = time.perf_counter() - t0

        ray = start_ray()
        probe_workers(ray)
        from perfbench.spans import Tracer
        from perfbench.workloads import WORKLOADS, per_layer, trace_kernels

        wl = WORKLOADS[args.workload](inputs, run_dir)
        tr = Tracer() if args.trace else None
        ray_s = age_now() - input_s
        wl.setup()
        raw_setup_s = age_now() - input_s
        busy, stolen = (b - a for a, b in zip(HOST_AT_START, host_cpu()))
        setup_s = steal_corrected(raw_setup_s, busy, stolen)
        log(f"set-up {setup_s:.3f} s ({raw_setup_s:.3f} s before the steal correction, "
            f"host cpu {busy:.2f} s, stolen {stolen:.2f} s): {ray_s:.3f} s to a running Ray, "
            f"then the warm-up call {wl.warmup_walls[0]:.3f} s; inputs {input_s:.3f} s not counted")
        wl.prime()
        log(f"untimed priming call after the set-up: {wl.warmup_walls[-1]:.3f} s")

        walls, cpus, stolen = measure(wl, args, tr)
        rounds = len(walls)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tr is not None:
            tr.new_trace()
            wl.state_leg(tr)
            tr.new_trace()
            trace_kernels(tr, wl)

        stats: dict = {}
        fails = wl.check(stats)
        if tr is not None:
            fails += wl.check_trace(tr, stats)
        log(f"checks: {json.dumps(stats, sort_keys=True)}")
        for f in fails:
            log(f"CHECK FAILED: {f}")

        wall = statistics.median(steal_corrected(*r) for r in zip(walls, cpus, stolen))
        if tr is None:
            values = {"wall_s": wall, "rows_per_s": wl.rows / wall, "setup_s": setup_s,
                      "driver_peak_rss_mb": peak_rss_mb}
            units = END_TO_END_UNITS
        else:
            values = per_layer(tr, walls)
            values["call.cpu_s"] = statistics.median(cpus)
            units = PER_LAYER_UNITS
            tr.dump(BENCH / ".traces" / f"{run_dir.name}.json",
                    {"workload": args.workload, "seed": args.seed, "walls": walls})
        return {
            "correct": not fails,
            "attempted": rounds,
            "failed": 0,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }
    finally:
        signal.alarm(0)  # never interrupt the clean-up
        if ray is not None:
            stop_ray(ray)
        shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    args = parse_args()
    use_checkout_package()

    def on_alarm(_sig, _frame):
        raise RunTimeout(f"run exceeded {RUN_TIMEOUT_S} s")

    def on_term(sig, _frame):
        raise SystemExit(128 + sig)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        result = run(args)
    except RunTimeout as exc:
        fail(str(exc), code=3)
    finally:
        signal.alarm(0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
