"""privlin benchmark: one workload per invocation, checked, timed, optionally traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload tradeoff_sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload untraced under the speed probe (speed.py) and
reports the end-to-end metrics. ``--trace 1`` alternates untraced rounds with
traced copies of the same rounds, in which every privlin layer is wrapped by
tracing.py, and reports the per-layer metrics and the tracing overhead. A
human-readable report comes first; the last line of standard output is one
JSON object with the gated metrics. Results and spans are written under
.perfbench_out/. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import os

# One client on one thread: BLAS worker threads would compete with the client
# loop for the two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7


def import_privlin():
    """privlin from this checkout's src/ only; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "privlin" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no privlin sources under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    privlin = importlib.import_module("privlin")
    if Path(privlin.__file__).resolve().parent != (src / "privlin").resolve():
        sys.stderr.write(f"perfbench: imported privlin from {privlin.__file__}, not {src}\n")
        sys.exit(2)
    return privlin


def run_pass(pl, workload, seed: int, out, deadline=None, rounds=None, setups=None):
    """Set up, then run rounds until the deadline (or a fixed count).

    With a `setups` list, set-up is timed and repeated between rounds (the
    repeat's state is discarded) until SETUP_REPEATS (start, seconds) samples
    exist, so the samples spread over the run.
    """
    def timed_setup():
        start = time.perf_counter()
        state = workload.setup(pl, seed)
        setups.append((start, time.perf_counter() - start))
        return state

    state = workload.setup(pl, seed) if setups is None else timed_setup()
    done = 0
    while (rounds is None and (done == 0 or time.perf_counter() < deadline)) or (
            rounds is not None and done < rounds):
        out.work.append([])
        workload.run_round(pl, state, done, out, lambda: None)
        done += 1
        if setups is not None and len(setups) < SETUP_REPEATS:
            timed_setup()
    while setups is not None and len(setups) < SETUP_REPEATS:
        timed_setup()
    return state, done


def median_round_s(work: list, time_of) -> float:
    """The time of a round in which each privlin call takes its class's median.

    `work` holds each round's (class, start, seconds) calls and `time_of`
    maps (start, seconds) to the time reported. Each class counts as often as
    it is called per round, so the figure weighs work by its cost; the
    medians keep single calls that a busy machine stalled from moving it.
    """
    times: dict[str, list] = {}
    for round_work in work:
        for cls, start, seconds in round_work:
            times.setdefault(cls, []).append(time_of(start, seconds))
    return sum(statistics.median(v) * len(v) for v in times.values()) / len(work)


def untraced_run(pl, workload, seed, seconds, out_dir):
    from speed import SpeedProbe
    from workloads import Outcome

    setups = []
    out = Outcome()
    with SpeedProbe(workload.speed_kernel) as probe:
        state, rounds = run_pass(pl, workload, seed, out, setups=setups,
                                 deadline=time.perf_counter() + seconds)
    workload.finish(pl, state, out, out_dir)
    calls = sum(len(work) for work in out.work)
    gated = {
        "setup_s": (statistics.median(probe.normalize(*setup) for setup in setups),
                    "s", len(setups)),
        "round_s": (median_round_s(out.work, probe.normalize), "s", calls),
    }
    named = {
        "setup_s.raw": (statistics.median(s for _, s in setups), "s", len(setups)),
        "round_s.raw": (median_round_s(out.work, lambda start, s: s), "s", calls),
        "machine_slowdown": (statistics.mean(probe.durations) / probe.reference_s, "ratio",
                             len(probe.durations)),
        "error_rate": (out.failed / max(1, out.attempted), "ratio", out.attempted),
    }
    named.update(workload.metrics(out))
    return out, gated, named, rounds


def traced_run(pl, workload, seed, seconds, out_dir):
    """Alternate untraced rounds with traced copies of the same rounds.

    Both sides are set up once (the traced set-up is round -1 of the spans),
    then each round runs on both sides, in alternating order, until the
    deadline. Alternating lets both sides see the same mix of machine load, so
    their difference estimates the tracing overhead.
    """
    from tracing import Tracer, check_spans, per_layer_metrics, span_table
    from workloads import Outcome

    tracer = Tracer(pl)
    outs = {False: Outcome(), True: Outcome()}
    new_ops = {False: lambda: None, True: tracer.new_op}
    elapsed = {False: 0.0, True: 0.0}

    def step(traced: bool, work):
        start = time.perf_counter()
        if traced:
            with tracer.installed(), tracer.span("client"):
                result = work()
        else:
            result = work()
        return result, time.perf_counter() - start

    deadline = time.perf_counter() + seconds
    states = {side: step(side, lambda: workload.setup(pl, seed))[0] for side in (False, True)}
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        tracer.round_id = rounds
        for side in (rounds % 2 == 1, rounds % 2 == 0):
            outs[side].work.append([])
            elapsed[side] += step(side, lambda: workload.run_round(
                pl, states[side], rounds, outs[side], new_ops[side]))[1]
        rounds += 1
    out, traced_out = outs[False], outs[True]
    workload.finish(pl, states[True], traced_out, out_dir)
    tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.npz")
    traced_out.fail(check_spans(tracer))
    layers = per_layer_metrics(tracer, rounds, elapsed[True], elapsed[False])
    traced_out.attempted += out.attempted
    traced_out.failed += out.failed
    traced_out.failures.extend(out.failures)
    return traced_out, layers, span_table(tracer, rounds), rounds


def environment(pl) -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "privlin": pl.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "client_threads": 1,
    }


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(title: str, metrics: dict):
    print(f"== {title}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<48} {_format(value):>14} {unit:<6} n={n}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pl = import_privlin()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    env = environment(pl)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("== environment")
    for key, value in env.items():
        print(f"  {key:<14} {value}")

    if args.trace == 0:
        out, gated, named, rounds = untraced_run(pl, workload, args.seed, args.seconds, out_dir)
        print_table(f"workload metrics ({rounds} rounds)", named)
        print_table("end-to-end metrics (gated)", gated)
        detail = {"workload_metrics": named}
    else:
        out, gated, spans, rounds = traced_run(pl, workload, args.seed, args.seconds, out_dir)
        traced_ms = gated["traced_round_ms"][0]
        print(f"== spans, per round ({rounds} rounds traced)")
        print(f"  {'name':<48} {'calls':>9} {'total_ms':>11} {'self_ms':>11} {'self_%':>7} "
              f"{'us/call':>10}")
        for name, calls, total, own, per_call in spans:
            print(f"  {name:<48} {calls:>9.6g} {total:>11.3f} {own:>11.3f} "
                  f"{100 * own / traced_ms:>7.2f} {per_call:>10.2f}")
        print_table("per-layer metrics", gated)
        detail = {"spans": spans}

    for key, value in out.info.items():
        print(f"  info {key}: {value}")
    for message in out.failures:
        print(f"  CHECK FAILED: {message}")
    correct = out.failed == 0
    print(f"== checks: {'pass' if correct else 'FAIL'} "
          f"({out.failed} failed of {out.attempted} attempted)")

    result = {"correct": correct, "attempted": out.attempted, "failed": out.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in gated.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "rounds": rounds,
              "info": out.info, "failures": out.failures, "result": result,
              "samples": {name: n for name, (_, _, n) in gated.items()}, **detail}
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
