#!/usr/bin/env python3
"""signeddec benchmark: four CLI workloads, run in-process as a closed loop.

    python3 perfbench/run.py --workload check2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One process, one thread, one client: each op calls ``signeddec.cli.main``
with the argument lists of its workload and is issued only after the
previous op completed. Set-up imports ``signeddec`` from ``src/`` next to
this directory and writes the seeded input pool; ops read only those
files. Each op's output is checked outside its timed interval. The
bounded times are scaled to a reference host speed, measured by a fixed
loop just before each op and around each set-up (see README.md, Noise).

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracer.py``). The last line of standard
output is the result object, with the metrics that ``BENCHMARK.json``
lists; the line before it holds the details (every end-to-end metric,
environment, pool sizes, tail percentile, failures), which are also
written to ``perfbench/out/``. ``--smoke`` runs one op of every workload at
reduced size, traced and untraced, and checks the metric names and units
against ``BENCHMARK.json``. See ``perfbench/README.md``.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

POOL_SIZE = 48          # distinct inputs per run; ops cycle through them
SETUP_REPEATS = 7       # set-ups per untraced run, in fresh processes but one
TAIL_BEYOND = 10        # samples the tail percentile must leave beyond it
# Seconds that _reference_seconds() takes on the machine described in
# README.md, in its host's fast state. Bounded times are scaled to this
# host speed (see README.md, Noise).
REFERENCE_S = 0.02
# the keys of workloads.WORKLOADS, named here because importing that module
# imports numpy and scipy, which set-up has to time
WORKLOAD_NAMES = ("check2d", "check3d", "figure1", "fixtures")
# every end-to-end metric the untraced run reports, with its unit
REPORTED_UNITS = {
    "setup_s": "s",
    "latency_p50_ref_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_tops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "error_rate": "ratio",
}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def _import_program():
    """Import signeddec from this checkout's src/, never from elsewhere."""
    package = SRC / "signeddec"
    if not (package / "__init__.py").is_file():
        _fail(f"no signeddec package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import signeddec
    import signeddec.cli  # noqa: F401  (the ops' entry point)

    if Path(signeddec.__file__).resolve().parent != package.resolve():
        _fail(f"imported signeddec from {signeddec.__file__}, not {package}")


def _set_up(workload, seed, size, workdir):
    """Import signeddec and write the input pool; item 0 is the warm-up's."""
    start = time.perf_counter()
    _import_program()
    from workloads import WORKLOADS

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    items = WORKLOADS[workload].generate(seed, size, workdir, POOL_SIZE + 1)
    return time.perf_counter() - start, WORKLOADS[workload], items


def _child_set_up(args, index):
    """Set-up seconds measured in a fresh interpreter, and the reference
    seconds around it."""
    workdir = OUT / f"setup-{args.workload}-{args.seed}-{os.getpid()}-{index}"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--workdir", str(workdir),
    ]
    before = _set_up_reference()
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=30)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        _fail(f"set-up in a fresh process failed:\n{done.stderr}")
    seconds = json.loads(done.stdout.splitlines()[-1])["setup_s"]
    return seconds, (before + _set_up_reference()) / 2


def _reference_seconds():
    """Wall time of a fixed pure-Python loop. Untraced runs time it just
    before each op and each set-up, to scale their times to the host speed
    at which it takes REFERENCE_S (see README.md, Noise)."""
    start = time.perf_counter()
    total, counts = 0, {}
    for i in range(100_000):
        total += i * i % 7
        counts[i % 977] = counts.get(i % 977, 0) + 1
    return time.perf_counter() - start


def _set_up_reference():
    """Reference seconds for a set-up, which lasts many loops: the median
    of three loops, so that one disturbed loop does not scale it."""
    return statistics.median(_reference_seconds() for _ in range(3))


CliResult = namedtuple("CliResult", "code stdout stderr")


def _call_cli(argv):
    """Run ``signeddec.cli.main(argv)`` with its output captured. A raised
    exception gives code None, with the traceback in stderr."""
    cli = sys.modules["signeddec.cli"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc(file=err)
            code = None
    return CliResult(code, out.getvalue(), err.getvalue())


def _run_op(workload, item, opdir):
    """One timed op, then its output check. Returns (seconds, ok, why, facts)."""
    shutil.rmtree(opdir, ignore_errors=True)
    opdir.mkdir(parents=True)
    argvs = workload.commands(item, opdir)
    start = time.perf_counter()
    results = [_call_cli(argv) for argv in argvs]
    elapsed = time.perf_counter() - start
    broken = [(a, r) for a, r in zip(argvs, results) if r.code is None or r.code == 2]
    if broken:
        argv, result = broken[0]
        return elapsed, False, f"{' '.join(argv[:2])} exited {result.code}: {result.stderr[-500:]}", None
    try:
        ok, why, facts = workload.check(item, results, opdir)
    except Exception:  # a check that cannot read the output fails the op
        return elapsed, False, traceback.format_exc(limit=3), None
    return elapsed, ok, why, facts


def _tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile, samples beyond); the maximum when there are too
    few samples."""
    ordered = sorted(latencies)
    rank = len(ordered) - 1 - TAIL_BEYOND
    if rank < 0:
        return ordered[-1], 100.0, 0
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), TAIL_BEYOND


def _environment(args):
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = None
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "signeddec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    thread_vars = (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in thread_vars},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
    }


def _pool_counts(facts):
    """Min / median / max of each simplex count over the ops' meshes."""
    keys = sorted({k for f in facts for k in f["counts"]})
    summary = {}
    for key in keys:
        values = [f["counts"][key] for f in facts if key in f["counts"]]
        summary[key] = [min(values), statistics.median(values), max(values)]
    return summary


def _measure(args):
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"pool-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _measure_in(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_in(args, workdir):
    before = _set_up_reference()
    setup_seconds, workload, items = _set_up(args.workload, args.seed, args.size, workdir)
    setups = [(setup_seconds, (before + _set_up_reference()) / 2)]
    opdir = workdir / "op"

    from tracer import Tracer, unit_of

    attempted = failed = 0
    failures = []
    facts = []

    def op(item, tracer=None, index=0):
        nonlocal attempted, failed
        if tracer is not None:
            tracer.begin_op(index)
            tracer.install()
        try:
            elapsed, ok, why, fact = _run_op(workload, item, opdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        attempted += 1
        if ok:
            facts.append(fact)
        else:
            failed += 1
            if len(failures) < 5:
                name = {k: item[k] for k in ("mesh", "config", "seed") if k in item}
                failures.append(f"{name}: {why}")
        return elapsed, fact

    op(items[0])  # warm-up: lazy imports and first-touch costs, not counted
    attempted = failed = 0
    facts.clear()

    latencies = []
    references = []
    tops = 0
    tracer = Tracer() if args.trace else None
    layer_rows = []
    traced = []
    # An untraced run repeats set-up in fresh interpreters, spread evenly
    # over its measured interval so that, like its ops, the set-ups sample
    # the host's changing speed. Their time does not count towards --seconds.
    wanted = 1 if args.trace else SETUP_REPEATS
    spent = 0.0
    index = 0
    while index == 0 or spent < args.seconds:
        started = time.perf_counter()
        item = items[1 + index % POOL_SIZE]
        # a traced run pairs each untraced op with a traced op on the same
        # input, alternating which goes first
        if tracer is None:
            sides = (None,)
            reference = _reference_seconds()
        else:
            sides = (tracer, None) if index % 2 else (None, tracer)
        for side in sides:
            elapsed, fact = op(item, side, index)
            if side is None:
                latencies.append(elapsed)
                tops += fact["tops"] if fact else 0
                if tracer is None:
                    references.append(reference)
            else:
                traced.append(elapsed)
                layer_rows.append(side.op_metrics(elapsed))
        index += 1
        spent += time.perf_counter() - started
        if len(setups) < wanted and spent >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(_child_set_up(args, len(setups)))
    while len(setups) < wanted:
        setups.append(_child_set_up(args, len(setups)))

    details = {"environment": _environment(args), "ops": len(latencies)}
    if args.trace:
        untraced, traced_p50 = statistics.median(latencies), statistics.median(traced)
        metrics = {
            name: statistics.median(row[name] for row in layer_rows)
            for name in sorted(layer_rows[0])
        }
        # one more op with tracemalloc on inside signed_dual spans only, so
        # its slowdown stays out of the timed ops
        memory = Tracer(memory=True)
        op(items[1], memory)
        metrics["signed_dual.peak_alloc_mb"] = memory.peak_alloc / 2**20
        metrics["trace.op_s"] = traced_p50
        metrics["trace.untraced_op_s"] = untraced
        metrics["trace.overhead_s"] = traced_p50 - untraced
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.csv"
        tracer.write_spans(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        details["spans"] = len(tracer.spans)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        tail, percentile, beyond = _tail(latencies)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(s * REFERENCE_S / r for s, r in setups),
            "latency_p50_ref_s": statistics.median(
                e * REFERENCE_S / r for e, r in zip(latencies, references)
            ),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail,
            "throughput_tops_per_s": tops / sum(latencies),
            "peak_rss_mb": rss_kib / 1024,
            "error_rate": failed / attempted,
        }
        details["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit in REPORTED_UNITS.items()
        }
        # The result line carries only the metrics BENCHMARK.json bounds:
        # those that stay steady on a shared host (see README.md).
        metrics = {m["name"]: details["metrics"][m["name"]] for m in _spec()["end_to_end"]}
        details["setup_samples_s"] = [s for s, _ in setups]
        details["setup_reference_s"] = [r for _, r in setups]
        details["latency_tail"] = {
            "percentile": percentile, "samples": len(latencies), "samples_beyond": beyond,
        }
        details["latencies_s"] = latencies
        details["references_s"] = references
    details["error_rate"] = failed / attempted
    details["pool_simplex_counts"] = _pool_counts(facts)
    details["failures"] = failures
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details["result"] = result
    (OUT / f"result-{args.workload}-{args.seed}-trace{int(args.trace)}.json").write_text(
        json.dumps(details, indent=2) + "\n"
    )
    return details, result


def _smoke():
    """One op of every workload at reduced size, untraced and traced;
    checks metric names and units against BENCHMARK.json."""
    spec = _spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for name in names:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", "1", "--seconds", "0", "--trace", str(trace),
                "--size", "smoke",
            ]
            done = subprocess.run(command, capture_output=True, text=True, timeout=170)
            label = f"{name} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics {got} != {expected[trace]}")
            details = json.loads(done.stdout.splitlines()[-2])
            if trace == 0:
                reported = {k: v["unit"] for k, v in details["metrics"].items()}
                if reported != REPORTED_UNITS or details["metrics"]["error_rate"]["value"] != 0:
                    problems.append(f"{label}: details report {details['metrics']}")
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(
                    f"{label}: error rate {result['failed']}/{result['attempted']}: {details['failures']}"
                )
            print(f"{label}: {len(problems)} problems so far", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size; smoke is for the quick self-check")
    parser.add_argument("--smoke", action="store_true",
                        help="one op per workload at smoke size; checks names and units")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.smoke:
        return _smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        seconds, _, _ = _set_up(args.workload, args.seed, args.size, args.workdir)
        print(json.dumps({"setup_s": seconds}))
        return 0
    details, result = _measure(args)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
