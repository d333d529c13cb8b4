"""Benchmark of the nkoszul command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tower-qq --seed 1 --seconds 25 --trace 0

Each operation is one ``nkoszul.cli.main(argv)`` call made in this process
with its output captured.  A round runs every job of the workload once, one
at a time (a closed loop with a single client); rounds repeat until
``--seconds`` have passed.  A fixed speed probe runs before every job, and
every time is reported at the host's reference speed (see
``PROBE_REF_S``).  The outputs are then checked, and the last line
printed is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``spans.py`` with ``--trace 1``.

    python3 bench/run.py --write-reference

regenerates ``bench/reference/cli-demos.json`` from the current program.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".bench_work")

import workloads  # noqa: E402  (the benchmark's own modules sit beside this file)


def import_program():
    """Import nkoszul afresh from the checkout's src/ and return its modules."""
    src = str(ROOT / "src")
    if not (ROOT / "src" / "nkoszul" / "cli.py").is_file():
        raise SystemExit("error: no nkoszul sources under %s" % src)
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules
                 if m == "nkoszul" or m.startswith("nkoszul.")]:
        del sys.modules[name]
    lib = importlib.import_module("nkoszul")
    mods = {name: importlib.import_module("nkoszul." + name)
            for name in ("cli", "definitions", "linalg", "words", "reduction",
                         "sparsela", "algebra", "koszul", "fields")}
    mods["nkoszul"] = lib
    return lib, mods


class Program:
    """Calls into the imported CLI, one job at a time, output captured."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:     # argparse refusing the arguments
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:      # a crash counts as a failed job
                err.write("%s: %s\n" % (type(exc).__name__, exc))
                rc = -1
        self.last_stderr = err.getvalue()
        return rc, out.getvalue()


def setup(workload, seed):
    """Import the program and write the workload's inputs; returns the parts."""
    lib, mods = import_program()
    program = Program(mods["cli"])
    work = WORK / workload.name
    jobs, ctx = workload.prepare(seed, work, program.run)
    return lib, mods, program, jobs, ctx


# The probe's median time on the reference machine of README.md, in a fast
# phase of the host.  Times are multiplied by PROBE_REF_S / (mean probe time
# of their round), so they read as on that machine at that speed.
PROBE_REF_S = 0.0026


def probe():
    """Fixed pure-Python work (integers, a dict, Fractions) that calls no
    program code; its time follows the host's current speed."""
    table = {}
    acc = Fraction(1, 3)
    for i in range(500):
        table[i % 97] = table.get(i % 97, 0) + i * i
        acc = acc * Fraction(i % 7 + 1, i % 5 + 2) + 1
        acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 + 1)
    return acc, table


def timed_probe():
    gc.disable()   # a large heap left by the program must not slow the probe
    try:
        t0 = time.perf_counter()
        probe()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_round(program, jobs, outputs, job_times, failures, recorder=None):
    """Run every job once, a probe before each; returns the round's time
    (the sum of its job times) and its scale factor."""
    times, probes = [], []
    for index, job in enumerate(jobs):
        probes.append(timed_probe())
        if recorder is not None:
            recorder.start_job(index)
        t0 = time.perf_counter()
        rc, out = program.run(job.argv)
        times.append(time.perf_counter() - t0)
        if recorder is not None:
            recorder.end_job()
        if rc != 0:
            failures.append("%s: exit %s: %s" % (job.key, rc,
                                                 program.last_stderr.strip()))
        elif outputs.setdefault(job.key, out) != out:
            outputs[job.key] = None   # nondeterministic output fails the check
    scale = PROBE_REF_S / statistics.fmean(probes)
    job_times.extend(t * scale for t in times)
    return sum(times) * scale, scale


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference/cli-demos.json and exit")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    os.chdir(ROOT)

    if args.write_reference:
        return write_reference()

    workload = workloads.WORKLOADS[args.workload]
    setup(workload, args.seed)   # warm-up: compiles src/ in a fresh checkout
    for _ in range(20):   # and warms the probe up
        timed_probe()
    setup_times, outputs, failures = [], {}, []
    raw_rounds = []
    base_rounds, rounds, job_times = [], [], []
    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
    # Every round starts from a fresh import and freshly written inputs, so
    # the set-up samples spread over the run like the rounds do.
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        lib, mods, program, jobs, ctx = setup(workload, args.seed)
        setup_s = time.perf_counter() - t0
        if recorder is None:
            round_s, scale = run_round(program, jobs, outputs, job_times,
                                       failures)
            rounds.append(round_s)
        elif len(base_rounds) <= len(rounds):
            # untraced and traced rounds alternate, so both see the same machine
            round_s, scale = run_round(program, jobs, outputs, [], failures)
            base_rounds.append(round_s)
        else:
            recorder.install(mods)
            try:
                round_s, scale = run_round(program, jobs, outputs, [],
                                           failures, recorder)
                rounds.append(round_s)
            finally:
                recorder.uninstall()
        setup_times.append(setup_s * scale)   # the round's probes follow it
        raw_rounds.append(round_s / scale)

    if recorder is None:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.fmean(rounds), "s"),
            "job_p50_ms": (statistics.median(job_times) * 1000, "ms"),
            "peak_rss_mib": (peak_kib / 1024, "MiB"),
        }
    else:
        recorder.dump(WORK / ("trace-%s-seed%d.jsonl"
                              % (workload.name, args.seed)))
        metrics = recorder.metrics(len(rounds))
        metrics["trace.overhead_s"] = (
            statistics.fmean(rounds) - statistics.fmean(base_rounds), "s")
    attempted = len(jobs) * (len(base_rounds) + len(rounds))

    errors = ["%s: output differs between rounds" % key
              for key, out in outputs.items() if out is None]
    if not failures and not errors:
        try:
            errors = workload.check(ctx, outputs, program.run, lib)
        except Exception as exc:  # a malformed report fails the check
            errors = ["check raised %s: %s" % (type(exc).__name__, exc)]
    for line in failures + errors:
        print("check: " + line, file=sys.stderr)
    failed = len(failures)
    print("workload %s seed %d: %d rounds of %d jobs"
          % (workload.name, args.seed, attempted // len(jobs), len(jobs)))
    print("  round times, unscaled (s): "
          + " ".join("%.3f" % r for r in raw_rounds))
    print("  host slowdown against the reference speed: %.3f"
          % (statistics.fmean(raw_rounds)
             / statistics.fmean(rounds + base_rounds)))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-26s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_reference():
    workload = workloads.WORKLOADS["cli-demos"]
    lib, mods, program, jobs, ctx = setup(workload, 0)
    outputs, failures = {}, []
    run_round(program, jobs, outputs, [], failures)
    if failures:
        raise SystemExit("\n".join(failures))
    path = workloads.REFERENCE
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(workload.reference(outputs), indent=1,
                               sort_keys=True) + "\n")
    print("wrote %s (%d reports)" % (path.relative_to(ROOT), len(
        workload.reference(outputs))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
