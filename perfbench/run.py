"""strassen-lab benchmark: one workload per run, or all of them in turn.

    python3 perfbench/run.py --workload binary-tails --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  The program is imported from ./src, never
from an installed copy.  A run repeats rounds of the workload's fixed calls
(the workload's ROUNDS, more while --seconds allow), then checks every
output and prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run makes one untraced and one
traced pass and reports the per-layer metrics, writing the spans under
perfbench/out/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stdout
from pathlib import Path

# One BLAS thread, set before numpy loads, here and in every process started
# from here: the work then runs on one thread, and no OpenBLAS worker
# threads (one per core by default) compete for the cores or add to the
# CPU time measured.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("binary-tails", "lattice-dense", "rate-solvers", "cli-startup")
SETUP_REPEATS = 3
STALL_TEXT = "stalled at the decision boundary"


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _fresh_python(code: str) -> float:
    """CPU seconds of a fresh interpreter running code with ./src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    c0 = _children_cpu()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                   check=True, timeout=120)
    return _children_cpu() - c0


def setup_seconds(gauge=None) -> float:
    """Median CPU seconds of ``import strassen_lab`` in a fresh interpreter.

    With a gauge, it is sampled before each import and after the last.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        if gauge is not None:
            gauge.sample()
        times.append(_fresh_python("import strassen_lab"))
    if gauge is not None:
        gauge.sample()
    return statistics.median(times)


def clear_program_caches() -> None:
    """Empty every lru_cache in strassen_lab, so each round starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "strassen_lab" or name.startswith("strassen_lab."):
            for val in list(vars(mod).values()):
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


def make_workload(name: str, seed: int):
    import workloads as wl
    if name == "binary-tails":
        return wl.BinaryTails(seed)
    if name == "lattice-dense":
        return wl.LatticeDense(seed)
    if name == "rate-solvers":
        return wl.RateSolvers(seed)
    return wl.CliStartup(seed, ROOT, OUT)


def run_pass(ops, tracer=None, cpu=time.process_time, gauge=None):
    """Run ops in order, each as one top-level call.

    Returns one (op, result or None, wall s, CPU s, error or None) per op.
    A gauge is sampled between calls, whenever one is due.
    """
    done = []
    for op in ops:
        if gauge is not None and gauge.due():
            gauge.sample()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always" if tracer else "ignore")
            c0, t0 = cpu(), time.perf_counter()
            try:
                if tracer is None:
                    result = op.fn(*op.args, **op.kwargs)
                else:
                    result = tracer.top(op.kind, op.name, op.fn, *op.args,
                                        **op.kwargs)
                err = None
            except Exception as exc:  # a raising call is a failed operation
                result, err = None, f"{type(exc).__name__}: {exc}"
            wall, used = time.perf_counter() - t0, cpu() - c0
            stalls = sum(STALL_TEXT in str(w.message) for w in caught)
        if tracer is not None:
            if stalls:
                tracer.count(op.kind, "ldp.stalls", stalls)
            if op.name == "lattice.gn_tails" and tracer.last_nested is not None:
                from strassen_lab.transport import ADMISS_EPS
                adm = tracer.last_nested.inner_cost <= op.meta["alpha"] + ADMISS_EPS
                tracer.count(op.kind, "lattice.admissible_cells", int(adm.sum()))
                tracer.last_nested = None
        done.append((op, result, wall, used, err))
        if gauge is not None:
            gauge.add_work(used)
    return done


def check_passes(workload, passes):
    """(failed op count, cross-check errors, per-op error lines)."""
    failed, lines, ok = 0, [], []
    for done in passes:
        ok.append([])
        for op, result, _, _, err in done:
            if err is None and op.check is not None:
                err = op.check(result)
            if err is None:
                ok[-1].append((op, result))
            else:
                failed += 1
                lines.append(f"{op.kind} {op.meta.get('cmd', '')}: {err}")
    return failed, workload.cross_checks(ok), lines


def kind_seconds(done) -> dict:
    """Wall seconds per kind of call: summed, or for CLI calls the median."""
    out = {}
    for op, _, wall, _, _ in done:
        out.setdefault(op.kind, []).append(wall)
    res = {f"{k}_s": sum(v) for k, v in out.items() if k != "cli_call"}
    if "cli_call" in out:
        res["cli_call_s"] = statistics.median(out["cli_call"])
    return res


def peak_rss_mb(workload_name: str) -> float:
    who = (resource.RUSAGE_CHILDREN if workload_name == "cli-startup"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(name, workload, seconds):
    """Rounds of the same calls; the end-to-end metrics, and raw figures."""
    from gauge import REFERENCE_S, Gauge
    setup_gauge, gauge = Gauge(), Gauge()
    setup = setup_seconds(setup_gauge)
    import strassen_lab  # noqa: F401  (imported before any round is timed)
    # CPU time of the process doing the work: this one, or the CLI
    # processes it starts.
    cpu = _children_cpu if name == "cli-startup" else time.process_time
    passes, round_wall, scaled = [], [], []
    t_start = time.perf_counter()
    while True:
        clear_program_caches()
        first = len(gauge.samples)
        gauge.sample()
        t0 = time.perf_counter()
        done = run_pass(workload.ops(), cpu=cpu, gauge=gauge)
        round_wall.append(time.perf_counter() - t0)
        passes.append(done)
        # Each round against the gauge samples taken during it, so that
        # the host's swings within the run cancel too.
        scaled.append(sum(d[3] for d in done) * REFERENCE_S
                      / statistics.fmean(gauge.samples[first:]))
        elapsed = time.perf_counter() - t_start
        if (len(passes) >= workload.ROUNDS
                and elapsed + statistics.median(round_wall) > seconds):
            break
    rss = peak_rss_mb(name)
    # The median round, not each call's fastest time: that rests on the
    # luckiest moment of a run and spread twice as much between runs.
    round_cpu = statistics.median(sum(d[3] for d in done) for done in passes)
    metrics = {
        "setup_s": (setup * setup_gauge.scale(), "s"),
        "peak_rss_mb": (rss, "MB"),
        "round_norm_s": (statistics.median(scaled), "s"),
    }
    raw = {
        "setup_cpu_s": (setup, "s"),
        "round_cpu_s": (round_cpu, "s"),
        "gauge_s": (gauge.median(), "s"),
        "gauge_samples": (len(gauge.samples), "count"),
    }
    return passes, metrics, raw


def run_traced(name, workload):
    """One untraced and one traced pass; the per-layer metrics."""
    from spans import Tracer, install, per_layer_names
    import strassen_lab  # noqa: F401
    units = dict(per_layer_names())
    metrics = dict.fromkeys(units, 0.0)
    ops = workload.ops()
    clear_program_caches()
    t0 = time.perf_counter()
    plain = run_pass(ops)
    plain_s = time.perf_counter() - t0
    metrics.update(kind_seconds(plain))
    passes, cross = [plain], []
    tracer = Tracer()
    if name == "cli-startup":
        metrics["cli.python_s"] = statistics.median(
            _fresh_python("pass") for _ in range(SETUP_REPEATS))
        metrics["cli.import_s"] = setup_seconds()
        cli_in_process(ops)  # warm-up: lazy imports and first-call costs
        untraced = cli_in_process(ops)
        restore = install(tracer)
        try:
            traced = cli_in_process(ops, tracer)
        finally:
            restore()
        overhead = sum(d[3] for d in traced) - sum(d[3] for d in untraced)
        by_argv = {tuple(op.meta["argv"]): res.stdout
                   for op, res, _, _, err in plain if err is None}
        for op, code, text, _ in traced:
            want = by_argv.get(tuple(op.meta["argv"]))
            if code != 0 or (want is not None and text.encode() != want):
                cross.append(f"{op.meta['cmd']}: in-process output differs "
                             "from the CLI process")
    else:
        clear_program_caches()
        restore = install(tracer)
        try:
            t1 = time.perf_counter()
            passes.append(run_pass(ops, tracer))
            overhead = time.perf_counter() - t1 - plain_s
        finally:
            restore()
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_s"] = overhead
    metrics["trace.spans"] = len(tracer.spans)
    tracer.write(OUT / f"spans-{name}-{workload.seed}.csv")
    return passes, {m: (v, units[m]) for m, v in metrics.items()}, cross


def cli_in_process(ops, tracer=None):
    """Run each CLI command through cli.main in this process."""
    from strassen_lab import cli
    done = []
    for op in ops:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            if tracer is None:
                code = cli.main(op.meta["argv"])
            else:
                code = tracer.top("cli_main", "cli.main", cli.main,
                                  op.meta["argv"])
        done.append((op, code, buf.getvalue(), time.perf_counter() - t0))
    return done


def run_one(args) -> int:
    if not (ROOT / "src" / "strassen_lab" / "__init__.py").is_file():
        print(f"error: no strassen_lab sources under {ROOT / 'src'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed)
    if args.trace:
        passes, metrics, cross = run_traced(args.workload, workload)
    else:
        passes, metrics, raw = run_untraced(args.workload, workload,
                                            args.seconds)
        cross = []
    failed, errs, lines = check_passes(workload, passes)
    cross += errs
    attempted = sum(len(done) for done in passes)
    for line in lines:
        print(f"FAILED {line}", file=sys.stderr)
    for err in cross:
        print(f"WRONG {err}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={attempted} failed={failed} correct={not cross}")
    if not args.trace:
        for key, val in sorted(kind_seconds(passes[0]).items()):
            print(f"#   {key} = {val:.4f} s wall (first round)")
        for label, col in (("wall", 2), ("CPU", 3)):
            print(f"#   round {label} s = " + " ".join(
                f"{sum(d[col] for d in done):.4f}" for done in passes))
        for key, (val, unit) in raw.items():
            print(f"#   {key} = {val:.6g} {unit}")
    for key, (val, unit) in metrics.items():
        print(f"#   {key} = {val:.6g} {unit}")
    print(json.dumps({
        "correct": not cross,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
