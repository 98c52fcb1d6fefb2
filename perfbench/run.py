"""helmgreen CLI benchmark: certificate wall time, set-up time and memory per
workload, and per-module self times and work counters from a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload causal_contour|kk_sweep|operator_sweep|all
                             --seed N --seconds S --trace 0|1

A closed loop with one client: each CLI command runs in a fresh interpreter
(``python3 -c "from helmgreen.cli import main; ..."``, as the installed
``helmgreen`` script does), and the next starts when the previous exits.
Inputs are generated from the seed by ``workloads.py``.

``--trace 0`` times ``import helmgreen.cli`` in fresh interpreters
(``setup_s``, the median), then repeats the workload's commands until
``--seconds`` have passed, at least twice, and reports the end-to-end
metrics. ``wall_s`` is the sum over the workload's commands of each
command's fastest child (best of n passes); the median and the slowest
pass wall and the pass count are printed beside it and kept in
``result.json``.
``--trace 1`` runs the workload twice under ``trace_child.py``, which
wraps each module's public functions in-process, with one untraced pass
in between, and reports the per-layer metrics.

Every CLI output is checked: exit code 0 or 1 matching the ``pass``
column, the exact CSV header, the row count the config asks for, the same
bytes on every untraced pass and the same bytes under tracing. In trace
mode the work counters must repeat exactly across the two traced passes.
A failed check is printed by name, counts the child as failed and makes
the run exit 1. Certificate rows that report FAIL are results, not failed
checks: they lower ``rows_passed_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (CLI children run), ``failed`` (children that
failed a check) and ``metrics``; the metric names and units are those
listed in ``BENCHMARK.json``. Generated inputs, CSVs, traced spans and a
``result.json`` with provenance are left under ``.bench_work/``.
"""

import argparse
import csv
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
CSV_HEADER = "check_id,param_json,measured,bound,tolerance,pass,error_estimate"
COMMANDS = ("kk_eps", "green", "modes", "causality", "analyticity", "asymptotic")
LAYERS = ("cli", "dispersion", "transforms", "helmholtz", "kernels", "spectral", "freespace")
# The counters that must repeat exactly across two traced passes of one seed,
# on top of every call count.
EXACT_COUNTERS = (
    "dispersion.sigma_eval.calls",
    "kernels.tridiag_solve_batch.unknowns",
    "transforms.laplace_invert.nodes",
    "helmholtz.inverse_norm.calls",
    "freespace.quad_nodes",
)
# Checks whose measured figure is better when larger; for the rest the
# largest value is the worst.
HIGHER_IS_BETTER = {"passivity_sweep", "asymptotic_monotone", "analyticity_conj_witness"}
# One BLAS thread keeps the single-client loop steady on a shared machine.
BLAS_THREADS = 1
SETUP_REPEATS = 5
DEADLINE_S = 170.0
RUN = "import sys; from helmgreen.cli import main; sys.exit(main())"
PROBE = ("import json, platform, numpy, scipy, helmgreen, helmgreen.cli; "
         "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__, "
         "'scipy': scipy.__version__, 'helmgreen': helmgreen.__version__, "
         "'backend': helmgreen.BACKEND}))")


@dataclass
class Child:
    command: str
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    csv_path: Path
    summary: dict = None


class Run:
    """One benchmark run of one workload: children, checks and deadline."""

    def __init__(self, workload, seed, work):
        self.workload, self.seed, self.work = workload, seed, work
        self.started = time.perf_counter()
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def spawn(self, argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        """Run one child to completion; return (exit code, wall s, rusage)."""
        limit = max(1.0, self.remaining())
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=stdout, stderr=stderr)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): leave no child behind.
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.started)

    def provenance(self):
        out = self.work / "provenance.out"
        with open(out, "w") as fh:
            rc, _, _ = self.spawn([sys.executable, "-c", PROBE], stdout=fh)
        if rc != 0:
            raise SystemExit(f"error: cannot import helmgreen from {ROOT / 'src'}")
        info = json.loads(out.read_text())
        info.update(nproc=os.cpu_count(), blas_threads=BLAS_THREADS, seed=self.seed,
                    workload=self.workload)
        return info

    def setup_times(self):
        return [self.spawn([sys.executable, "-c", "import helmgreen.cli"])[1]
                for _ in range(SETUP_REPEATS)]

    def run_pass(self, jobs, label, traced=False):
        """Run every job once, one child at a time; return (wall s, children)."""
        pass_dir = self.work / label
        pass_dir.mkdir()
        children = []
        start = time.perf_counter()
        for job in jobs:
            out = pass_dir / f"{job.command}.csv"
            cli_args = [job.command, "--config", job.config, "--out", str(out),
                        "--seed", str(self.seed)]
            if traced:
                summary = pass_dir / f"{job.command}.trace.json"
                argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(summary)] + cli_args
            else:
                argv = [sys.executable, "-c", RUN] + cli_args
            with open(pass_dir / f"{job.command}.stderr", "w") as err:
                rc, wall, usage = self.spawn(argv, stderr=err)
            child = Child(job.command, rc, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0, out)
            if traced and summary.exists():
                child.summary = json.loads(summary.read_text())
            children.append(child)
        return time.perf_counter() - start, children

    def check_pass(self, label, jobs, children, reference=None, traced=False):
        """Apply the output checks to one pass; return the rows that passed."""
        passed = 0
        for job, child in zip(jobs, children):
            self.attempted += 1
            where = f"{self.workload}/{label}/{job.command}"
            problems = _check_child(job, child)
            if reference is not None and not problems:
                ours, refs = _outputs(child.csv_path), _outputs(reference[job.command])
                if len(ours) != len(refs):
                    problems.append("Green-matrix sidecar missing or unexpected")
                for path, ref in zip(ours, refs):
                    if path.read_bytes() != ref.read_bytes():
                        problems.append(f"{path.name} differs from the first untraced pass")
            if traced and child.summary is None:
                problems.append("trace summary missing")
            if problems:
                self.failed += 1
                self.problems += [f"{where}: {p}" for p in problems]
            else:
                passed += sum(row["pass"] == "true" for row in _rows(child.csv_path))
        return passed


def _outputs(csv_path):
    """The report and, for green, its Green-matrix sidecar."""
    side = csv_path.with_name(csv_path.name + ".green.csv")
    return [csv_path, side] if side.exists() else [csv_path]


def _rows(csv_path):
    return list(csv.DictReader(io.StringIO(csv_path.read_text())))


def _check_child(job, child):
    if child.rc not in (0, 1):
        return [f"exit code {child.rc}"]
    if not child.csv_path.exists():
        return ["no CSV written"]
    text = child.csv_path.read_text()
    if text.split("\n", 1)[0] != CSV_HEADER:
        return ["wrong CSV header"]
    rows = _rows(child.csv_path)
    problems = []
    if len(rows) != job.expected_rows:
        problems.append(f"{len(rows)} rows, config asks for {job.expected_rows}")
    verdicts = {row["pass"] for row in rows}
    if not verdicts <= {"true", "false"}:
        problems.append(f"pass column holds {sorted(verdicts - {'true', 'false'})}")
    if child.rc != (0 if verdicts <= {"true"} else 1):
        problems.append(f"exit code {child.rc} does not match the pass column")
    return problems


def _figures(children):
    """Worst measured value and worst error estimate per check id."""
    out = {}
    for child in children:
        for row in _rows(child.csv_path):
            check = row["check_id"]
            measured, estimate = float(row["measured"]), float(row["error_estimate"])
            worst = min if check in HIGHER_IS_BETTER else max
            key_m, key_e = f"cli.figure.{check}", f"cli.estimate.{check}"
            out[key_m] = worst(out.get(key_m, measured), measured)
            out[key_e] = max(out.get(key_e, estimate), estimate)
    return out


def _trace_totals(children):
    functions, counters, errors, unattributed = {}, {}, dict.fromkeys(LAYERS, 0), 0.0
    for child in children:
        s = child.summary
        for name, stats in s["functions"].items():
            entry = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += stats["calls"]
            entry["self_s"] += stats["self_s"]
        for name, value in s["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for layer, value in s["errors"].items():
            errors[layer] += value
        unattributed += child.wall_s - s["root_s"]
    return functions, counters, errors, unattributed


def measure(run, jobs, seconds):
    """Untraced run: set-up times, then passes until `seconds` have elapsed."""
    setup = run.setup_times()
    walls, peak, passed, expected = [], 0.0, 0, 0
    command_walls = {job.command: [] for job in jobs}
    reference = None
    start = time.perf_counter()
    # Stop before a pass that would end past `seconds`, but run at least two.
    while len(walls) < 2 or time.perf_counter() - start + statistics.mean(walls) <= seconds:
        if walls and run.remaining() < 1.5 * max(walls):
            break
        wall, children = run.run_pass(jobs, f"pass{len(walls)}")
        passed += run.check_pass(f"pass{len(walls)}", jobs, children, reference)
        expected += sum(job.expected_rows for job in jobs)
        reference = reference or {c.command: c.csv_path for c in children}
        walls.append(wall)
        for child in children:
            command_walls[child.command].append(child.wall_s)
        peak = max([peak] + [c.rss_mb for c in children])
    if len(walls) < 2:
        run.problems.append(f"{run.workload}: only one pass fitted in the time limit")
    # Other tenants of a shared host only ever add time, in bursts of a few
    # seconds that a 4-10 s child cannot average out; the fastest run of each
    # command is the figure that repeats (best of n, as timeit reports).
    metrics = {
        "wall_s": sum(min(w) for w in command_walls.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
        "rows_passed_frac": passed / expected,
    }
    return metrics, {"passes": len(walls), "pass_wall_s": walls,
                     "pass_wall_median_s": statistics.median(walls),
                     "pass_wall_max_s": max(walls),
                     "command_wall_s": command_walls, "setup_s": setup}


def measure_traced(run, jobs):
    """Two traced passes around one untraced pass; per-layer metrics."""
    traced = [run.run_pass(jobs, "traced0", traced=True)]
    wall0, plain = run.run_pass(jobs, "pass0")
    traced.append(run.run_pass(jobs, "traced1", traced=True))
    run.check_pass("pass0", jobs, plain)
    reference = {c.command: c.csv_path for c in plain}
    for k, (_, children) in enumerate(traced):
        run.check_pass(f"traced{k}", jobs, children, reference, traced=True)
    if any(c.summary is None for _, cs in traced for c in cs):
        return None, {}
    totals = [_trace_totals(children) for _, children in traced]
    (fn0, cnt0, err0, _), (fn1, cnt1, _, _) = totals
    for name in sorted(set(cnt0) | set(cnt1) | set(EXACT_COUNTERS)):
        if cnt0.get(name) != cnt1.get(name):
            run.problems.append(f"{run.workload}: counter {name} differs between traced "
                                f"passes: {cnt0.get(name)} vs {cnt1.get(name)}")
    for name in sorted(set(fn0) | set(fn1)):
        if fn0.get(name, {}).get("calls") != fn1.get(name, {}).get("calls"):
            run.problems.append(f"{run.workload}: {name}.calls differs between traced passes")

    def median_self(name):
        return statistics.median(t[0].get(name, {}).get("self_s", 0.0) for t in totals)

    metrics = {}
    for name in set(fn0) | set(fn1):
        metrics[f"{name}.self_s"] = median_self(name)
        metrics[f"{name}.calls"] = fn0.get(name, {}).get("calls", 0)
    metrics.update(cnt0)
    metrics.update({f"{layer}.errors": n for layer, n in err0.items()})
    metrics["cli.self_s"] = sum(median_self(n) for n in set(fn0) if n.startswith("cli."))
    metrics["cli.rows"] = sum(len(_rows(c.csv_path)) for c in traced[0][1])
    metrics["cli.cpu_s"] = sum(c.cpu_s for c in plain)
    for command in COMMANDS:
        metrics[f"cli.cmd.{command}.wall_s"] = sum(c.wall_s for c in plain if c.command == command)
    metrics.update(_figures(plain))
    metrics["trace.overhead_s"] = statistics.median(w for w, _ in traced) - wall0
    metrics["trace.unattributed_s"] = statistics.median(t[3] for t in totals)
    wrapped = {name for c in traced[0][1] for name in c.summary["wrapped"]}
    return metrics, {"wrapped": sorted(wrapped), "untraced_wall_s": wall0,
                     "traced_wall_s": [w for w, _ in traced]}


def select(metrics, spec, wrapped):
    """The metrics BENCHMARK.json lists, in its order, with their units.

    A layer that did not run in this workload reads 0; a name that matches
    no wrapped function, counter or computed metric is an error.
    """
    out = {}
    for entry in spec:
        name = entry["name"]
        if name in metrics:
            value = metrics[name]
        elif (name.startswith(("cli.figure.", "cli.estimate.", "cli.cmd."))
              or name.rsplit(".", 1)[0] in wrapped or name == "freespace.quad_nodes"):
            value = 0
        else:
            raise SystemExit(f"error: metric {name!r} is not produced by the benchmark")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def run_workload(workload, seed, seconds, trace, spec):
    work = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, work)
    info = run.provenance()
    jobs = workloads.generate(workload, seed, work)
    if trace:
        metrics, detail = measure_traced(run, jobs)
        wrapped = set(detail.get("wrapped", ()))
        selected = select(metrics, spec["per_layer"], wrapped) if metrics is not None else {}
    else:
        metrics, detail = measure(run, jobs, seconds)
        selected = select(metrics, spec["end_to_end"], set())
    info.update(detail, seconds=seconds, trace=trace, problems=run.problems)
    (work / "result.json").write_text(json.dumps(
        {"provenance": info, "metrics": selected, "all_metrics": metrics}, indent=1))
    print("provenance: " + json.dumps({k: info[k] for k in (
        "workload", "seed", "python", "numpy", "scipy", "helmgreen", "backend",
        "nproc", "blas_threads")}))
    for name, m in selected.items():
        print(f"{workload:>15} {name:<52} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        print(f"{workload:>15} {'(pass wall: median, max, passes)':<52} "
              f"{detail['pass_wall_median_s']:>14.6g} s {detail['pass_wall_max_s']:.6g} s "
              f"{detail['passes']}")
    for problem in run.problems:
        print(f"output check failed: {problem}", file=sys.stderr)
    return run, selected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "helmgreen" / "cli.py").is_file():
        print(f"error: helmgreen sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        run, selected = run_workload(workload, args.seed, args.seconds, args.trace, spec)
        correct = correct and not run.problems and bool(selected)
        attempted += run.attempted
        failed += run.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in selected.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
