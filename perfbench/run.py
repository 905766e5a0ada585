"""Benchmark for the kakeyalab CLI: wall time of whole subcommands.

Runs one workload in this process through kakeyalab.cli.main.dispatch,
the entry point the `kakeyalab` command reaches, with
KAKEYA_LAB_THREADS unset (one thread).  Every input is generated here
from --seed and every step's output is checked.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload exact-tree --seed 1 --seconds 30 --trace 0

--trace 0 times untraced passes, as many as fit in --seconds (at least
one), and reports end-to-end metrics.  --trace 1 runs one untraced and
two traced passes and reports per-layer metrics from the first traced
one; see perfbench/README.md for the metric list.
"""

import argparse
import contextlib
import hashlib
import importlib
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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import COUNT_UNITS, METRIC_UNITS, layer_metrics, targets
from tracer import Tracer, cli_module, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
END_TO_END = ("wall_s", "setup_s", "peak_rss_mib")
SETUP_REPEATS = 3
TRACED_PASSES = 2
# Slack for float rounding when self times are summed back to a step.
SELF_TIME_TOLERANCE_S = 1e-6


@dataclass
class PassResult:
    times: dict = field(default_factory=dict)       # step metric -> s
    problems: dict = field(default_factory=dict)    # step metric -> [str]
    artifacts: dict = field(default_factory=dict)   # step/file -> sha256
    bytes_out: int = 0

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def load_cli():
    """Put this checkout's src/ first on the path and import the CLI."""
    src = ROOT / "src"
    if not (src / "kakeyalab" / "__init__.py").is_file():
        raise SystemExit(f"no kakeyalab sources under {src}")
    os.environ.pop("KAKEYA_LAB_THREADS", None)
    sys.path.insert(0, str(src))
    return cli_module()


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    q = importlib.import_module("kakeyalab.exactgeom.scalar")._Q
    return {
        "rational_backend": f"{q.__module__}.{q.__qualname__}",
        "threads": importlib.import_module("kakeyalab.parallel").thread_count(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
    }


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_pass(cli, workload, inputs: dict, where: Path, seed: int, tracer=None) -> PassResult:
    """Run every step once; time each dispatch call, then check it."""
    res = PassResult()
    for step in workload.steps:
        out = where / step.metric
        out.mkdir(parents=True)
        argv = step.argv(inputs, out, seed)
        captured = io.StringIO()
        problems = []
        if tracer is not None:
            tracer.step = step.metric
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            started = time.perf_counter()
            try:
                code = cli.dispatch(argv)
            except Exception:  # a crash is a failed step, not a dead run
                code = None
                problems.append(traceback.format_exc())
            res.times[step.metric] = time.perf_counter() - started
        if code not in (0, None):
            problems.append(f"exit code {code}: {captured.getvalue()[-400:]}")
        if not problems:
            try:
                problems += step.check(inputs, out, captured.getvalue())
            except Exception:  # unreadable output is wrong output
                problems.append(traceback.format_exc())
        for path in sorted(out.iterdir()):
            if not path.name.endswith(".manifest.json"):  # holds wall time
                res.artifacts[f"{step.metric}/{path.name}"] = _sha256(path)
                res.bytes_out += path.stat().st_size
        if problems:
            res.problems[step.metric] = problems
    return res


def import_time() -> float:
    """Wall time for a fresh interpreter to start and import the CLI."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import kakeyalab.cli.main"
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - started


def set_up(cli, workload, run_dir: Path, seed: int, repeats: int) -> tuple[dict, float]:
    """Set-up time, as the median of `repeats` fresh-interpreter imports
    plus the median of `repeats` input generations; returns the first
    copy of the inputs with it."""
    imports = statistics.median(import_time() for _ in range(repeats))
    times = []
    inputs = None
    for k in range(repeats):
        where = run_dir / f"inputs{k}"
        where.mkdir(parents=True)
        with contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            made = workload.setup(cli, where, seed)
            times.append(time.perf_counter() - started)
        if inputs is None:
            inputs = made
        else:
            shutil.rmtree(where)
    return inputs, imports + statistics.median(times)


def untraced(cli, workload, inputs, run_dir, args) -> tuple[list[PassResult], dict]:
    passes = []
    began = time.perf_counter()
    while True:
        where = run_dir / f"pass{len(passes)}"
        passes.append(run_pass(cli, workload, inputs, where, args.seed))
        shutil.rmtree(where)
        spent = time.perf_counter() - began
        if spent + spent / len(passes) > args.seconds:
            break
    metrics = {step.metric: (statistics.median(p.times[step.metric] for p in passes), "s")
               for step in workload.steps}
    metrics["wall_s"] = (statistics.median(p.wall for p in passes), "s")
    return passes, metrics


def check_traced(workload, base: PassResult, runs) -> None:
    """Record integrity problems of traced passes against `base`, the
    untraced pass: artifacts must match byte for byte, each step's self
    times must add up to its root span, and per-layer counts must repeat
    exactly from one traced pass to the next."""
    previous = None
    for tracer, res in runs:
        selfs = self_times(tracer.spans)
        counts = {}
        for step in workload.steps:
            problems = []
            prefix = step.metric + "/"
            mine = {n: h for n, h in res.artifacts.items() if n.startswith(prefix)}
            if mine != {n: h for n, h in base.artifacts.items() if n.startswith(prefix)}:
                problems.append("traced artifacts differ from the untraced pass")
            spans = [(s, t) for s, t in zip(tracer.spans, selfs) if s.step == step.metric]
            roots = [s for s, _ in spans if s.parent is None]
            if [s.name for s in roots] != ["cli.dispatch"]:
                problems.append(f"root spans {[s.name for s in roots]}, not one dispatch")
            elif abs(sum(t for _, t in spans) - roots[0].duration) > SELF_TIME_TOLERANCE_S:
                problems.append("self times do not add up to the step's traced wall time")
            counts[step.metric] = {
                m: v for m, v in layer_metrics(tracer.spans, 0, step.metric).items()
                if METRIC_UNITS[m] in COUNT_UNITS}
            if previous is not None and counts[step.metric] != previous[step.metric]:
                problems.append("per-layer counts differ between traced passes")
            if problems:
                res.problems.setdefault(step.metric, []).extend(problems)
        previous = counts


def traced(cli, workload, inputs, run_dir, args) -> tuple[list[PassResult], dict, list]:
    """One untraced pass, then TRACED_PASSES traced ones."""
    base = run_pass(cli, workload, inputs, run_dir / "untraced", args.seed)
    runs = []
    for k in range(TRACED_PASSES):
        tracer = Tracer()
        with tracer.installed(targets()):
            res = run_pass(cli, workload, inputs, run_dir / f"traced{k}", args.seed, tracer)
        runs.append((tracer, res))
    check_traced(workload, base, runs)

    tracer, first = runs[0]
    metrics = {m: (v, METRIC_UNITS[m])
               for m, v in layer_metrics(tracer.spans, first.bytes_out).items()}
    metrics["trace.overhead_s"] = (first.wall - base.wall, "s")
    for w in WORKLOADS.values():
        for step in w.steps:
            metrics[f"step.{step.metric}"] = (base.times.get(step.metric, 0.0), "s")
    spans = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
              "step": s.step, "counts": s.counts} for s in tracer.spans]
    return [base] + [res for _, res in runs], metrics, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    workload = WORKLOADS[args.workload]
    env = environment()
    run_dir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        # the traced run does not report set-up, so it sets up once
        repeats = 1 if args.trace else SETUP_REPEATS
        inputs, setup_s = set_up(cli, workload, run_dir, args.seed, repeats)
        if args.trace:
            passes, metrics, spans = traced(cli, workload, inputs, run_dir, args)
            reported = set(metrics)
        else:
            passes, metrics = untraced(cli, workload, inputs, run_dir, args)
            spans = []
            metrics["setup_s"] = (setup_s, "s")
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mib"] = (rss, "MiB")
            reported = set(END_TO_END)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(passes) * len(workload.steps)
    failed = sum(len(p.problems) for p in passes)
    for k, p in enumerate(passes):
        for step, problems in p.problems.items():
            for problem in problems:
                print(f"pass {k} {step}: {problem}", file=sys.stderr)

    print(f"workload {workload.name}, seed {args.seed}, {len(passes)} passes, "
          f"trace {args.trace}: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    print(f"  {'error_rate':36s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} steps failed)")

    WORK.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "env": env, "step_times": [p.times for p in passes],
              "problems": [p.problems for p in passes],
              "metrics": {k: v for k, (v, _) in metrics.items()}, "spans": spans}
    name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items() if k in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
