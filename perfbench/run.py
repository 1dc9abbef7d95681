"""splitfv benchmark: run one workload for a fixed time and report its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``. With ``--trace 0`` the run is
untraced and reports the end-to-end metrics; with ``--trace 1`` it runs
the workload untraced and then traced, and reports the per-layer metrics
of ``tracer.py``. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Per-run records and span files go to
``.perfbench_work/`` in the repository root.

The program under test is imported from ``src/``; a checkout without it
is refused with exit code 2.
"""

from __future__ import annotations

import os

# One process, one thread: pin BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WARM_SETUPS = 5       # fresh interpreters per run for setup_s, after one first
IMPORTTIME_RUNS = 3   # fresh interpreters per traced run for setup.scipy_import_s
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cell_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


# =============================================================
# Fresh-interpreter set-up
# =============================================================

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def probe_setup(config: Path, importtime: bool = False) -> tuple[dict, str]:
    """One fresh interpreter through ``setup_probe.py``; returns (times, stderr)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "setup_probe.py"), str(config)]
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative import time of the scipy modules in a ``-X importtime`` log.

    The log lists each import after the imports it caused, indented two
    spaces per level. Read backwards, a module comes before its children,
    so a scipy module is counted only when no counted ancestor covers it.
    """
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(fields[1])))
    total_us = 0
    stack: list[tuple[int, bool]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        covered = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not covered:
            total_us += cumulative
        stack.append((depth, covered or is_scipy))
    return total_us / 1e6


def measure_setup(config: Path, traced: bool) -> dict[str, float]:
    first, _ = probe_setup(config)
    warm = [probe_setup(config)[0] for _ in range(WARM_SETUPS)]
    out = {
        "setup_s": statistics.median(w["total_s"] for w in warm),
        "setup.first_s": first["total_s"],
        "setup.import_s": statistics.median(w["import_s"] for w in warm),
    }
    if traced:
        out["setup.scipy_import_s"] = statistics.median(
            scipy_import_seconds(probe_setup(config, importtime=True)[1])
            for _ in range(IMPORTTIME_RUNS)
        )
    return out


# =============================================================
# Operations
# =============================================================

class Runner:
    """Runs a workload's operations in this process and keeps their samples."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import workloads

        self.w = workloads
        self.ops = workloads.operations(workload, seed)
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self._steps_cache: dict = {}

    def one(self, log=None, count_work: bool = False) -> dict:
        """Run, time and check the next operation."""
        op = next(self.ops)
        outs = self.w.prepare(op, self.workdir)
        span = log.operation(self.attempted) if log is not None else contextlib.nullcontext()
        with span:
            started = time.perf_counter()
            results = [self.w.execute(p, o) for p, o in zip(op.parts, outs)]
            wall = time.perf_counter() - started
        problems = [msg for r in results for msg in self.w.check_part(r)]
        self.attempted += 1
        if problems:
            self.failures.append(f"operation {self.attempted}: " + "; ".join(problems))
        sample = {"wall_s": wall, "ok": not problems}
        if count_work and not problems:
            sample["cell_steps"] = sum(
                self.w.count_cell_steps(r, self.workdir, self._steps_cache)
                for r in results
            )
        return sample

    def for_seconds(self, seconds: float, **kwargs) -> list[dict]:
        """At least one operation, then more until ``seconds`` have passed."""
        started = time.perf_counter()
        samples = [self.one(**kwargs)]
        while time.perf_counter() - started < seconds:
            samples.append(self.one(**kwargs))
        return samples


def median_wall(samples: list[dict]) -> float:
    ok = [s["wall_s"] for s in samples if s["ok"]]
    return statistics.median(ok) if ok else float("nan")


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p90/p75/p50 with at least ten samples beyond it."""
    for q in (99, 90, 75, 50):
        if len(values) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def assert_untraced() -> None:
    import tracer

    found = tracer.installed_wrappers()
    if found:
        raise RuntimeError(f"untraced run found span wrappers: {found}")


# =============================================================
# Machine record
# =============================================================

def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    return info


# =============================================================
# Modes
# =============================================================

def _setup_config(workload: str, seed: int, workdir: Path) -> Path:
    import workloads

    op = next(workloads.operations(workload, seed))
    (out,) = workloads.prepare(workloads.Operation(op.parts[:1]), workdir / "setup")
    return out / "run.cfg"


def run_untraced(args, workdir: Path) -> tuple[dict, Runner, dict]:
    assert_untraced()
    setup = measure_setup(_setup_config(args.workload, args.seed, workdir), traced=False)
    runner = Runner(args.workload, args.seed, workdir)
    runner.one()  # warm-up: checked and counted, not timed
    samples = runner.for_seconds(args.seconds, count_work=True)
    assert_untraced()
    walls = [s["wall_s"] for s in samples if s["ok"]]
    rates = [s["cell_steps"] / s["wall_s"] for s in samples if s["ok"]]
    metrics = {
        "setup_s": setup["setup_s"],
        "wall_s": median_wall(samples),
        "cell_steps_per_s": statistics.median(rates) if rates else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"wall_samples": walls, "setup": setup, "tail": tail_percentile(walls)}
    return metrics, runner, notes


def run_traced(args, workdir: Path) -> tuple[dict, Runner, dict]:
    import tracer

    assert_untraced()
    setup = measure_setup(_setup_config(args.workload, args.seed, workdir), traced=True)
    runner = Runner(args.workload, args.seed, workdir)
    runner.one()  # warm-up
    untraced = runner.for_seconds(args.seconds / 2)
    assert_untraced()
    log = tracer.SpanLog()
    installation = tracer.install(log)
    try:
        traced = runner.for_seconds(args.seconds / 2, log=log)
    finally:
        installation.uninstall()
    assert_untraced()
    table = log.table()
    missing = tracer.check_coverage(table, args.workload)
    if missing:
        raise RuntimeError(
            f"span coverage: no spans recorded for {', '.join(missing)} on "
            f"{args.workload}; a call site was not wrapped"
        )
    table.save(workdir / f"spans-seed{args.seed}.npz")
    metrics = {k: setup[k] for k in ("setup.import_s", "setup.scipy_import_s",
                                     "setup.first_s")}
    metrics.update(tracer.layer_metrics(table))
    metrics["trace.overhead_s"] = median_wall(traced) - median_wall(untraced)
    notes = {"untraced_wall_s": median_wall(untraced), "traced_wall_s": median_wall(traced),
             "traced_ops": len(traced), "spans": int(table.name.size)}
    return metrics, runner, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "splitfv" / "cli.py").is_file():
        print(f"error: no splitfv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    mode = run_traced if args.trace else run_untraced
    metrics, runner, notes = mode(args, workdir)
    units = (dict((n, u) for n, u, _ in tracer.PER_LAYER) if args.trace
             else dict(END_TO_END))
    metrics = {name: metrics[name] for name in units}

    failed = len(runner.failures)
    info = machine()
    print("machine: " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{runner.attempted} operations (first one warm-up), {failed} failed")
    for msg in runner.failures:
        print(f"FAILED {msg}")
    if not args.trace:
        walls = notes["wall_samples"]
        tail = notes["tail"]
        tail_text = (f", p{tail[0]} {tail[1]:.6g} s" if tail
                     else ", too few for a tail percentile")
        print(f"wall_s: median of {len(walls)} timed operations{tail_text}")
    else:
        print(f"tracing: untraced wall_s {notes['untraced_wall_s']:.6g} s, traced "
              f"{notes['traced_wall_s']:.6g} s over {notes['traced_ops']} operations, "
              f"{notes['spans']} spans")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_ratio = {failed / runner.attempted:.6g} 1")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": info, "metrics": metrics,
              "notes": notes, "attempted": runner.attempted, "failed": failed,
              "failures": runner.failures}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
