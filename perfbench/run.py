"""The tlattice benchmark.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each workload (see ``workloads.py``) is a list of ``tlattice`` commands.  They
run as real processes, ``python -m transmon_lattice.cli ...`` with the
repository's ``src`` on the path, one at a time from this single parent (a
closed loop with one client).  BLAS gets at most one thread per available
core.  A pass runs the whole list once; passes repeat while the next one is
expected to end within ``--seconds``, and every timing is the median over
passes.

With ``--trace 0`` the run first measures ``setup_s`` (a fresh interpreter
that imports the CLI and loads the bundled device, median of several) and
then reports the end-to-end metrics.  With ``--trace 1`` it alternates an
untraced pass with a traced one (``tracer.py``) and reports the per-layer
metrics of ``layers.py``.

Every command's exit code, output check and stdout digest are verified; a
command fails if it exits non-zero, fails its check, or prints different bytes
than in an earlier pass of the same run.  The full record (seed, resolved
command lines, environment, samples, failures, span files) goes to
``perfbench/out/``; the last line of stdout is the JSON summary (for ``all``,
one summary per workload).

``--smoke`` is the harness self-test: it runs each workload's tiny command
list traced and untraced and asserts that every metric in BENCHMARK.json is
reported with its unit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Optional

import layers
from workloads import WORKLOADS, CheckFailed, Command, Inputs, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 150.0
SETUP_CODE = (
    "import transmon_lattice.cli\n"
    "from transmon_lattice.fileio import load_bundled_device\n"
    "load_bundled_device()\n"
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_ok_ratio", "ratio"),
)


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    """One child process: what it printed and what it cost."""

    args: list[str]
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: str
    failure: Optional[str] = None
    payload: Optional[dict] = None


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        requested = env.get(var, "")
        threads = int(requested) if requested.isdigit() and int(requested) > 0 else cores
        env[var] = str(min(threads, cores))
    return env


def spawn(argv: list[str], cwd: Path, env: dict[str, str]) -> Outcome:
    """Run one child to completion; its CPU and peak RSS come from wait4."""
    out_path, err_path = cwd / "stdout.bin", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        args=argv,
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_text(errors="replace"),
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "transmon_lattice.cli", *args]


def traced_argv(args: list[str], spans_path: Path) -> list[str]:
    return [sys.executable, "-X", "importtime", str(BENCH_DIR / "tracer.py"),
            str(spans_path), *args]


def _error_line(stderr: str) -> str:
    lines = [l for l in stderr.splitlines() if l and not l.startswith("import time:")]
    return lines[-1][:300] if lines else ""


class Runner:
    """Runs passes of one workload and verifies every command's output."""

    def __init__(self, commands: tuple[Command, ...], seed: int, workdir: Path):
        self.commands = commands
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.inputs: Inputs = write_inputs(workdir, seed)
        self.digests: dict[tuple[str, ...], str] = {}
        self.layer_passes: list[dict[str, float]] = []
        self.passes: list[Pass] = []

    def run_pass(self, traced: bool) -> None:
        result = Pass(traced)
        span_records = []
        for index, command in enumerate(self.commands):
            args = command.resolved(self.seed)
            spans_path = self.workdir / f"spans-{len(self.passes)}-{index}.json"
            argv = traced_argv(args, spans_path) if traced else cli_argv(args)
            outcome = spawn(argv, self.workdir, self.env)
            self._verify(command, args, outcome)
            result.outcomes.append(outcome)
            if traced:
                span_records.append(self._span_record(spans_path, outcome))
        if traced:
            self.layer_passes.append(layers.pass_metrics(span_records))
        self.passes.append(result)

    def _verify(self, command: Command, args: list[str], outcome: Outcome) -> None:
        if outcome.exit_code != 0:
            outcome.failure = f"exit {outcome.exit_code}: {_error_line(outcome.stderr)}"
            return
        try:
            outcome.payload = json.loads(outcome.stdout)
            command.check(outcome.payload, self.inputs)
        except (ValueError, KeyError, TypeError, IndexError, CheckFailed) as exc:
            outcome.failure = f"check: {type(exc).__name__}: {exc}"
            return
        digest = hashlib.sha256(outcome.stdout).hexdigest()
        first = self.digests.setdefault(tuple(args), digest)
        if digest != first:
            outcome.failure = f"stdout digest {digest[:12]} differs from earlier {first[:12]}"

    def _span_record(self, spans_path: Path, outcome: Outcome) -> dict:
        try:
            with open(spans_path) as fh:
                spans = json.load(fh)
        except (OSError, ValueError) as exc:
            if outcome.failure is None:
                raise BenchmarkError(f"traced run left no span file: {exc}") from exc
            spans = {"summary": {}, "import_ms": 0.0}  # killed before writing its spans
        return {
            "summary": spans["summary"],
            "import_ms": spans["import_ms"],
            "importtime": layers.parse_importtime(outcome.stderr),
            "stdout_bytes": len(outcome.stdout),
            "payload": outcome.payload,
        }

    def unexpected_failures(self) -> list[str]:
        """Failures other than a documented command failing the documented way."""
        out = []
        for p in self.passes:
            for command, outcome in zip(self.commands, p.outcomes):
                known = command.known_failure
                if outcome.failure and not (known and outcome.exit_code == known.exit_code):
                    out.append(f"{' '.join(command.resolved(self.seed))}: {outcome.failure}")
        return out


def measure_setup(env: dict[str, str], workdir: Path, samples: int) -> list[float]:
    walls = []
    for _ in range(samples):
        outcome = spawn([sys.executable, "-c", SETUP_CODE], workdir, env)
        if outcome.exit_code != 0:
            raise BenchmarkError(f"set-up failed: {_error_line(outcome.stderr)}")
        walls.append(outcome.wall_s)
    return walls


def summarize(values: list[float]) -> dict:
    ordered = sorted(values)
    quartiles = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {"median": statistics.median(ordered), "q1": quartiles[0], "q3": quartiles[2],
            "samples": len(ordered)}


def environment(env: dict[str, str]) -> dict:
    def version(pkg: str) -> Optional[str]:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    # The ceiling keeps git from finding a repository above the checkout.
    git_env = dict(env, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy; c = numpy.show_config(mode='dicts');"
         "print(json.dumps(c['Build Dependencies']['blas']))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    blas = json.loads(probe.stdout) if probe.returncode == 0 else None
    uname = platform.uname()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")} if blas else None,
        "blas_threads": {v: env[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "platform": f"{uname.system} {uname.release} {uname.machine}",
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    workload = WORKLOADS[workload_name]
    commands = workload.smoke if smoke else workload.commands
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    runner = Runner(commands, seed, workdir)
    load_start = os.getloadavg()
    env_info = environment(runner.env)
    setup = [] if trace else measure_setup(runner.env, workdir, 1 if smoke else SETUP_SAMPLES)

    # Rounds repeat while the next one is expected to end within ``seconds``.
    start = time.perf_counter()
    rounds = 0
    while True:
        runner.run_pass(traced=False)
        if trace:
            runner.run_pass(traced=True)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break

    untraced = [p for p in runner.passes if not p.traced]
    outcomes = [o for p in runner.passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.failure)
    unexpected = runner.unexpected_failures()
    wall = summarize([p.wall_s for p in untraced])
    stats = {
        "wall_s": wall,
        "cpu_s": summarize([p.cpu_s for p in untraced]),
        "peak_rss_mb": summarize([p.peak_rss_mb for p in untraced]),
    }
    if trace:
        traced_wall = summarize([p.wall_s for p in runner.passes if p.traced])
        metrics = layers.median_metrics(runner.layer_passes)
        metrics["trace_overhead_ratio"] = traced_wall["median"] / wall["median"]
        units = dict(layers.METRICS)
    else:
        stats["setup_s"] = summarize(setup)
        metrics = {name: stats[name]["median"] for name in ("setup_s", "wall_s", "cpu_s",
                                                             "peak_rss_mb")}
        metrics["ops_ok_ratio"] = (attempted - failed) / attempted
        units = dict(END_TO_END)

    record = {
        "workload": workload_name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "client": "closed loop, one client, one child process at a time",
        "commands": [cli_argv(c.resolved(seed)) for c in commands],
        "inputs": {"trace.csv": {"tau_us": runner.inputs.trace_tau_us}},
        "environment": env_info,
        "load_average": {"start": load_start, "end": os.getloadavg()},
        "ops_attempted": attempted,
        "ops_failed": failed,
        "ops_failed_ratio": failed / attempted,
        "unexpected_failures": unexpected,
        "known_failures": sorted({f"{' '.join(c.resolved(seed))}: {c.known_failure.reason}"
                                  for c in commands if c.known_failure}),
        "stats": stats,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
             "peak_rss_mb": p.peak_rss_mb,
             "commands": [{"args": o.args, "exit_code": o.exit_code, "wall_s": o.wall_s,
                           "cpu_s": o.cpu_s, "rss_mb": o.rss_mb,
                           "stdout_sha256": hashlib.sha256(o.stdout).hexdigest(),
                           "failure": o.failure} for o in p.outcomes]}
            for p in runner.passes
        ],
        "layer_passes": runner.layer_passes,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_report(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {int(record['trace'])}: {len(record['passes'])} passes")
    units = dict(END_TO_END)
    for name, stat in record["stats"].items():
        print(f"  {name:14s} {stat['median']:.4f} {units[name]} median "
              f"(q1 {stat['q1']:.4f}, q3 {stat['q3']:.4f}, n={stat['samples']})")
    print(f"  ops_failed_ratio {record['ops_failed_ratio']:.4f} ratio "
          f"({record['ops_failed']} failed of ops_attempted {record['ops_attempted']})")
    for line in record["known_failures"]:
        print(f"  known failure: {line}")
    for line in record["unexpected_failures"]:
        print(f"  FAILED: {line}")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def smoke() -> int:
    """Self-test: every metric of BENCHMARK.json is reported, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if {w.name: w.why for w in WORKLOADS.values()} != {w["name"]: w["why"] for w in spec["workloads"]}:
        raise AssertionError("BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            record = run(name, seed=1, seconds=0, trace=bool(trace), smoke=True)
            got = {k: v["unit"] for k, v in record["metrics"].items()}
            if got != expected[trace]:
                raise AssertionError(f"{name} trace {trace}: metrics {got} != {expected[trace]}")
            if record["unexpected_failures"]:
                raise AssertionError(f"{name}: {record['unexpected_failures']}")
            print(f"smoke {name} trace {trace}: {len(got)} metrics ok", flush=True)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "transmon_lattice" / "cli.py").is_file():
        print(f"error: no transmon_lattice sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        summaries = {}
        for name in names:
            record = run(name, args.seed, args.seconds, bool(args.trace))
            print_report(record)
            summaries[name] = {
                "correct": not record["unexpected_failures"],
                "attempted": record["ops_attempted"],
                "failed": record["ops_failed"],
                "metrics": record["metrics"],
            }
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summaries if args.workload == "all" else summaries[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
