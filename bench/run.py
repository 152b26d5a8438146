"""The catalanlab benchmark.  See bench/README.md for what it measures and why.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every operation runs in a fresh
interpreter against a private copy of `src/`, compiled once per run, with
its own temporary working directory, HOME, TMPDIR and XDG_CACHE_HOME.
Every operation shares one CPU with metronome.py, whose progress gives the
CPU's speed while the op ran; op times are reported as CPU seconds at a
fixed reference speed, so that the host's drifting speed cancels out.
With `--trace 0` it repeats the workload's operations while a further pass
is predicted to end within S seconds (always at least one pass) and prints
the end-to-end metrics.  With `--trace 1` it runs one untraced pass and two
traced passes and prints the per-layer metrics.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of bytecode files
import child  # noqa: E402  (the traced op's layer names)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
SPAWN = BENCH / "spawn.py"
METRONOME = BENCH / "metronome.py"
WORK = ROOT / ".bench_work"

# Each op is (name, child.py arguments).  Untraced, a "cli" op runs
# `python3 -m catalanlab.cli ARGV` as a user would; traced, child.py calls
# the same cli.main(ARGV) with the wrappers installed.
WORKLOADS = {
    "battery": [
        ("verify", ["cli", "verify", "--n-max", "6", "--starred-n-max", "6", "--format", "json"]),
    ],
    "rank7": [
        ("rank-qprime-7", ["cli", "rank", "--family", "qprime", "--n", "7", "--max-n", "7",
                           "--show-generators"]),
        ("maximal-qprime-7", ["cli", "maximal", "--family", "qprime", "--n", "7", "--max-n", "7"]),
    ],
    "tables": [
        ("enum-icn-7-products", ["cli", "enum", "--family", "icn", "--n", "7", "--products",
                                 "--format", "csv"]),
        ("greens-qprime-7-Js", ["cli", "greens", "--family", "qprime", "--n", "7", "--max-n", "7",
                                "--relation", "Js"]),
        ("check-qprime-7-right", ["cli", "check", "--family", "qprime", "--n", "7", "--max-n", "7",
                                  "--property", "right-ample", "--property", "right-adequate"]),
        ("check-qprime-5-inverse", ["cli", "check", "--family", "qprime", "--n", "5",
                                    "--property", "inverse-ideal",
                                    "--property", "right-inverse-ideal"]),
    ],
    "elements": [
        ("elements", ["elements"]),
    ],
}
# Counts the traced run must read as 0 on a workload: no classical J on
# `tables` and `elements`, and no product table on `elements`.
MUST_BE_ZERO = {
    "tables": ["greens.classical_calls"],
    "elements": ["greens.classical_calls", "families.table_builds"],
}
EXPECTED = json.loads((BENCH / "expected.json").read_text())
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}
SETUP_REPEATS = 6  # before the passes, and as many again after them
# The metronome's niceness: at 5 it gets about a quarter of the shared CPU,
# enough to interleave with the op finely, so both see the same speed.
METRONOME_NICE = 5
# Metronome units per CPU second that define the reference speed.  On the
# 2-core Xeon VM the bounds were set on, with the metronome sharing the CPU,
# an op's CPU seconds ran from about 1.0 to 1.4 times its reference seconds.
REF_UNITS_PER_S = 10000.0
OP_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 165.0


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


class Run:
    """One benchmark run: a private work directory, a compiled copy of the
    sources, and the environment every operation starts from."""

    def __init__(self, seed):
        self.started = time.perf_counter()
        self.seed = seed
        self.ops_made = 0
        self.metronome = None
        self.dir = WORK / f"run-{os.getpid()}"
        try:
            self._prepare()
        except BaseException:
            self.close()
            raise

    def _prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.src = self.dir / "src"
        shutil.copytree(SRC, self.src, ignore=shutil.ignore_patterns("__pycache__"))
        self.env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": str(self.src),
            "PYTHONHASHSEED": "0",
            "PYTHONIOENCODING": "utf-8",
        }
        # Every run starts from the same bytecode state: the copy is compiled
        # here, and nothing else may write bytecode.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(self.src)],
                       env=self.env, check=True, capture_output=True, timeout=120)
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.start_metronome()

    def start_metronome(self):
        """Start metronome.py on the last CPU this process may use, and
        wait until it has made progress."""
        self.cpu = max(os.sched_getaffinity(0))
        self.state = self.dir / "metronome.state"
        self.state.write_bytes(bytes(16))
        self.metronome = subprocess.Popen(
            [sys.executable, "-I", "-S", str(METRONOME), str(self.state), str(self.cpu),
             str(METRONOME_NICE)],
            # A process group of its own, as every op has, but not a session:
            # with scheduler autogroups each session is weighed as a whole,
            # and the niceness would not apply against the op.
            env=self.env, stdin=subprocess.DEVNULL, process_group=0,
        )
        deadline = time.perf_counter() + 10
        while self.state.read_bytes() == bytes(16):
            if self.metronome.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("the metronome did not start")
            time.sleep(0.05)
        time.sleep(0.5)  # let its speed settle before the first op

    def close(self):
        if self.metronome:
            self.metronome.kill()
            self.metronome.wait()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()  # only once no other run is using it
        except OSError:
            pass

    def op_dir(self):
        """A fresh working directory with its own HOME, TMPDIR and cache."""
        self.ops_made += 1
        path = self.dir / f"op-{self.ops_made}"
        env = dict(self.env)
        for var, sub in (("HOME", "home"), ("TMPDIR", "tmp"), ("XDG_CACHE_HOME", "cache")):
            (path / sub).mkdir(parents=True)
            env[var] = str(path / sub)
        return path, env

    def spawn(self, argv):
        """Run argv through spawn.py in a fresh op directory, on the
        metronome's CPU, stdout and stderr to files there.  Returns (usage,
        op directory): usage is spawn.py's report with `ref_s` added, or
        None if the op was killed at its timeout."""
        path, env = self.op_dir()
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        timeout = max(0.5, min(OP_TIMEOUT_S, remaining))
        report = path / "usage.json"
        with open(path / "stdout", "wb") as out, open(path / "stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", str(SPAWN), str(report), str(self.state),
                 str(self.cpu), *argv],
                cwd=path, env=env, stdout=out, stderr=err, process_group=0,
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], timeout)[0]:
                    os.killpg(proc.pid, signal.SIGKILL)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                raise
            finally:
                os.close(pidfd)
                proc.wait()
        try:
            usage = json.loads(report.read_text())
        except (OSError, ValueError):
            return None, path
        usage["ref_s"] = ref_seconds(usage)
        return usage, path

    def setup_times(self):
        """Times for fresh interpreters to import the package and CLI, in
        CPU seconds at the reference speed."""
        argv = [sys.executable, "-c", "import catalanlab, catalanlab.cli"]
        times = []
        for _ in range(SETUP_REPEATS):
            usage, path = self.spawn(argv)
            shutil.rmtree(path)
            if not usage or usage["exit_code"] != 0 or usage["ref_s"] is None:
                raise RuntimeError("importing catalanlab failed")
            times.append(usage["ref_s"])
        return times

    def run_op(self, name, args, trace):
        """Run one op and check its output.  Returns a result dict."""
        if args[0] == "elements":
            args = args + [str(self.seed)]
        if trace:
            argv = [sys.executable, str(CHILD), "--trace", "trace.json", *args]
        elif args[0] == "cli":
            argv = [sys.executable, "-m", "catalanlab.cli", *args[1:]]
        else:
            argv = [sys.executable, str(CHILD), *args]
        t0 = time.perf_counter()
        usage, path = self.spawn(argv)
        digest = hashlib.sha256()
        size = 0
        with open(path / "stdout", "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
                size += len(block)
        stderr = (path / "stderr").read_bytes()
        expected = EXPECTED[name]
        problems = []
        if usage is None:
            problems.append("killed after timeout")
            wall_s = time.perf_counter() - t0
            usage = {"wall_s": wall_s, "cpu_s": wall_s, "ref_s": wall_s, "maxrss_kb": 0}
        elif usage["exit_code"] != expected["exit_code"]:
            problems.append(f"exit code {usage['exit_code']}, expected {expected['exit_code']}")
        if usage["ref_s"] is None:
            problems.append("the metronome made no progress while the op ran")
            usage["ref_s"] = usage["wall_s"]
        if digest.hexdigest() != expected["stdout_sha256"]:
            problems.append("stdout differs from the recorded output")
        if b"Traceback" in stderr:
            problems.append("traceback on stderr")
        spans = None
        if trace:
            try:
                spans = json.loads((path / "trace.json").read_text())
            except (OSError, ValueError):
                problems.append("no trace written")
        shutil.rmtree(path)
        if problems:
            tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
            print(f"op {name} failed: {'; '.join(problems)} {tail}", file=sys.stderr)
        return {
            "name": name,
            "wall_s": usage["wall_s"],
            "cpu_s": usage["cpu_s"],
            "ref_s": usage["ref_s"],
            "rss_mb": usage["maxrss_kb"] / 1024,
            "stdout_bytes": size,
            "failed": bool(problems),
            "spans": spans,
        }

    def run_pass(self, workload, rng, trace):
        ops = list(WORKLOADS[workload])
        rng.shuffle(ops)
        return [self.run_op(name, args, trace) for name, args in ops]


def ref_seconds(usage):
    """An op's CPU seconds at the reference speed: its CPU time times the
    metronome's units per CPU second meanwhile, over REF_UNITS_PER_S.
    None if the metronome made no progress while the op ran."""
    if usage["units"] <= 0 or usage["units_cpu_s"] <= 0:
        return None
    return usage["cpu_s"] * usage["units"] / usage["units_cpu_s"] / REF_UNITS_PER_S


def wall(results):
    return sum(r["wall_s"] for r in results)


def ref(results):
    return sum(r["ref_s"] for r in results)


def layer_metrics(results):
    """Per-layer metrics of one traced pass: times and counts summed over
    its ops, plus the CLI's own time and output size.  Each op's span times
    are wall times; they are scaled by the op's ref_s / wall_s, so that
    they add up to its ref_s like the end-to-end time."""
    metrics = {**dict.fromkeys(child.TIMES, 0.0), **dict.fromkeys(child.COUNTS, 0)}
    top_s = 0.0
    for r in results:
        spans = r["spans"] or {"times": {}, "counts": {}, "top_s": 0.0}
        scale = r["ref_s"] / r["wall_s"]
        for key, value in spans["times"].items():
            metrics[key] += value * scale
        for key, value in spans["counts"].items():
            metrics[key] += value
        top_s += spans["top_s"] * scale
    entries = metrics["families.table_entries"]
    metrics["families.ns_per_entry"] = metrics["families.table_s"] / entries * 1e9 if entries else 0.0
    metrics["cli.self_s"] = ref(results) - top_s
    metrics["cli.output_bytes"] = sum(r["stdout_bytes"] for r in results)
    return metrics


def traced_metrics(workload, untraced, traced):
    """Median per-layer metrics of the traced passes, and the problems
    their self-checks found."""
    per_pass = [layer_metrics(results) for results in traced]
    problems = []
    counts = [name for name in per_pass[0] if UNITS[name] in ("count", "bytes")]
    for name in counts:
        if len({m[name] for m in per_pass}) != 1:
            problems.append(f"{name} differs between traced passes: {[m[name] for m in per_pass]}")
    base = ref(untraced)
    for results, m in zip(traced, per_pass):
        layers = sum(v for k, v in m.items() if UNITS[k] == "s" and k != "cli.self_s")
        overhead = ref(results) - base
        if abs(layers + m["cli.self_s"] - base) > abs(overhead) + 1e-6:
            problems.append("layer self times plus cli.self_s miss the op reference time"
                            f" by more than the tracing overhead {overhead:.3f} s")
    for name in MUST_BE_ZERO.get(workload, []):
        if per_pass[0][name] != 0:
            problems.append(f"{name} is {per_pass[0][name]} on {workload}, expected 0")
    metrics = {name: per_pass[0][name] if name in counts
               else statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(ref(r) for r in traced) - base
    return metrics, problems


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit(run):
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**run.env, "GIT_CEILING_DIRECTORIES": str(ROOT.parent), "HOME": str(run.dir)},
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    args = parse_args()
    # Turn the driver's SIGTERM into SystemExit, so the running op is killed
    # and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "catalanlab" / "cli.py").is_file():
        sys.exit(f"error: no catalanlab sources under {SRC}; run from the root of a checkout")
    run = Run(args.seed)
    try:
        rng = random.Random(args.seed)
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_commit": git_commit(run),
            "source_sha256": source_digest(),
        }
        if args.trace:
            untraced = run.run_pass(args.workload, rng, trace=False)
            traced = [run.run_pass(args.workload, rng, trace=True) for _ in range(2)]
            passes = [untraced, *traced]
            values, problems = traced_metrics(args.workload, untraced, traced)
            for problem in problems:
                print(f"trace self-check failed: {problem}", file=sys.stderr)
        else:
            setup = run.setup_times()
            passes = []
            measure_start = time.perf_counter()
            while True:
                passes.append(run.run_pass(args.workload, rng, trace=False))
                elapsed = time.perf_counter() - measure_start
                if elapsed + wall(passes[-1]) > args.seconds:
                    break
            values = {
                "cpu_ref_s": statistics.median(ref(p) for p in passes),
                "setup_s": statistics.median(setup + run.setup_times()),
                "peak_rss_mb": max(r["rss_mb"] for p in passes for r in p),
            }
            problems = []
        info["cpu"] = run.cpu
        info["pass_walls_s"] = [wall(p) for p in passes]
        info["pass_cpu_s"] = [sum(r["cpu_s"] for r in p) for p in passes]
        info["pass_ref_s"] = [ref(p) for p in passes]
        info["op_ref_s"] = [{r["name"]: r["ref_s"] for r in p} for p in passes]
        print(json.dumps(info))
    finally:
        run.close()
    declared = _DECLARED["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        sys.exit(f"error: measured metrics {sorted(values)} differ from BENCHMARK.json")
    results = [r for p in passes for r in p]
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(values.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
