"""spdsim benchmark: real CLI commands, timed from outside, outputs checked.

One run (the form `BENCHMARK.json` names):

    python3 perfbench/run.py --workload optics --seed 1 --seconds 10 --trace 0

  --trace 0  times the workload: each spdsim command is its own fresh
             interpreter, run one at a time; whole rounds of the command
             sequence repeat until --seconds have passed. Prints the
             end-to-end metrics.
  --trace 1  runs the workload once untraced and then every workload once
             traced (spans around spdsim's public functions, see spans.py),
             and prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full record (machine,
versions, per-command times, each check) is written to --json.

Steadiness mode repeats runs as separate processes and prints each metric's
median and quartiles per workload:

    python3 perfbench/run.py --repeat 5 [--workload all] [--seed 1]

`--repeat 1` runs every workload once: the one command for a whole pass.
"""

from __future__ import annotations

import argparse
import os

# Numeric libraries get at most one thread per usable CPU, in this process
# and in every command it starts; set before numpy is imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(NPROC, int(os.environ.get(_var) or NPROC)))

import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import references  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, to_yaml  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"  # everything a run writes; ignored by git
ENTRY = "import sys; from spdsim.cli import main; sys.exit(main())"  # = console script
SETUP_LAUNCHES = 5
COMMAND_TIMEOUT_S = 170.0

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("slowest_cmd_s", "s"),
              ("peak_rss_mb", "MB")]


class Ops:
    """Operations attempted and failed: command exits and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_command(argv: list[str], log: Path) -> tuple[float, float, int]:
    """(wall s, peak RSS MB, exit code) of one child process.

    stdout and stderr go to files, so the child can be reaped with wait4 and
    its own peak resident set read from the kernel's rusage.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "platform": platform.platform()}


def run_round(name: str, seed: int, work: Path, tables: dict, ops: Ops,
              traced: bool = False, spans_acc: spans.Spans | None = None) -> dict:
    """One pass of a workload's commands, then its checks."""
    work.mkdir(parents=True)
    plan = WORKLOADS[name](seed, work, tables)
    for cfg_name, cfg in plan.configs.items():
        (work / f"{cfg_name}.yaml").write_text(to_yaml(cfg) + "\n", encoding="utf-8")
    commands = []
    start = time.perf_counter()
    for k, (label, args) in enumerate(plan.commands):
        if traced:
            span_file = work / f"spans{k}.npz"
            argv = [sys.executable, str(BENCH_DIR / "spans.py"), "--spans", str(span_file),
                    "--"] + args
        else:
            argv = [sys.executable, "-c", ENTRY] + args
        wall, rss, code = run_command(argv, work / f"cmd{k}.log")
        ops.record(code == 0, f"{name}: {label} exited {code}")
        commands.append({"command": label, "wall_s": wall, "peak_rss_mb": rss, "exit": code})
        if traced and spans_acc is not None and span_file.exists():
            spans_acc.add_file(span_file, name, label)
    wall = time.perf_counter() - start
    checks = []
    for check_name, check in plan.checks:
        try:
            check()
            ok, message = True, ""
        except Exception as exc:  # a failed or crashed check is a failed operation
            ok, message = False, f"{type(exc).__name__}: {exc}"
        ops.record(ok, f"{name}: {check_name}: {message}")
        checks.append({"check": check_name, "ok": ok, "message": message})
    return {"wall_s": wall, "commands": commands, "checks": checks}


def setup_times(work: Path, ops: Ops) -> list[float]:
    """Wall times of fresh `spdsim --version` interpreters."""
    walls = []
    work.mkdir(parents=True)
    for k in range(SETUP_LAUNCHES):
        log = work / f"version{k}.log"
        wall, _, code = run_command([sys.executable, "-c", ENTRY, "--version"], log)
        ok = code == 0 and log.read_text().startswith("spdsim ")
        ops.record(ok, f"spdsim --version exited {code}")
        walls.append(wall)
    return walls


def timed_run(name: str, seed: int, seconds: float, tmp: Path, tables: dict,
              ops: Ops) -> dict:
    setup = setup_times(tmp / "setup", ops)
    rounds = []
    elapsed = 0.0
    while not rounds or elapsed < seconds:
        work = tmp / f"round{len(rounds)}"
        rounds.append(run_round(name, seed, work, tables, ops))
        shutil.rmtree(work)
        elapsed += rounds[-1]["wall_s"]
    med = statistics.median
    metrics = {
        "wall_s": med(r["wall_s"] for r in rounds),
        "setup_s": med(setup),
        "slowest_cmd_s": med(max(c["wall_s"] for c in r["commands"]) for r in rounds),
        "peak_rss_mb": med(max(c["peak_rss_mb"] for c in r["commands"]) for r in rounds),
    }
    return {"metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
            "setup_walls_s": setup, "rounds": rounds}


def traced_run(name: str, seed: int, tmp: Path, tables: dict, ops: Ops,
               spans_path: Path) -> dict:
    untraced = run_round(name, seed, tmp / "untraced", tables, ops)
    shutil.rmtree(tmp / "untraced")
    acc = spans.Spans()
    traced = {}
    for other in [name] + [w for w in WORKLOADS if w != name]:
        traced[other] = run_round(other, seed, tmp / f"traced-{other}", tables, ops,
                                  traced=True, spans_acc=acc)
        shutil.rmtree(tmp / f"traced-{other}")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    acc.to_file(spans_path)
    metrics, absent = spans.per_layer(acc)
    overhead = traced[name]["wall_s"] - untraced["wall_s"]
    return {"metrics": metrics, "absent": absent, "span_file": str(spans_path),
            "overhead": {"workload": name, "untraced_s": untraced["wall_s"],
                         "traced_s": traced[name]["wall_s"], "overhead_s": overhead,
                         "overhead_pct": 100.0 * overhead / untraced["wall_s"]},
            "untraced_round": untraced, "traced_rounds": traced}


def single(args) -> int:
    if not (SRC / "spdsim" / "cli.py").is_file():
        print(f"error: no spdsim source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    ops = Ops()
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "spdsim")],
                       check=True, stdout=subprocess.DEVNULL, env=child_env())
        tables = references.load_tables(SRC / "spdsim" / "data")
        if args.trace:
            spans_path = WORK_ROOT / f"spans-{args.workload}.npz"
            result = traced_run(args.workload, args.seed, tmp, tables, ops, spans_path)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, tmp, tables, ops)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {"benchmark": "spdsim perfbench", "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine(),
              "attempted": ops.attempted, "failed": ops.failed, "failures": ops.failures,
              **result}
    json_path = Path(args.json) if args.json else \
        WORK_ROOT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    json_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in ops.failures:
        print(f"FAILED {failure}")
    if args.trace:
        o = result["overhead"]
        print(f"tracing overhead on {o['workload']}: {o['overhead_s']:+.3f} s "
              f"({o['overhead_pct']:+.1f}%), traced {o['traced_s']:.3f} s vs untraced "
              f"{o['untraced_s']:.3f} s; spans in {result['span_file']}")
        for metric, why in result["absent"].items():
            print(f"absent {metric}: {why}")
    else:
        print(f"{args.workload}: {len(result['rounds'])} round(s), "
              f"{ops.attempted} operations, {ops.failed} failed")
    for metric, m in result["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(f"record: {json_path}")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": result["metrics"]}))
    return 0


def steady(args) -> int:
    """Repeat runs as separate processes; median and quartiles per workload."""
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {}
    for name in names:
        runs = []
        for i in range(args.repeat):
            seed = args.seed + i
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            last = json.loads(lines[-1])
            last["seed"] = seed
            runs.append(last)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in last["metrics"].items())
                + f"; attempted {last['attempted']}, failed {last['failed']}", flush=True)
        stats = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
            median = statistics.median(values)
            q1 = q3 = spread = None
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else None
            stats[metric] = {"unit": runs[0]["metrics"][metric]["unit"], "median": median,
                             "q1": q1, "q3": q3, "spread": spread, "n": len(values)}
        summary[name] = {"attempted": sum(r["attempted"] for r in runs),
                         "failed": sum(r["failed"] for r in runs),
                         "failed_share": [r["failed"] / r["attempted"] for r in runs],
                         "metrics": stats, "runs": runs}

    print(f"\n{'workload':<11} {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7}  unit")
    for name, s in summary.items():
        for metric, m in s["metrics"].items():
            q1, q3, spread = (format(v, f) if v is not None else "-"
                              for v, f in ((m["q1"], ".6g"), (m["q3"], ".6g"),
                                           (m["spread"], ".3f")))
            print(f"{name:<11} {metric:<36} {m['median']:>12.6g} {q1:>12} {q3:>12} "
                  f"{spread:>7}  {m['unit']}")
        print(f"{name:<11} operations attempted {s['attempted']}, failed {s['failed']}")
    document = {"benchmark": "spdsim perfbench", "repeat": args.repeat,
                "first_seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                "machine": machine(), "workloads": summary}
    WORK_ROOT.mkdir(exist_ok=True)
    json_path = Path(args.json) if args.json else WORK_ROOT / "steady.json"
    json_path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"record: {json_path}")
    return 0 if all(s["failed"] == 0 for s in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum time of timed rounds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per workload, each a separate process")
    parser.add_argument("--json", default=None, help="where to write the full record")
    args = parser.parse_args(argv)
    if args.repeat > 0:
        args.workload = args.workload or "all"
        return steady(args)
    if args.workload in (None, "all"):
        parser.error("--workload NAME is required for a single run (or use --repeat N)")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
