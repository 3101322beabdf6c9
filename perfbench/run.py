"""Run the repo's benchmark.

One workload, the way BENCHMARK.json's command is invoked::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

Every workload once, with a summary table::

    python3 perfbench/run.py --all [--seed 1] [--seconds 10] [--trace 0|1]

Each run happens in a fresh interpreter (``bench.py``) with a scrubbed
environment -- no ``REPRO_BACKEND``/``REPRO_BACKEND_OPTIONS``, one
BLAS/OpenMP thread, ``src/`` on the path -- and a wall-clock limit.
Its stores and job directories live under ``.bench_tmp/`` in the
checkout and are removed when it ends, together with any process it
left behind.  A crash, a hang or a failed check shows up as failed
operations and exit code 1; the last line printed is always the run's
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run that has not finished by then is killed and counted as failed.
RUN_TIMEOUT_S = 170.0


def workload_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_BACKEND_OPTIONS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


def _reap_group(pgid: int) -> None:
    """Kill and wait out whatever is left in the run's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_one(workload: str, seed: int, seconds: float, trace: int,
            echo: bool = True) -> dict:
    """One isolated run; returns its JSON result (failed on a crash)."""
    workdir = ROOT / ".bench_tmp" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--workdir", str(workdir)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(workdir),
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        problem = None if proc.returncode == 0 else f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        problem = f"no result within {RUN_TIMEOUT_S:g} s"
    finally:
        _reap_group(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    lines = out.decode(errors="replace").splitlines()
    result = None
    if problem is None and lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            problem = "no JSON result line"
    if echo:
        for line in lines:
            print(line)
    if result is None:
        print(f"{workload} seed {seed}: {problem}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload once and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    names = workload_names()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload NAME and --all")
    if not args.all:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
        ok = result["correct"] and result["metrics"] and not result["failed"]
        return 0 if ok else 1

    results = {}
    for name in names:
        print(f"== {name}", flush=True)
        results[name] = run_one(name, args.seed, args.seconds, args.trace)
        print(json.dumps(results[name]), flush=True)
    print(f"\n{'workload':<14} {'attempted':>9} {'failed':>6}  metrics")
    for name, res in results.items():
        metrics = "  ".join(f"{k}={v['value']:.4g} {v['unit']}"
                            for k, v in res["metrics"].items())
        print(f"{name:<14} {res['attempted']:>9} {res['failed']:>6}  {metrics}")
    ok = all(r["correct"] and r["metrics"] and not r["failed"]
             for r in results.values())
    print(json.dumps({"all_passed": ok,
                      "failed": sum(r["failed"] for r in results.values())}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
