"""The repository benchmark: one command, three workloads, checked outputs.

    python3 benchmark/run.py --workload verify-oracle --seed 0 --seconds 42 --trace 0

Run from the root of a source checkout.  Each pass calls
``parakahler.cli.main`` with the arguments a user would type, in this one
process.  Passes repeat, whole, while one more pass of the average length
still fits in ``--seconds``; there is always at least one.  Every pass is
checked against the independent sympy reference (``reference.json``) and the
invariants in ``checks.py``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass time),
``setup_s`` (median, over fresh interpreters, of the import plus the catalog
load) and ``peak_rss_mb``.  ``--trace 1`` runs exactly one pass with the
wrappers of ``layers.py`` installed and prints the per-layer metrics instead;
its times are never used for the end-to-end numbers.  The last line of
standard output is one JSON object; progress goes to standard error.  See
README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from checks import HELD_OUT, check_report
from layers import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 11
HELD_OUT_DEADLINE_S = 2.0

# name -> (subcommand, samples per entry, catalog rewritten in another basis)
WORKLOADS = {
    "verify-oracle": ("verify", 4, False),
    "report-symbolic": ("report", 1, False),
    "verify-conjugated": ("verify", 1, True),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# Import the package and load the catalog in a fresh interpreter, as a user's
# first command does; prints the seconds that took.
SETUP_CODE = """
import time
start = time.perf_counter()
import json, sys
sys.path.insert(0, "src")
import parakahler.cli
from parakahler import catalog
if sys.argv[1]:
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        catalog.load_catalog(json.load(handle))
else:
    catalog.builtin_catalog()
print(time.perf_counter() - start)
"""


def measure_setup(root: str, catalog_path) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, catalog_path or ""],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(done.stdout)


def load_catalog(catalog_path) -> None:
    """Load the builtin catalog afresh, or parse the catalog file."""
    catalog = sys.modules["parakahler.catalog"]
    if catalog_path is None:
        catalog.builtin_catalog.cache_clear()
        catalog.builtin_catalog()
    else:
        with open(catalog_path, "r", encoding="utf-8") as handle:
            catalog.load_catalog(json.load(handle))


def run_pass(cli, argv):
    """One CLI invocation with stdout captured; (exit code, seconds)."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return code, time.perf_counter() - start


def attempt_held_out(root: str, argv, report_path: str):
    """Verify the held-out entry in a child process under a deadline.

    Returns the exit code, or None when the deadline passed and the child was
    killed.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    child = subprocess.Popen(
        [sys.executable, "-m", "parakahler.cli", *argv, "--out", report_path],
        cwd=root,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        return child.wait(timeout=HELD_OUT_DEADLINE_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description="parakahler benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "parakahler", "cli.py")):
        log(f"error: no program source under {src}; run from the root of a checkout")
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as handle:
        reference = json.load(handle)

    command, samples, conjugated = WORKLOADS[args.workload]
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    report_path = os.path.join(out_dir, f"report-{tag}.json")
    argv = [command, "--samples", str(samples), "--seed", str(args.seed)]
    ids = sorted(reference)
    catalog_path = held_path = None
    if conjugated:
        catalog_path = os.path.join(out_dir, f"conjugated-{args.seed}.json")
        held_path = os.path.join(out_dir, f"held-out-{args.seed}.json")
        generated = subprocess.run(
            [sys.executable, os.path.join(HERE, "conjugate.py"), "--seed", str(args.seed),
             "--out", catalog_path, "--held-out", held_path],
            cwd=root,
        )
        if generated.returncode != 0:
            log("error: generating the conjugated catalog failed")
            return 2
        argv += ["--catalog", catalog_path]
    argv += ["--out", report_path]

    setup = [measure_setup(root, catalog_path) for _ in range(SETUP_REPEATS)]
    cli = importlib.import_module("parakahler.cli")
    tracer = None
    if args.trace:
        tracer = Tracer().install()
    load_catalog(catalog_path)

    problems = []
    walls = []
    attempted = failed = 0
    first_report = None
    started = time.perf_counter()
    while True:
        with contextlib.suppress(FileNotFoundError):
            os.remove(report_path)
        code, seconds = run_pass(cli, argv)
        walls.append(seconds)
        attempted += len(ids)
        if code != 0 or not os.path.exists(report_path):
            problems.append(f"pass {len(walls)}: exit code {code}, no report written" if code == 0 else f"pass {len(walls)}: exit code {code}")
            break
        with open(report_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if first_report is None:
            first_report = text
            problems += check_report(
                json.loads(text), reference, ids, samples, lifts=command == "report"
            )
        elif text != first_report:
            problems.append(f"pass {len(walls)}: report differs from the first pass")
        if conjugated:
            attempted += 1
            held_report = os.path.join(out_dir, f"held-out-report-{tag}.json")
            with contextlib.suppress(FileNotFoundError):
                os.remove(held_report)
            held_argv = ["verify", "--catalog", held_path, "--samples", "1", "--seed", "0"]
            held_code = attempt_held_out(root, held_argv, held_report)
            if held_code is None:
                failed += 1
            elif held_code != 0:
                problems.append(f"held-out {HELD_OUT}: exit code {held_code}")
            else:
                with open(held_report, "r", encoding="utf-8") as handle:
                    problems += check_report(json.load(handle), reference, [HELD_OUT], 1)
        log(f"pass {len(walls)}: {seconds:.3f} s")
        elapsed = time.perf_counter() - started
        if args.trace or elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break

    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics()
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
