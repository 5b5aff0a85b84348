#!/usr/bin/env python3
"""One CLI benchmark for hopfgalois.

    python3 perfbench/run.py --workload audit --seed 0 --seconds 24 --trace 0

Runs one workload of CLI commands (see workloads.py) in this process through
`hopfgalois.cli.run`, each command paying its own `load_bundle` as a CLI user
does, and checks every operation: exit code, mathematical oracle and, at
seed 0, the sha256 of the rendered text and JSON report (golden.json).

With `--trace 0` it reports the end-to-end metrics: set-up time (median of
several fresh processes that import hopfgalois and write the workload's
bundles), wall time of one pass over the command list (median over the timed
passes; the first pass warms up and is only checked) and peak resident
memory.  With `--trace 1` it alternates plain and traced passes and reports
the per-layer metrics of tracing.py (medians over the traced passes), the
traced pass time and tracing overhead, the fixed-size kernel timings of
kernel.py and the fail ratio that includes the known-defect operations.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "hopfgalois", "fixtures")
GOLDEN = os.path.join(HERE, "golden.json")
WORK = os.path.join(HERE, "_work")
SETUP_SAMPLES = 7
MIN_TIMED_PASSES = 2


def use_checkout_sources():
    """Import hopfgalois from this checkout's src/ and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hopfgalois", "cli.py")):
        raise SystemExit(f"perfbench: no hopfgalois sources under {SRC}")
    sys.path.insert(0, SRC)
    import hopfgalois
    if not os.path.abspath(hopfgalois.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: hopfgalois imported from "
                         f"{hopfgalois.__file__}, not from {SRC}")


# -- set-up -------------------------------------------------------------------


def setup(workload, seed, workdir):
    """Write the workload's generated bundles; map references to paths."""
    import bundles
    import workloads
    paths = {}
    for name in workloads.generated_names(workload):
        path = os.path.join(workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(bundles.relabel(workloads.GENERATED[name](), seed), fh,
                      sort_keys=True)
        paths["gen:" + name] = path
    for op in workloads.WORKLOADS[workload] + \
            workloads.KNOWN_DEFECTS.get(workload, []):
        if op.bundle.startswith("fx:"):
            paths[op.bundle] = os.path.join(FIXTURES,
                                            op.bundle[len("fx:"):] + ".json")
    return paths


def time_setups(workload, seed, workdir):
    """Wall time of fresh processes that import hopfgalois and run setup()."""
    samples = []
    for k in range(SETUP_SAMPLES):
        target = os.path.join(workdir, f"setup{k}")
        os.mkdir(target)
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--workload", workload, "--seed", str(seed),
                        "--setup-into", target],
                       check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


# -- one operation and one pass -----------------------------------------------


def render(out, code):
    """What the CLI prints for a result: the text and the JSON report."""
    if code == 2:
        return f"error: {out}\n"
    return (out.to_text()
            + json.dumps(out.to_dict(), indent=1, sort_keys=True) + "\n")


def execute(op, paths, seed):
    """Run one command; (seconds, exit code, report, rendered text, error)."""
    from hopfgalois import cli
    argv = op.argv(paths, seed)
    t0 = time.perf_counter()
    try:
        out, code = cli.run(argv)
        text = render(out, code)
    except Exception as exc:  # an uncaught error is a failed operation
        return (time.perf_counter() - t0, None, None, None,
                f"raised {type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, code, out, text, None


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def judge(op, result, golden):
    """None when the operation succeeded, else why it failed.

    `golden` maps operation names to report digests; None skips that check.
    """
    _, code, out, text, error = result
    if error is not None:
        return error
    if code not in op.exits:
        return f"exit {code}, expected {' or '.join(map(str, op.exits))}"
    if op.oracle is not None and code != 2:
        reason = op.oracle(out)
        if reason is not None:
            return f"oracle: {reason}"
    if golden is not None:
        if op.name not in golden:
            return "no recorded report digest"
        if digest(text) != golden[op.name]:
            return "report differs from the recorded digest"
    return None


def run_pass(ops, paths, seed, golden, tracer=None):
    """(total seconds, failure messages) of one pass over the command list."""
    total, failures = 0.0, []
    for op in ops:
        if tracer is not None:
            tracer.new_command()
        result = execute(op, paths, seed)
        total += result[0]
        reason = judge(op, result, golden)
        if reason is not None:
            failures.append(f"{op.name}: {reason}")
    return total, failures


# -- metadata -----------------------------------------------------------------


def git_revision():
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines():
    pkg = os.path.join(SRC, "hopfgalois")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


# -- the run ------------------------------------------------------------------


def measure(workload, seed, seconds, traced, workdir):
    import workloads
    from tracing import Tracer, metric_names

    ops = workloads.WORKLOADS[workload]
    golden = None
    if seed == 0:
        with open(GOLDEN) as fh:
            golden = json.load(fh).get(workload, {})

    setup_samples = [] if traced else time_setups(workload, seed, workdir)
    paths = setup(workload, seed, workdir)

    # The first pass warms up lazy imports (sympy) and is only checked.
    deadline = time.perf_counter() + seconds
    _, failures = run_pass(ops, paths, seed, golden)
    attempted = len(ops)
    plain, traced_totals, snapshots = [], [], []
    tracer = Tracer()
    while True:
        done = plain + traced_totals
        enough = (len(plain) >= MIN_TIMED_PASSES
                  and (not traced or len(traced_totals) >= MIN_TIMED_PASSES))
        if enough and time.perf_counter() + statistics.median(done) > deadline:
            break
        if traced and len(traced_totals) < len(plain):
            tracer.reset()
            with tracer:
                total, failed = run_pass(ops, paths, seed, golden, tracer)
            snapshots.append(tracer.snapshot(total))
            traced_totals.append(total)
        else:
            total, failed = run_pass(ops, paths, seed, golden)
            plain.append(total)
        failures += failed
        attempted += len(ops)

    probes = workloads.KNOWN_DEFECTS.get(workload, [])
    probe_failures = []
    for op in probes:
        reason = judge(op, execute(op, paths, seed), None)
        if reason is not None:
            probe_failures.append(f"{op.name}: {reason}")
    passes = 1 + len(plain) + len(traced_totals)
    # failed / attempted over one pass of the command list with the
    # known-defect operations included
    fail_ratio = ((len(failures) / passes + len(probe_failures))
                  / (len(ops) + len(probes)))

    from hopfgalois.linalg import BACKEND
    meta = {"workload": workload, "seed": seed, "backend": BACKEND,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_revision": git_revision(), "source_lines": source_lines(),
            "plain_passes_s": plain, "traced_passes_s": traced_totals,
            "known_defects": probe_failures, "fail_ratio": fail_ratio}
    if traced:
        from kernel import bench
        kernel_metrics, agree = bench(seed)
        attempted += 1
        if not agree:
            failures.append("kernel backends disagree")
        values = {name: statistics.median(s[name] for s in snapshots)
                  for name in metric_names()}
        values.update(kernel_metrics)
        values["trace.pass_s"] = statistics.median(traced_totals)
        values["trace.overhead_ratio"] = (values["trace.pass_s"]
                                          / statistics.median(plain))
        meta["untraced"] = sorted(set(tracer.missing))
        values["cli.fail_ratio"] = fail_ratio
        values["source.lines"] = meta["source_lines"]
    else:
        meta["setup_samples_s"] = setup_samples
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
        }
    for line in failures + probe_failures:
        print(f"perfbench: {line}", file=sys.stderr)
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": v, "unit": unit_of(name)}
                        for name, v in values.items()}}


def unit_of(name):
    """A metric's unit, read from the last part of its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("wall_s", "setup_s", "pass_s"):
        return "s"
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("ratio", "ratio"),
                         ("share", "ratio"), ("lines", "lines")):
        if last.endswith(suffix):
            return unit
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    use_checkout_sources()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    if args.setup_into is not None:
        setup(args.workload, args.seed, args.setup_into)
        return 0

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
