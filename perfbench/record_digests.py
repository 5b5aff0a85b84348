#!/usr/bin/env python3
"""Record the seed-0 report digests that run.py checks (golden.json).

    python3 perfbench/record_digests.py

Runs every workload once at seed 0 and refuses to record while any
operation returns an unexpected exit code or breaks its oracle.  Re-record
only for a change that is meant to alter reports, and say so.
"""

import json
import os
import sys
import tempfile

import run


def main():
    run.use_checkout_sources()
    import workloads
    golden, problems = {}, []
    os.makedirs(run.WORK, exist_ok=True)
    for workload, ops in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
            paths = run.setup(workload, 0, workdir)
            golden[workload] = {}
            for op in ops:
                result = run.execute(op, paths, 0)
                reason = run.judge(op, result, None)
                if reason is not None:
                    problems.append(f"{workload}: {op.name}: {reason}")
                else:
                    golden[workload][op.name] = run.digest(result[3])
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
