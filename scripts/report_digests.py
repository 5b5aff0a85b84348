#!/usr/bin/env python3
"""Print the sha256 of every CLI report on the shipped fixtures, as JSON.

Each of the 13 bundles in src/hopfgalois/fixtures/ is run under 11 command
forms at seeds 0 and 1 (286 runs), in-process through cli.run.  For each run
the output records the exit code, the sha256 of the text and of the JSON
report exactly as `hopfgalois` prints them, and the message on exit 2.  A
refactor that keeps every report byte-identical leaves this output unchanged:

    python scripts/report_digests.py | diff - scripts/report_digests.json
"""

import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hopfgalois import cli  # noqa: E402

FIXTURES = ROOT / "src" / "hopfgalois" / "fixtures"
FORMS = [
    ["validate"],
    ["galois"],
    ["translation-map"],
    ["cat-iso-check", "--module", "regular"],
    ["cleft"],
    ["crossed-product"],
    ["smash-check"],
    ["cohomology", "h1"],
    ["cohomology", "h1", "--action", "from-cleft"],
    ["lift", "--module", "regular"],
    ["classify", "--module", "regular"],
]
SEEDS = (0, 1)


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest(argv):
    out, code = cli.run(argv)
    if code == 2:
        return {"exit": 2, "error": str(out)}
    return {"exit": code, "text": sha(out.to_text()),
            "json": sha(json.dumps(out.to_dict(), indent=1, sort_keys=True)
                        + "\n")}


def main():
    runs = {}
    for path in sorted(FIXTURES.glob("*.json")):
        for form in FORMS:
            for seed in SEEDS:
                argv = [*form, str(path), "--seed", str(seed)]
                key = f"{path.name} {' '.join(form)} --seed {seed}"
                runs[key] = digest(argv)
    print(json.dumps(runs, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
