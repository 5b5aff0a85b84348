"""Command-line surface: load a JSON bundle, run one check, emit a report.

Exit codes: 0 pass, 1 check-failure, 2 input error, 3 inconclusive-search,
4 internal error (an exception no check maps, reported on stderr).
Reports carry no timing so that identical (bundle, seed, flags) give
byte-identical output.
"""

import argparse
import functools
import json
import sys

from . import cleft, cohomology, galois, io_json, lifting, maintheorem, search
from .comodule import regular_bmodule
from .fields import field_name
from .hopf import ValidationReport
from .linalg import Matrix

TRANSLATION_IDENTITIES = ["1.2.1", "1.2.2", "1.2.3", "1.2.4", "1.2.5",
                          "1.2.6", "1.2.6a", "1.2.7"]


class InputError(ValueError):
    pass


def _jsonable(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Matrix):
        return {"rows": x.rows, "cols": x.cols,
                "entries": io_json._emit_matrix(x.field, x)}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(),
                                                        key=lambda kv: str(kv[0]))}
    return str(x)


class Report:
    """Per-check outcomes (pass/fail/inconclusive/degenerate) + witnesses."""

    def __init__(self, command, fixtures, seed):
        self.command = command
        self.fixtures = list(fixtures)
        self.seed = seed
        self.checks = []      # (name, outcome, witness)
        self.details = {}
        self.payload = None   # extra machine output (e.g. an emitted record)
        self.output_mode = "text"

    def add(self, name, outcome, witness=None):
        assert outcome in ("pass", "fail", "inconclusive", "degenerate")
        self.checks.append((name, outcome, witness))

    def merge(self, report, names):
        """Add a hopf.ValidationReport's outcome for each of names, in
        order, a pass where it records none, and its details.  names[0] is
        the check the others build on: when it did not pass, they were not
        checked and are left out."""
        for i, name in enumerate(names):
            outcomes = [(outcome, witness) for outcome, recorded in (
                ("fail", report.failures),
                ("inconclusive", report.inconclusive),
                ("degenerate", report.degenerate))
                for n, witness in recorded if n == name]
            for outcome, witness in outcomes or [("pass", None)]:
                self.add(name, outcome, witness)
            if outcomes and i == 0:
                break
        self.details.update(report.details)

    def merge_failures(self, failures, passing=()):
        failed = {str(name) for name, _ in failures}
        for name in passing:
            if name not in failed:
                self.add(name, "pass")
        for name, witness in failures:
            self.add(str(name), "fail", witness)

    @property
    def exit_code(self):
        outcomes = {o for _, o, _ in self.checks}
        if "fail" in outcomes:
            return 1
        if "inconclusive" in outcomes:
            return 3
        return 0

    def to_dict(self):
        return {
            "command": self.command,
            "fixtures": self.fixtures,
            "seed": self.seed,
            "checks": [{"check": n, "outcome": o,
                        **({"witness": _jsonable(w)} if w is not None else {})}
                       for n, o, w in self.checks],
            "details": _jsonable(self.details),
            **({"payload": self.payload} if self.payload is not None else {}),
        }

    def to_text(self):
        lines = [f"command: {self.command}",
                 f"fixtures: {', '.join(self.fixtures)}",
                 f"seed: {self.seed}"]
        for name, outcome, witness in self.checks:
            suffix = ("  witness=" + json.dumps(_jsonable(witness), sort_keys=True)
                      if witness is not None else "")
            lines.append(f"  [{outcome.upper():12}] {name}{suffix}")
        for key in sorted(self.details, key=str):
            lines.append(f"  {key} = "
                         + json.dumps(_jsonable(self.details[key]), sort_keys=True))
        lines.append(f"result: exit {self.exit_code}")
        return "\n".join(lines) + "\n"


# -- bundle object selection -------------------------------------------------


def _load(args):
    bundle = io_json.load_bundle(args.bundle)
    if args.field is not None and field_name(bundle.field) != args.field:
        raise InputError(f"bundle field is {field_name(bundle.field)}, "
                         f"--field asked for {args.field}")
    return bundle


def _pick(table, name, kind):
    if not table:
        raise InputError(f"bundle contains no {kind}")
    if name is None:
        if len(table) == 1:
            return next(iter(table.items()))
        raise InputError(f"bundle has several {kind} "
                         f"({', '.join(sorted(table))}); pick one with --{kind.split()[0]}")
    if name not in table:
        raise InputError(f"no {kind} named {name!r} "
                         f"(have: {', '.join(sorted(table))})")
    return name, table[name]


def _pick_ca(bundle, args):
    return _pick(bundle.comodule_algebras, args.ca, "ca (comodule algebras)")


def _pick_module(bundle, args, ca_name, ca):
    if args.module == "regular":
        return "regular", regular_bmodule(ca)
    mods = {n: m for n, m in bundle.modules.items()
            if getattr(m, "ca_name", None) == ca_name}
    return _pick(mods, args.module, "module (modules)")


# -- subcommand handlers -----------------------------------------------------


def cmd_validate(args):
    bundle = _load(args)   # validators already ran eagerly
    names = []
    report = Report("validate", [], args.seed)
    for kind, table in (("hopf", bundle.hopf_algebras),
                        ("ca", bundle.comodule_algebras),
                        ("module", bundle.modules),
                        ("crossed", bundle.crossed_products)):
        for name in sorted(table):
            report.add(f"{kind}:{name}", "pass")
            names.append(name)
    report.fixtures = names
    report.details["field"] = field_name(bundle.field)
    return report


def cmd_galois(args):
    bundle = _load(args)
    name, ca = _pick_ca(bundle, args)
    report = Report("galois", [name], args.seed)
    can = galois.canonical_map(ca)
    can_p = galois.canonical_map_prime(ca)
    report.details["dims"] = \
        f"{ca.algebra.dim * ca.hopf.dim}/{can.quotient.dim}"
    report.details["galois"] = can.galois
    report.details["coinvariant_dim"] = ca.coinvariants().dim
    report.add("can-bijective", "pass" if can.galois else "fail")
    report.add("can-prime-bijective", "pass" if can_p.galois else "fail")
    return report


def cmd_translation_map(args):
    bundle = _load(args)
    name, ca = _pick_ca(bundle, args)
    report = Report("translation-map", [name], args.seed)
    can = galois.canonical_map(ca)
    if not can.galois:
        report.add("can-bijective", "fail")
        return report
    report.add("can-bijective", "pass")
    ident = galois.verify_translation_identities(ca, can)
    report.merge_failures(ident.failures, TRANSLATION_IDENTITIES)
    # the (dim A)^2 x dim H matrix of the representatives, as a Matrix prints
    da, free, f = ca.algebra.dim, can.quotient.free, ca.field
    report.details["gamma"] = {
        "rows": da * da, "cols": ca.hopf.dim, "entries": [
            [i, h, f.format(x)] for i, h, x in sorted(
                (free[q], h, x) for h, col in enumerate(can.gamma)
                for q, x in col)]}
    return report


def cmd_cat_iso_check(args):
    bundle = _load(args)
    name, ca = _pick_ca(bundle, args)
    mod_name, m = _pick_module(bundle, args, name, ca)
    report = Report("cat-iso-check", [name, mod_name], args.seed)
    thm = maintheorem.verify_theorem31(ca, m)
    passing = (["dimension-equality", "alpha-membership", "alpha-bijective",
                "alpha-gamma-beta", "alpha-round-trip"]
               + sorted(set(maintheorem.PATTERN_LABELS.values())))
    report.merge_failures(thm.failures, passing)
    report.details.update(thm.details)
    return report


def cmd_cleft(args):
    bundle = _load(args)
    name, ca = _pick_ca(bundle, args)
    report = Report("cleft", [name], args.seed)
    got = cleft.find_cleft(ca, seed=args.seed)
    found = ValidationReport()
    if isinstance(got, cleft.NotFound):
        found.miss("cleft", got,
                   {"exhaustive": got.exhaustive, "searched": got.searched})
    else:
        found.details.update(t=got.t, u=got.u)
    report.merge(found, ["cleft"])
    return report


def cmd_crossed_product(args):
    bundle = _load(args)
    name, _ = _pick(bundle.crossed_products, args.crossed,
                    "crossed (crossed products)")
    report = Report("crossed-product", [name], args.seed)
    try:
        cp = cleft.build_crossed_product(
            *bundle.crossed_products[name][:5])
    except cleft.InvalidCrossedData as exc:
        report.add("crossed-conditions", "fail",
                   {"condition": exc.condition, "witness": _jsonable(exc.witness)})
        return report
    report.add("crossed-conditions", "pass")
    href = bundle.crossed_products[name][5]
    report.payload = io_json.emit_comodule_algebra(bundle.field, cp.algebra,
                                                   href)
    report.details["dim"] = cp.algebra.algebra.dim
    return report


def cmd_smash_check(args):
    bundle = _load(args)
    name, ca = _pick_ca(bundle, args)
    report = Report("smash-check", [name], args.seed)
    report.merge(cleft.smash_check(ca, seed=args.seed),
                 ["algebra-map", "sigma-trivial", "smash-iso"])
    return report


def cmd_cohomology(args):
    if args.what != "h1":
        raise InputError(f"unknown cohomology computation {args.what!r}")
    bundle = _load(args)
    name, ca = _pick_ca(bundle, args)
    report = Report("cohomology h1", [name], args.seed)
    b = ca.coinvariants()
    cohomology._gate(ca.hopf, b.algebra)
    if args.action == "trivial":
        act = cohomology.trivial_action(ca.hopf, b.algebra)
    else:
        datum = cleft.find_cleft(ca, seed=args.seed)
        if isinstance(datum, cleft.NotFound):
            missed = ValidationReport()
            missed.miss("cleft", datum)
            report.merge(missed, ["cleft"])
            return report
        act = cohomology.action_from_cleft(ca, datum)
    try:
        z1 = cohomology.z1_enumerate(act)
    except search.SearchInconclusive as exc:
        report.add("z1-enumeration", "inconclusive", str(exc))
        return report
    report.add("z1-enumeration", "pass")
    report.details["z1_size"] = len(z1)
    report.details["cocycles"] = z1
    try:
        classes = cohomology.h1_classes(act, z1, seed=args.seed)
    except search.SearchInconclusive as exc:
        report.add("h1-classes", "inconclusive", str(exc))
        return report
    report.details["h1_size"] = len(classes)
    return report


def cmd_lift(args):
    bundle = _load(args)
    name, ca = _pick_ca(bundle, args)
    mod_name, m = _pick_module(bundle, args, name, ca)
    report = Report("lift", [name, mod_name], args.seed)
    report.merge(lifting.stability_check(ca, m, seed=args.seed), ["stable"])
    return report


def cmd_classify(args):
    bundle = _load(args)
    name, ca = _pick_ca(bundle, args)
    mod_name, m = _pick_module(bundle, args, name, ca)
    report = Report("classify", [name, mod_name], args.seed)
    try:
        cls = lifting.classify_actions(ca, m, seed=args.seed)
    except search.SearchInconclusive as exc:
        report.add("enumeration", "inconclusive", str(exc))
        return report
    report.merge_failures(cls.failures,
                          ["lifting-theorem", "round-trip-phi", "round-trip-t",
                           "lambda-omega-count", "class-count", "h1-count"])
    report.details.update(cls.details)
    return report


# -- argument parsing --------------------------------------------------------


@functools.cache
def build_parser():
    """The parser, built on the first run; run looks up each cmd_* itself."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", choices=None, default=None,
                        help='require this ground field ("Q" or "F_p")')
    common.add_argument("--seed", type=int, default=0, metavar="u64")
    common.add_argument("--output", choices=["text", "json"], default="text")

    ca_flag = argparse.ArgumentParser(add_help=False)
    ca_flag.add_argument("--ca", default=None,
                         help="comodule algebra name in the bundle")
    mod_flag = argparse.ArgumentParser(add_help=False)
    mod_flag.add_argument("--module", default=None,
                          help='module name in the bundle, or "regular" for M = B')

    parser = argparse.ArgumentParser(
        prog="hopfgalois",
        description="Exact checks for Hopf-Galois extensions, cleft/crossed "
                    "products, Sweedler cohomology and module lifting.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, parents, positionals=()):
        p = sub.add_parser(name, parents=parents)
        for extra in positionals:
            p.add_argument(extra[0], **extra[1])
        p.add_argument("bundle", help="path to a JSON workspace bundle")
        return p

    add("validate", [common])
    add("galois", [common, ca_flag])
    add("translation-map", [common, ca_flag])
    add("cat-iso-check", [common, ca_flag, mod_flag])
    add("cleft", [common, ca_flag])
    p = add("crossed-product", [common])
    p.add_argument("--crossed", default=None,
                   help="crossed-product data name in the bundle")
    add("smash-check", [common, ca_flag])
    p = add("cohomology", [common, ca_flag],
            positionals=[("what", {"choices": ["h1"]})])
    p.add_argument("--action", choices=["trivial", "from-cleft"],
                   default="trivial")
    add("lift", [common, ca_flag, mod_flag])
    add("classify", [common, ca_flag, mod_flag])
    return parser


def run(argv):
    """Parse argv, execute, and return (report, exit_code)."""
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.subcommand.replace("-", "_")]
    try:
        report = command(args)
    except (io_json.ParseError, io_json.ValidationError, InputError,
            cohomology.HypothesisViolated, galois.NotGalois) as exc:
        return exc, 2
    except (MemoryError, OverflowError):   # a size no list can have
        return "input too large", 2
    report.output_mode = args.output
    return report, report.exit_code


def main(argv=None):
    try:
        out, code = run(sys.argv[1:] if argv is None else argv)
        if code == 2:
            print(f"error: {out}", file=sys.stderr)
            return 2
        text = (json.dumps(out.to_dict(), indent=1, sort_keys=True) + "\n"
                if out.output_mode == "json" else out.to_text())
    except Exception as exc:    # a crash is no verdict: exit 4, never 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
