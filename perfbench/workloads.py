"""The benchmark's workloads: CLI command lists with expected outcomes.

An operation is one `hopfgalois` CLI command on one bundle.  Each carries
the exit code it must return and, where the mathematics fixes the answer
whatever the basis order, an oracle on the report.  The expected exit codes
and oracles hold on every seed; report digests are recorded for seed 0
only (see golden.json), because the seed is part of every report.

Bundle references: "fx:<name>" is a fixture shipped with the package,
"gen:<name>" a bundle from GENERATED, written at set-up.
"""

from math import gcd

import bundles

GENERATED = {
    # audit: F_7 size rungs for load and axiom audit
    "kC3_f7": lambda: bundles.regular(7, "kC3"),
    "kC4_f7": lambda: bundles.regular(7, "kC4"),
    "kS3_dual_f7": lambda: bundles.regular(7, "kS3_dual"),
    # theorem: regular comodules and graded M_2 with M = k^d
    "kC2_f7_free": lambda: bundles.add_free_modules(
        bundles.regular(7, "kC2"), (2,)),
    "m2_f7_free": lambda: bundles.add_free_modules(bundles.m2(7), (2, 3)),
    "kC3_f7_free": lambda: bundles.add_free_modules(
        bundles.regular(7, "kC3"), (2,)),
    "H4_f7_free": lambda: bundles.add_free_modules(
        bundles.regular(7, "H4"), (2,)),
    # search-proof
    "kC3_f13": lambda: bundles.regular(13, "kC3"),
    "kC4_f13": lambda: bundles.regular(13, "kC4"),
    "k4_trivial_f7": lambda: bundles.trivial_k4(7),
    "m2_f7": lambda: bundles.m2(7),
    "kC3_f31": lambda: bundles.regular(31, "kC3"),
    # search-witness
    "kC5_dual_f7": lambda: bundles.regular(7, "kC5_dual"),
    "m2_f13": lambda: bundles.m2(13),
}


class Op:
    """One CLI command: argv with a bundle reference, exit code, oracle."""

    def __init__(self, words, bundle, flags=(), exit=0, oracle=None):
        self.words = list(words)
        self.bundle = bundle
        self.flags = list(flags)
        self.exits = exit if isinstance(exit, tuple) else (exit,)
        self.oracle = oracle

    @property
    def name(self):
        """Stable label, used as the key of the recorded digests."""
        return " ".join(self.words + [self.bundle] + self.flags)

    def argv(self, paths, seed):
        """The CLI argv; the workload seed is the CLI seed unless fixed."""
        seed_flag = [] if "--seed" in self.flags else ["--seed", str(seed)]
        return self.words + [paths[self.bundle]] + self.flags + seed_flag


# -- oracles: each returns None when the report is right, else a reason -------


def all_pass(report):
    """Every check passed (translation identities, Theorem 3.1, audits)."""
    bad = [name for name, outcome, _ in report.checks if outcome != "pass"]
    return f"checks not passing: {bad}" if bad else None


def galois(report):
    return None if report.details.get("galois") is True else "not Galois"


def h1_order(expected):
    """|H^1(G, k)| under the trivial action is |Hom(G, k^x)|."""
    def check(report):
        got = report.details.get("h1_size")
        if got != expected:
            return f"|H^1| = {got}, expected {expected}"
        return None
    return check


def exhaustive_none(p, d):
    """A negative search over F_p^d must be a full enumeration (a proof)."""
    def check(report):
        witness = {"exhaustive": True, "searched": p ** d}
        want = [("cleft", "fail", witness)]
        got = report.checks
        return None if got == want else f"expected {want}, got {got}"
    return check


def lambda_omega(report):
    d = report.details
    if d.get("lambda_count") != d.get("omega_count"):
        return (f"|Lambda| = {d.get('lambda_count')} but "
                f"|Omega| = {d.get('omega_count')}")
    return None


def h1_cyclic(n, p):
    return h1_order(gcd(n, p - 1))


WORKLOADS = {
    # Load and axiom audit: Q Fraction path, sympy path, every subcommand.
    "audit": [
        Op(["validate"], "fx:kc2", oracle=all_pass),
        Op(["translation-map"], "fx:dual_kc2", oracle=all_pass),
        Op(["galois"], "fx:m2_graded", oracle=galois),
        Op(["lift"], "fx:m2_graded", ["--module", "b_regular"]),
        Op(["cleft"], "fx:cp2"),
        Op(["smash-check"], "fx:cp2", exit=1),
        Op(["smash-check"], "fx:cp4"),
        # over Q, Hom(C_2, Q^x) = {+1, -1}
        Op(["cohomology", "h1"], "fx:kc2", oracle=h1_order(2)),
        Op(["crossed-product"], "fx:cp_minus1_crossed"),
        Op(["galois"], "fx:trivial_kxk", exit=1),
        Op(["cleft"], "fx:trivial_kxk", exit=3),
        Op(["translation-map"], "fx:h4_f5", oracle=all_pass),
        Op(["cat-iso-check"], "fx:h4_f5", ["--module", "regular"],
           oracle=all_pass),
        Op(["cleft"], "fx:m2_graded_f3", ["--seed", "3"]),
        Op(["classify"], "fx:m2_graded_f3", ["--module", "b_regular"],
           oracle=lambda_omega),
        Op(["validate"], "gen:kC3_f7", oracle=all_pass),
        Op(["translation-map"], "gen:kC4_f7", oracle=all_pass),
        Op(["translation-map"], "gen:kS3_dual_f7", oracle=all_pass),
    ],
    # Construction, verification and linear solves of Theorem 3.1.
    "theorem": [
        Op(["cat-iso-check"], f"gen:{b}", ["--module", f"k{d}"],
           oracle=all_pass)
        for b, dims in (("kC2_f7_free", (2,)), ("m2_f7_free", (2, 3)),
                        ("kC3_f7_free", (2,)), ("H4_f7_free", (2,)))
        for d in dims
    ],
    # Searches that must try every candidate.
    "search-proof": [
        Op(["cohomology", "h1"], "gen:kC3_f13", oracle=h1_cyclic(3, 13)),
        Op(["cohomology", "h1"], "gen:kC4_f13", oracle=h1_cyclic(4, 13)),
        Op(["cohomology", "h1"], "gen:kC3_f31", oracle=h1_cyclic(3, 31)),
        # Hom^H(kC_2, k^4) is 4-dimensional under the trivial coaction
        Op(["cleft"], "gen:k4_trivial_f7", exit=1,
           oracle=exhaustive_none(7, 4)),
        Op(["smash-check"], "gen:k4_trivial_f7", exit=1),
        Op(["classify"], "gen:m2_f7", ["--module", "regular"],
           oracle=lambda_omega),
    ],
    # The same search layer, stopping at the first witness.
    "search-witness": [
        Op(["cleft"], "gen:kC3_f13"),
        Op(["cleft"], "gen:kC4_f7"),
        Op(["cleft"], "gen:kC3_f31"),
        Op(["cleft"], "gen:kC5_dual_f7"),
        Op(["smash-check"], "gen:kC4_f7"),
        Op(["lift"], "gen:m2_f13", ["--module", "regular"]),
        Op(["cohomology", "h1"], "gen:m2_f13", ["--action", "from-cleft"]),
    ],
}

# Operations that should end in a clean exit 1 or 2 but today raise an
# uncaught galois.NotGalois.  They run once per `audit` run, outside the
# timed passes, so the defect stays visible (cli.fail_ratio) without
# turning the timed workload into one whose operations fail.
KNOWN_DEFECTS = {
    "audit": [
        Op(["cat-iso-check"], "fx:trivial_kxk_f3", ["--module", "regular"],
           exit=(1, 2)),
        Op(["lift"], "fx:trivial_kxk_f3", ["--module", "regular"],
           exit=(1, 2)),
        Op(["classify"], "fx:trivial_kxk_f3", ["--module", "regular"],
           exit=(1, 2)),
    ],
}


def generated_names(workload):
    """The generated bundles one workload needs (its set-up cost)."""
    ops = WORKLOADS[workload] + KNOWN_DEFECTS.get(workload, [])
    return sorted({op.bundle[len("gen:"):] for op in ops
                   if op.bundle.startswith("gen:")})
