"""Per-layer tracing from outside the program.

`Tracer` wraps public functions of the hopfgalois modules (and sympy.solve)
for the duration of a `with` block.  Many modules bind names with
`from .x import y`, so every binding of a function object in every loaded
`hopfgalois.*` module is replaced, as is the class attribute for methods,
and all of them are restored on exit.  Layer names are module names; the
compiled or pure mod-p kernels behind `linalg._modp` form the `kernel`
layer.

For each wrapped function the tracer keeps the number of calls, inclusive
time (outermost call of that function only, so recursion is not counted
twice) and self time (inclusive time minus the time of wrapped callees).
Times are reported as shares of the pass they were measured in: the ratio
cancels the host's speed, and a layer a workload never calls reads 0 as a
share rather than as a time.  `search.share` covers any entry point of the
search layers (cleft, cohomology, lifting), each instant counted once
however they nest.  A target that no longer exists is skipped and listed in
`missing`, so a refactor of the package does not break the benchmark.
"""

import functools
import importlib
import sys
import time

ALL = ("share", "self_share", "calls")


def _candidate(tracer, args, result):
    if tracer.depth.get("cleft.find_cleft"):
        tracer.count("cleft.find_cleft.candidates")


def _z1_candidate(tracer, args, result):
    if tracer.depth.get("cohomology.z1_enumerate"):
        tracer.count("cohomology.z1_enumerate.candidates")


def _z1_hits(tracer, args, result):
    tracer.count("cohomology.z1_enumerate.hits", len(result))


def _rref_repeat(tracer, args, result):
    m = args[0]
    key = (m.field, m.rows, m.cols, tuple(m.data))
    if key in tracer.rref_seen:
        tracer.count("linalg.rref.repeats")
    tracer.rref_seen.add(key)


def _matmul_mults(tracer, args, result):
    a, b = args[0], args[1]
    tracer.count("linalg.matmul.mults", a.rows * a.cols * b.cols)


def _kron_entries(tracer, args, result):
    a, b = args[0], args[1]
    tracer.count("linalg.kron.entries", a.rows * b.rows * a.cols * b.cols)


SEARCH_ENTRY_POINTS = {"cleft.find_cleft", "cleft.smash_check",
                       "cohomology.z1_enumerate", "cohomology.h1_classes",
                       "lifting.classify_actions", "lifting.stability_check"}

# (metric prefix, module, attribute path, reported fields, after-call hook)
TARGETS = [
    ("io_json.load_bundle", "hopfgalois.io_json", "load_bundle", ALL, None),
    ("hopf.validate_hopf", "hopfgalois.hopf", "validate_hopf", ALL, None),
    ("comodule.ComoduleAlgebraData.validate", "hopfgalois.comodule",
     "ComoduleAlgebraData.validate", ALL, None),
    ("comodule.BModule.validate", "hopfgalois.comodule", "BModule.validate",
     ALL, None),
    ("comodule.coinvariants", "hopfgalois.comodule",
     "ComoduleAlgebraData.coinvariants", ALL, None),
    ("comodule.tensor_over_B", "hopfgalois.comodule", "tensor_over_B", ALL,
     None),
    ("galois.canonical_map", "hopfgalois.galois", "canonical_map", ALL, None),
    ("galois.translation_map", "hopfgalois.galois", "translation_map", ALL,
     None),
    ("galois.verify_translation_identities", "hopfgalois.galois",
     "verify_translation_identities", ALL, None),
    ("convcat.hom_space", "hopfgalois.convcat", "hom_space", ALL, None),
    ("convcat.convolution_inverse_matrix", "hopfgalois.convcat",
     "convolution_inverse_matrix", ("calls",), None),
    ("endomorphism.build_E", "hopfgalois.endomorphism", "build_E", ALL, None),
    ("endomorphism.build_F", "hopfgalois.endomorphism", "build_F", ALL, None),
    ("maintheorem.verify_theorem31", "hopfgalois.maintheorem",
     "verify_theorem31", ALL, None),
    ("maintheorem.alpha", "hopfgalois.maintheorem", "alpha", ("calls",),
     None),
    ("maintheorem.beta", "hopfgalois.maintheorem", "beta", ("calls",), None),
    ("cleft.find_cleft", "hopfgalois.cleft", "find_cleft", ALL, None),
    ("cleft._attempt", "hopfgalois.cleft", "_attempt", (), _candidate),
    ("cleft.smash_check", "hopfgalois.cleft", "smash_check", ALL, None),
    ("cohomology.z1_enumerate", "hopfgalois.cohomology", "z1_enumerate", ALL,
     _z1_hits),
    ("cohomology.z1_membership", "hopfgalois.cohomology", "z1_membership",
     ("calls",), _z1_candidate),
    ("cohomology.h1_classes", "hopfgalois.cohomology", "h1_classes", ALL,
     None),
    ("lifting.classify_actions", "hopfgalois.lifting", "classify_actions",
     ALL, None),
    ("lifting.stability_check", "hopfgalois.lifting", "stability_check", ALL,
     None),
    ("linalg.rref", "hopfgalois.linalg", "Matrix.rref",
     ("calls", "self_share"), _rref_repeat),
    ("linalg.solve", "hopfgalois.linalg", "Matrix.solve",
     ("calls", "self_share"), None),
    ("linalg.matmul", "hopfgalois.linalg", "Matrix.__matmul__",
     ("calls", "self_share"), _matmul_mults),
    ("linalg.kron", "hopfgalois.linalg", "Matrix.kron",
     ("calls", "self_share"), _kron_entries),
    ("kernel.rref_modp", "hopfgalois.linalg", "_modp.rref_modp",
     ("share", "calls"), None),
    ("kernel.matmul_modp", "hopfgalois.linalg", "_modp.matmul_modp",
     ("share", "calls"), None),
    ("sympy.solve", "sympy", "solve", ("share", "calls"), None),
    ("cli.report", "hopfgalois.cli", "Report.to_text", ("share", "calls"),
     None),
    ("cli.report", "hopfgalois.cli", "Report.to_dict", ("share", "calls"),
     None),
]

# counters a pass reports as they are, and ratios of two counters
COUNTERS = ["cleft.find_cleft.candidates", "linalg.matmul.mults",
            "linalg.kron.entries"]
RATIOS = [
    ("cohomology.z1_enumerate.hit_ratio", "cohomology.z1_enumerate.hits",
     "cohomology.z1_enumerate.candidates"),
    ("linalg.rref.repeat_ratio", "linalg.rref.repeats", "linalg.rref.calls"),
]


def metric_names():
    """Every per-pass metric name, in a fixed order."""
    names = []
    for prefix, _, _, fields, _ in TARGETS:
        for field in fields:
            name = f"{prefix}.{field}"
            if name not in names:
                names.append(name)
    return (names + COUNTERS + [name for name, _, _ in RATIOS]
            + ["search.share"])


def _resolve(module, path):
    """(owner object, attribute name) for a dotted path inside a module."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Context manager: installs the wrappers, restores the originals."""

    def __init__(self):
        self.stats = {}      # prefix -> [calls, inclusive s, self s]
        self.counters = {}
        self.depth = {}      # prefix -> active call depth
        self.search_depth = 0
        self.search_s = 0.0
        self.stack = []      # per active call: time spent in wrapped callees
        self.rref_seen = set()
        self.saved = []      # (owner, attribute, original)
        self.missing = []    # "module.path" of targets not found

    # -- bookkeeping -------------------------------------------------------

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def new_command(self):
        """Repeated reductions are counted within one command."""
        self.rref_seen = set()

    def reset(self):
        self.search_s = 0.0
        self.stats = {}
        self.counters = {}
        self.rref_seen = set()

    def snapshot(self, pass_s):
        """This pass's metrics, every name of metric_names() present.

        `pass_s` is the pass's measured wall time, the base of the shares.
        """
        out = {}
        for prefix, _, _, fields, _ in TARGETS:
            calls, incl, self_s = self.stats.get(prefix, (0, 0.0, 0.0))
            values = {"calls": calls, "share": incl / pass_s,
                      "self_share": self_s / pass_s}
            for field in fields:
                out[f"{prefix}.{field}"] = values[field]
        counts = dict(self.counters, **out)
        for name in COUNTERS:
            out[name] = counts.get(name, 0)
        for name, num, den in RATIOS:
            bottom = counts.get(den, 0)
            out[name] = counts.get(num, 0) / bottom if bottom else 0.0
        out["search.share"] = self.search_s / pass_s
        return out

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, prefix, fn, hook):
        tracer = self
        clock = time.perf_counter
        search = prefix in SEARCH_ENTRY_POINTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = tracer.depth.get(prefix, 0)
            tracer.depth[prefix] = depth + 1
            tracer.search_depth += search
            frame = [0.0]
            tracer.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer.stack.pop()
                tracer.depth[prefix] = depth
                tracer.search_depth -= search
                if search and not tracer.search_depth:
                    tracer.search_s += dt
                if tracer.stack:
                    tracer.stack[-1][0] += dt
                stat = tracer.stats.setdefault(prefix, [0, 0.0, 0.0])
                stat[0] += 1
                if depth == 0:
                    stat[1] += dt
                stat[2] += dt - frame[0]
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def __enter__(self):
        self.missing = []
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "hopfgalois" or name.startswith("hopfgalois.")]
        try:
            for prefix, module, path, _, hook in TARGETS:
                try:
                    owner, attr = _resolve(module, path)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module}.{path}")
                    continue
                wrapper = self._wrap(prefix, original, hook)
                bindings = [(owner, attr)]
                for mod in loaded:
                    bindings += [(mod, name)
                                 for name, value in vars(mod).items()
                                 if value is original and mod is not owner]
                for obj, name in bindings:
                    self.saved.append((obj, name, original))
                    setattr(obj, name, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self):
        while self.saved:
            obj, name, original = self.saved.pop()
            setattr(obj, name, original)

    def __exit__(self, *exc):
        self.restore()
        return False
