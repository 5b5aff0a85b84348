"""Fixed-size mod-p kernel timings: the kernel layer's own micro-benchmark.

Times `matmul_modp` and `rref_modp` on random square matrices for every
backend that imports (the pure-Python twin always, the compiled extension
when it is built) and checks that the backends agree bit for bit.
"""

import random
import time

SIZE = 60
REPS = 3
PRIME = 10007


def _best(fn, reps):
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench(seed, size=SIZE, reps=REPS, p=PRIME):
    """(metrics of the active backend, whether all backends agree)."""
    from hopfgalois import _modp_py
    from hopfgalois.linalg import BACKEND
    backends = {"pure": _modp_py}
    try:
        from hopfgalois import _modp_fast
        backends["compiled"] = _modp_fast
    except ImportError:
        pass

    rng = random.Random(seed)
    a = [rng.randrange(p) for _ in range(size * size)]
    b = [rng.randrange(p) for _ in range(size * size)]
    results = {}
    for name, mod in backends.items():
        t_mm, mm = _best(lambda: mod.matmul_modp(a, size, size, b, size, size,
                                                 p), reps)
        t_rr, (rr, piv) = _best(lambda: mod.rref_modp(list(a), size, size, p),
                                reps)
        results[name] = (t_mm, t_rr, list(mm), list(rr), list(piv))
    agree = all(r[2:] == results["pure"][2:] for r in results.values())
    t_mm, t_rr = results[BACKEND][:2]
    return {"kernel.bench_matmul_ms": t_mm * 1e3,
            "kernel.bench_rref_ms": t_rr * 1e3}, agree
