"""Generated benchmark bundles, written to disk at set-up.

Every bundle is built with the package's own constructors
(`hopfgalois.hopf`, `hopfgalois.fixtures`) and serialized with
`io_json.emit_bundle`.  The workload seed then relabels the basis of every
Hopf algebra and comodule algebra by a seeded permutation, which gives an
isomorphic bundle; seed 0 keeps the constructors' order.  The relabelling
works on the documented JSON schema (see `hopfgalois.io_json`), so it does
not rely on the library it feeds.
"""

import json
import random

from hopfgalois import io_json
from hopfgalois.fields import PrimeField
from hopfgalois.fixtures import (dual_group_algebra, graded_m2, group_algebra,
                                 regular_comodule, sweedler_h4,
                                 trivial_coaction)
from hopfgalois.hopf import cyclic_cayley

# S_3 as permutations of {0, 1, 2}; element k is _S3[k], the product is
# composition (p * q)(x) = p(q(x)).
_S3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]


def s3_cayley():
    index = {p: k for k, p in enumerate(_S3)}
    return [[index[tuple(p[q[x]] for x in range(3))] for q in _S3]
            for p in _S3]


def _kc(field, n):
    return group_algebra(field, cyclic_cayley(n),
                         ["1"] + [f"g{k}" for k in range(1, n)])


def _kc_dual(field, n):
    return dual_group_algebra(field, cyclic_cayley(n),
                              [f"p{k}" for k in range(n)])


def _ks3_dual(field):
    return dual_group_algebra(field, s3_cayley(), [f"q{k}" for k in range(6)])


HOPF = {
    "kC2": lambda f: _kc(f, 2),
    "kC3": lambda f: _kc(f, 3),
    "kC4": lambda f: _kc(f, 4),
    "kC5_dual": lambda f: _kc_dual(f, 5),
    "kS3_dual": _ks3_dual,
    "H4": sweedler_h4,
}


def _bundle(field, hname, hopf, cname, ca):
    b = io_json.WorkspaceBundle(field)
    b.hopf_algebras[hname] = hopf
    ca.hopf_name = hname
    b.comodule_algebras[cname] = ca
    return io_json.emit_bundle(b)


def regular(p, hname):
    """H as a comodule algebra over itself (always Galois over k)."""
    field = PrimeField(p)
    hopf = HOPF[hname](field)
    return _bundle(field, hname, hopf, "regular", regular_comodule(hopf))


def m2(p):
    """M_2(k) graded by C_2 (Galois; coinvariants are the diagonal k x k)."""
    field = PrimeField(p)
    ca = graded_m2(field)
    return _bundle(field, "kC2", ca.hopf, "m2_graded", ca)


def trivial_k4(p):
    """k^4 with the trivial kC_2-coaction: not Galois and never cleft."""
    field = PrimeField(p)
    hopf = _kc(field, 2)
    algebra = _kc_dual(field, 4).algebra
    return _bundle(field, "kC2", hopf, "k4_trivial",
                   trivial_coaction(hopf, algebra))


def add_free_modules(record, dims):
    """Add M = k^d for each d, as right modules over the coinvariants B.

    B is k (one action, the identity) for a regular comodule and the
    diagonal k x k (two orthogonal idempotents) for graded M_2; on k^d the
    first idempotent projects onto the first ceil(d/2) coordinates.
    """
    (cname,) = record["comodule_algebras"]
    b_dim = 2 if cname == "m2_graded" else 1
    one = "1 mod " + record["field"][len("F_"):]
    modules = record.setdefault("modules", {})
    for d in dims:
        if b_dim == 1:
            actions = [[[i, i, one] for i in range(d)]]
        else:
            half = (d + 1) // 2
            actions = [[[i, i, one] for i in range(half)],
                       [[i, i, one] for i in range(half, d)]]
        modules[f"k{d}"] = {"comodule_algebra": cname, "dim": d,
                            "actions": actions}
    return record


# -- seeded relabelling ------------------------------------------------------


def _permutation(seed, tag, n):
    """New index of each old basis index; the identity at seed 0."""
    order = list(range(n))
    if seed:
        random.Random(f"{seed}/{tag}").shuffle(order)
    return order


def _relabel_vector(vec, sigma):
    out = [None] * len(vec)
    for i, x in enumerate(vec):
        out[sigma[i]] = x
    return out


def _relabel_entries(entries, legs):
    """Apply one index map per leg to sparse [i, ..., coeff] entries."""
    return sorted([sigma[i] for sigma, i in zip(legs, e[:-1])] + [e[-1]]
                  for e in entries)


def relabel(record, seed):
    """The same bundle with every Hopf and comodule algebra basis permuted."""
    record = json.loads(json.dumps(record))
    perms = {}
    for name, h in sorted(record.get("hopf_algebras", {}).items()):
        s = perms[name] = _permutation(seed, f"hopf/{name}", h["dim"])
        h["labels"] = _relabel_vector(h["labels"], s)
        h["unit"] = _relabel_vector(h["unit"], s)
        h["counit"] = _relabel_vector(h["counit"], s)
        h["mul"] = _relabel_entries(h["mul"], (s, s, s))
        h["comul"] = _relabel_entries(h["comul"], (s, s, s))
        h["antipode"] = _relabel_entries(h["antipode"], (s, s))
        h["antipode_inv"] = _relabel_entries(h["antipode_inv"], (s, s))
    for name, a in sorted(record.get("comodule_algebras", {}).items()):
        s = _permutation(seed, f"ca/{name}", a["dim"])
        a["labels"] = _relabel_vector(a["labels"], s)
        a["unit"] = _relabel_vector(a["unit"], s)
        a["mul"] = _relabel_entries(a["mul"], (s, s, s))
        a["coaction"] = _relabel_entries(a["coaction"],
                                         (s, perms[a["hopf"]], s))
    return record
