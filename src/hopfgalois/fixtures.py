"""Built-in comodule-algebra fixtures used by the tests and the CLI.

The same objects are also shipped as JSON data (see fixtures/); the
constructors here are the source of truth for both.
"""

from .comodule import ComoduleAlgebraData
from .hopf import (StructureConstantAlgebra, comul_on, cyclic_cayley,
                   dual_group_algebra, group_algebra, sweedler_h4, taft)

__all__ = [
    "group_algebra", "dual_group_algebra", "sweedler_h4", "taft",
    "cyclic_cayley", "regular_comodule", "trivial_coaction", "graded_m2",
    "trivial_kxk", "cp_fixture",
]


def regular_comodule(hopf):
    """A = H with rho = Delta: the standard Galois extension of k."""
    return ComoduleAlgebraData(hopf, hopf.algebra, comul_on(hopf.coalgebra, 1))


def trivial_coaction(hopf, algebra):
    """rho(a) = a (x) 1; coinvariants are all of A (never Galois unless H = k)."""
    ones = [(h, u) for h, u in enumerate(hopf.algebra.unit) if u]
    return ComoduleAlgebraData(hopf, algebra, [
        [(j, h, u) for h, u in ones] for j in range(algebra.dim)])


def trivial_kxk(field):
    """Negative fixture: k x k with trivial kC_2-coaction (not Galois, not cleft)."""
    h = group_algebra(field, cyclic_cayley(2), ["1", "g"])
    a = dual_group_algebra(field, cyclic_cayley(2), ["p0", "p1"]).algebra
    return trivial_coaction(h, a)


def graded_m2(field):
    """M_2(k) graded by C_2: diagonal in degree e, antidiagonal in degree g.

    Basis order e11, e12, e21, e22.  Coinvariants are the diagonal k x k.
    """
    h = group_algebra(field, cyclic_cayley(2), ["1", "g"])
    one, zero = field.one, field.zero
    n = 4
    labels = ["e11", "e12", "e21", "e22"]
    idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    mul = [[(idx[(i, l)], one)] if j == k else []     # e_ij e_kl = [j = k] e_il
           for i, j in idx for k, l in idx]
    unit = [one, zero, zero, one]
    alg = StructureConstantAlgebra(field, n, mul, unit, labels)
    # degree of e_ij is (i + j) mod 2 in C_2
    rho = [[(a, (i + j) % 2, one)] for (i, j), a in idx.items()]
    return ComoduleAlgebraData(h, alg, rho)


def cp_fixture(field, c):
    """CP(c) = k[x]/(x^2 - c) as a kC_2-comodule algebra; basis 1, x with
    deg x = g.  Galois iff c is invertible; cleft for every such c, smash
    iff c is a square."""
    if c == field.zero:
        raise ValueError("c must be nonzero")
    h = group_algebra(field, cyclic_cayley(2), ["1", "g"])
    one, zero = field.one, field.zero
    mul = [[(0, one)], [(1, one)], [(1, one)], [(0, c)]]  # 1x = x1 = x, xx = c
    alg = StructureConstantAlgebra(field, 2, mul, [one, zero], ["1", "x"])
    rho = [[(0, 0, one)], [(1, 1, one)]]    # 1 -> 1 (x) 1, x -> x (x) g
    return ComoduleAlgebraData(h, alg, rho)
