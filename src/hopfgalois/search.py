"""The one search policy for every span search (Thm 5.2/5.4, Prop 5.7, 6.5).

A candidate is a coefficient tuple c in k^d, and `test(c)` returns a witness
or None.  Over F_p with p^d <= cap the box is searched in itertools.product
order, so a miss is a proof.  Otherwise the d basis tuples and the all-ones
tuple are tried, then `tries` draws from random.Random(seed); such a miss is
NotFound(exhaustive=False) and may only ever be reported as inconclusive.
Over Q the quadratic systems are solved exactly by `rational_points`.
NotFound.searched is the size of the space the search covers and
NotFound.tried the number of candidates test was called on.

Dead sub-boxes.  An invertibility search passes `degree` = n: test(c) is
None exactly where P(c) = det(Sum_k c_k L(m_k)) vanishes, and P has degree
<= n in each coordinate.  Walk the box lexicographically, coordinate by
coordinate.  Once n + 1 values of coordinate j (the earlier ones fixed)
have sub-boxes without a hit, then for every fixed suffix the univariate
polynomial x -> P(prefix, x, suffix) has n + 1 roots, so it is zero and no
value of c_j hits either: the walk can leave that level.  It returns at the
first hit, so every sub-box it finishes has none, and it visits exactly the
grid range(min(p, n + 1))^d in lexicographic order.  That grid is a
subsequence of the box in the same order and holds the box's first hit
(Alon's Combinatorial Nullstellensatz), so witnesses and NotFound(True,
p^d, ...) are unchanged; only boxes without a hit are skipped.

Linear once.  An invertibility search builds the operators L(m_k) of its
basis once (convolution by m_k, lmul, or m_k) in a linalg.OperatorSpan, so c
costs one sparse sum and one full-rank test.  The test is a proof:
L(f * g) = L(f) L(g), so f has a right inverse iff L(f) has full rank, and
in finite dimension a right inverse is two-sided.  Hits are handled as before (cleft
still inverts and normalizes one), so every witness is unchanged.

Unital slice.  Z^1, Omega_A and Lambda_M are enumerated on the affine slice
{c : A c = b} of their linear unit condition (v(1) = 1, t(1) = 1, phi eta =
id), and the cap counts its p^free tuples.  The system is row-reduced with
its columns reversed, so each pivot coordinate is the last of its row and
depends only on earlier free coordinates.  Two slice points then first differ
at a free coordinate, so the free tuples in itertools.product order give the
slice in lexicographic order: the order in which the box k^d meets it, and
every list and witness is unchanged.  An inconsistent system has no points.
The algebra-map search walks the slice t(1) = 1 through first(unit=...),
but there the box p^d still decides exhaustive or sampled, as before.
"""

import itertools
import random
from fractions import Fraction

from .fields import field_name
from .linalg import Matrix

EXHAUSTIVE_CAP = 10 ** 6
QQ_COEFF_BOUND = 3
FREE_SAMPLES = (0, 1, -1, 2)


class SearchInconclusive(RuntimeError):
    pass


class NotFound:
    """Search certificate: exhaustive means the failure is a proof."""

    def __init__(self, exhaustive, searched, dim, detail="", tried=None):
        self.exhaustive = exhaustive
        self.searched = searched
        self.dim = dim
        self.detail = detail
        self.tried = searched if tried is None else tried

    def __repr__(self):
        kind = "exhaustive" if self.exhaustive else "sampled"
        return f"NotFound({kind}, searched={self.searched}, dim={self.dim})"


def enumerable(field, d, cap=EXHAUSTIVE_CAP, unit=None):
    """Whether all of the unital slice of k^d is tried: a miss is a proof."""
    return field.kind == "Fp" and field.p ** (
        unital_slice(field, d, unit)[0] if unit else d) <= cap


def _sampled(field, d, seed, tries):
    """Warm start (basis tuples, then all ones), then `tries` seeded draws."""
    for j in range(d):
        yield tuple(field.one if i == j else field.zero for i in range(d))
    yield (field.one,) * d
    rng = random.Random(seed)
    for _ in range(tries):
        if field.kind == "Fp":
            yield tuple(rng.randrange(field.p) for _ in range(d))
        else:
            yield tuple(field.from_int(
                rng.randint(-QQ_COEFF_BOUND, QQ_COEFF_BOUND))
                for _ in range(d))


def first(field, d, test, seed=0, tries=500, cap=EXHAUSTIVE_CAP,
          degree=None, unit=None):
    """The first witness test(c) that is not None, or NotFound.

    When the box k^d is enumerable, `degree` (test(c) is None exactly where
    a polynomial of degree <= degree in each coordinate vanishes) skips its
    dead sub-boxes and `unit` (see unital_slice; every hit lies on the
    slice) walks only the unital slice; either way the first hit of the box
    is found and a miss is a proof over all p^d tuples."""
    if enumerable(field, d, cap):
        if unit is not None:
            points = unital_slice(field, d, unit)[1]
        else:
            width = field.p if degree is None else min(field.p, degree + 1)
            points = itertools.product(range(width), repeat=d)
        tried = 0
        for coeffs in points:
            tried += 1
            hit = test(coeffs)
            if hit is not None:
                return hit
        return NotFound(True, field.p ** d, d, "full enumeration", tried)
    for coeffs in _sampled(field, d, seed, tries):
        hit = test(coeffs)
        if hit is not None:
            return hit
    return NotFound(False, tries + d + 1, d,
                    f"not found in {tries} seeded samples")


def unital_slice(field, d, unit=None):
    """(free, points) of the slice of c in k^d where unit = (images, target)
    states sum_i c_i images[i] = target: the number of free coordinates, and
    the p^free points in lexicographic order (see the module doc), none if
    the system is inconsistent.  No unit is the whole box."""
    images, target = unit or ((), ())
    red, pivots = Matrix(field, len(target), d + 1, [
        x for r, b in enumerate(target)
        for x in [img[r] for img in images[::-1]] + [b]]).rref()
    if d in pivots:
        return 0, iter(())
    fixed = {d - 1 - q: red.row(r) for r, q in enumerate(pivots)}
    free = [i for i in range(d) if i not in fixed]
    # c_i = b - sum_k a_k c_free[k]; the RREF leaves only free[k] < i in a row
    rules = [(i, row[d], [(k, row[d - 1 - j]) for k, j in enumerate(free)
                          if row[d - 1 - j] != field.zero])
             for i, row in sorted(fixed.items())]

    def points():
        for values in itertools.product(range(field.p), repeat=len(free)):
            c = list(values)
            for i, b, terms in rules:
                c.insert(i, (b - sum(a * values[k] for k, a in terms))
                         % field.p)
            yield tuple(c)

    return len(free), points()


def every(field, d, test, cap=EXHAUSTIVE_CAP, unit=None):
    """All witnesses on the unital slice of k^d in lexicographic order;
    raises SearchInconclusive when its p^free tuples exceed the cap."""
    free, points = unital_slice(field, d, unit)
    if not enumerable(field, free, cap):
        raise SearchInconclusive(
            f"|{field_name(field)}|^{free} exceeds the enumeration cap")
    return [hit for hit in map(test, points) if hit is not None]


def found(result, what):
    """True for a witness, False for an exhaustive miss; a sampled miss is
    no answer and raises SearchInconclusive."""
    if not isinstance(result, NotFound):
        return True
    if result.exhaustive:
        return False
    raise SearchInconclusive(f"{what} not found: {result!r}")


def classes(items, equivalent):
    """Partition items into classes, each headed by its first member: an
    item joins the first class whose head r has equivalent(item, r), and
    otherwise heads a new one."""
    out = []
    for item in items:
        home = next((cls for cls in out if equivalent(item, cls[0])), None)
        if home is None:
            out.append([item])
        else:
            home.append(item)
    return out


def rational_points(algebra, ops, equations, test, refuse=None):
    """Witnesses among the rational solutions of a quadratic system over Q.

    The unknown is t = sum_i c_i ops[i], a map into `algebra` (_columns).
    `equations(t, prod)` yields expressions that vanish exactly on the wanted
    t; t[j] is the symbolic column t(e_j) and prod multiplies two symbolic
    vectors of `algebra`.  The system is solved with sympy and each
    rational point c (a tuple of Fractions) is yielded as test(c) when that is
    not None.  A positive-dimensional family raises SearchInconclusive(refuse),
    or, when refuse is None, is sampled at every assignment of FREE_SAMPLES to
    its free unknowns; exhausting the points after such a sample raises
    SearchInconclusive, since the family was not searched in full.
    """
    import sympy
    n, rows = len(ops), algebra.dim
    cs = sympy.symbols(f"c0:{n}")
    t_cols = [[sympy.Integer(0)] * rows for _ in ops[0]]
    for c, op in zip(cs, ops):
        for j, col in enumerate(op):
            for r, x in col:
                t_cols[j][r] += sympy.Rational(x) * c

    def prod(x, y):
        out = [sympy.Integer(0)] * rows
        for a in range(rows):
            if x[a] != 0:
                for b in range(rows):
                    for r, coeff in algebra.mul_table[a * rows + b]:
                        out[r] += sympy.Rational(coeff) * x[a] * y[b]
        return out

    eqs = [sympy.expand(e) for e in equations(t_cols, prod)]
    sols = sympy.solve([e for e in eqs if e != 0], list(cs), dict=True)
    sampled = False
    for sol in sols:
        free = set(c for c in cs if c not in sol)
        for v in sol.values():
            free |= v.free_symbols
        free = sorted(free, key=lambda sym: sym.name)
        assignments = [sol]
        if free:
            if refuse is not None:
                raise SearchInconclusive(refuse)
            sampled = True
            assignments = []
            for combo in itertools.product(map(sympy.Integer, FREE_SAMPLES),
                                           repeat=len(free)):
                subs = dict(zip(free, combo))
                assignments.append({c: (sol[c].subs(subs) if c in sol
                                        else subs[c]) for c in cs})
        for assign in assignments:
            vals = [sympy.nsimplify(assign.get(c, sympy.Integer(0)))
                    for c in cs]
            if not all(v.is_rational for v in vals):
                continue
            hit = test(tuple(Fraction(int(num), int(den))
                             for num, den in map(sympy.fraction, vals)))
            if hit is not None:
                yield hit
    if sampled:
        raise SearchInconclusive("a positive-dimensional family was sampled "
                                 "without a witness")
