"""The one search policy for every span search (Thm 5.2/5.4, Prop 5.7, 6.5).

A candidate is a coefficient tuple c in k^d, and `test(c)` returns a witness
or None.  Over F_p with p^d <= EXHAUSTIVE_CAP the box is searched in
itertools.product order, so a miss is a proof.  Otherwise the d basis tuples
and the all-ones tuple are tried, then SAMPLES draws from
random.Random(seed); such a miss is NotFound(exhaustive=False) and may only
ever be reported as inconclusive.  The two constants are the whole budget,
read when a search runs.  Over Q the quadratic systems are solved exactly
by `rational_points`.  NotFound.searched is the size of the space the
search covers and NotFound.tried the number of candidates test was called
on.

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
in finite dimension a right inverse is two-sided.  `invertible` is that
search; cleft's clefting search walks the same span but inverts and
normalizes its hit.

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

Rational points.  `rational_points` solves over Q in Fractions (Cox, Little
and O'Shea, Ideals, Varieties, and Algorithms, ch. 2-3).  Buchberger gives
the reduced grevlex Groebner basis; if every unknown has a pure power among
its leading monomials there are finitely many points, and FGLM turns it
into the reduced lex basis G, c_0 > c_1 > ....  Otherwise G is the lex
basis from Buchberger, and its free unknowns (the lex-last maximal set of
unknowns holding no leading monomial of G) are sampled.  The points are
built from the last unknown to the first: the elements of G in c_i,
c_{i+1}, ... are specialised at each tail fixed so far, and the rational
roots of the nonzero ones are intersected.
"""

import heapq
import itertools
import math
import random
from fractions import Fraction
from operator import add, sub

from .fields import _is_prime, field_name
from .linalg import Matrix, OperatorSpan

EXHAUSTIVE_CAP = 10 ** 6
SAMPLES = 500
QQ_COEFF_BOUND = 3
FREE_SAMPLES = (0, 1, -1, 2)
PRIME_BOUND = 2 ** 10


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


def enumerable(field, d, unit=None):
    """Whether all of the unital slice of k^d is tried: a miss is a proof."""
    return field.kind == "Fp" and field.p ** (
        unital_slice(field, d, unit)[0] if unit else d) <= EXHAUSTIVE_CAP


def _sampled(field, d, seed):
    """Warm start (basis tuples, then all ones), then SAMPLES seeded draws."""
    for j in range(d):
        yield tuple(field.one if i == j else field.zero for i in range(d))
    yield (field.one,) * d
    rng = random.Random(seed)
    for _ in range(SAMPLES):
        if field.kind == "Fp":
            yield tuple(rng.randrange(field.p) for _ in range(d))
        else:
            yield tuple(field.from_int(
                rng.randint(-QQ_COEFF_BOUND, QQ_COEFF_BOUND))
                for _ in range(d))


def first(field, d, test, seed=0, degree=None, unit=None):
    """The first witness test(c) that is not None, or NotFound.

    When the box k^d is enumerable, `degree` (test(c) is None exactly where
    a polynomial of degree <= degree in each coordinate vanishes) skips its
    dead sub-boxes and `unit` (see unital_slice; every hit lies on the
    slice) walks only the unital slice; either way the first hit of the box
    is found and a miss is a proof over all p^d tuples."""
    if enumerable(field, d):
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
    for coeffs in _sampled(field, d, seed):
        hit = test(coeffs)
        if hit is not None:
            return hit
    return NotFound(False, SAMPLES + d + 1, d,
                    f"not found in {SAMPLES} seeded samples")


def invertible(field, ops, rows, cols, seed=0):
    """The first invertible map in the span of the rows x cols maps with
    the _columns ops, as a Matrix, or NotFound; an empty or non-square span
    holds none, which is a proof."""
    if not ops or rows != cols:
        return NotFound(True, 0, len(ops))
    span = OperatorSpan(field, ops, rows, cols)
    return first(field, len(ops), span.full_rank_at, seed, degree=span.degree)


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


def every(field, d, test, unit=None):
    """All witnesses on the unital slice of k^d in lexicographic order;
    raises SearchInconclusive when its p^free tuples exceed the cap."""
    free, points = unital_slice(field, d, unit)
    if not enumerable(field, free):
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


class _Poly(dict):
    """A polynomial over Q, {exponent tuple: nonzero Fraction}; `zero` is
    the exponent tuple of its constant term."""

    __slots__ = ("zero",)

    def __init__(self, zero, terms=()):
        super().__init__(terms)
        self.zero = zero

    def _lift(self, x):
        return x if isinstance(x, _Poly) else _Poly(
            self.zero, {self.zero: Fraction(x)} if x else ())

    def __add__(self, other, c=1):
        return _axpy(_Poly(self.zero, self), self._lift(other), c)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return _axpy(self._lift(other), self, -1)

    def __mul__(self, other):
        out = _Poly(self.zero)
        for m, x in self._lift(other).items():
            _axpy(out, self, x, m)
        return out

    __radd__, __rmul__ = __add__, __mul__


def _axpy(f, g, c=1, q=None):
    """f += c q g in place, q a monomial (None for 1); returns f."""
    for m, x in g.items():
        if q is not None:
            m = tuple(map(add, m, q))
        x = f.get(m, 0) + c * x
        if x:
            f[m] = x
        else:
            f.pop(m, None)
    return f


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _grevlex(m):
    return sum(m), tuple(-e for e in reversed(m))


def _reduce(f, basis, order=None):
    """The normal form of f by basis = {leading monomial: monic g}; `order`
    is the sort key of the monomial order, None for lex."""
    f, out = dict(f), {}
    while f:
        m = max(f, key=order)
        lead = next((lm for lm in basis if _divides(lm, m)), None)
        if lead is None:
            out[m] = f.pop(m)
        else:
            _axpy(f, basis[lead], -f[m], tuple(map(sub, m, lead)))
    return out


def _groebner(polys, order=None):
    """The reduced Groebner basis {leading monomial: monic g} of polys in the
    order `order` (see _reduce): Buchberger, skipping a pair whose leading
    monomials are coprime or whose lcm a third leading monomial divides
    with both its pairs done (Cox, Little and O'Shea, ch. 2 sec. 10)."""
    basis, pairs, heap, queue = {}, set(), [], list(polys)
    while queue or heap:
        if queue:
            h = _reduce(queue.pop(), basis, order)
        else:                               # the pair of least lcm
            _, a, b = heapq.heappop(heap)
            pairs.remove((a, b))
            lcm = tuple(map(max, a, b))
            if not any(map(min, a, b)) or any(
                    _divides(k, lcm) and not pairs & {
                        tuple(sorted((a, k))), tuple(sorted((b, k)))}
                    for k in basis if k not in (a, b)):
                continue
            h = _reduce(_axpy(_axpy({}, basis[a], 1, tuple(map(sub, lcm, a))),
                              basis[b], -1, tuple(map(sub, lcm, b))), basis,
                        order)
        if h:
            lm = max(h, key=order)
            if not any(lm):
                return {lm: {lm: Fraction(1)}}
            for a, b in (sorted((k, lm)) for k in basis):
                lcm = tuple(map(max, a, b))
                pairs.add((a, b))
                heapq.heappush(heap, ((sum(lcm), lcm), a, b))
            basis[lm] = _axpy({}, h, 1 / h[lm])
    lead = [lm for lm in basis
            if not any(o != lm and _divides(o, lm) for o in basis)]
    return {lm: _reduce(basis[lm], {o: basis[o] for o in lead if o != lm},
                        order) for lm in lead}


def _fglm(basis, n):
    """The reduced lex basis of a zero-dimensional ideal from its grevlex
    basis (Faugere, Gianni, Lazard and Mora): the monomials are taken in
    ascending lex order, and one whose grevlex normal form is a combination
    of those of the earlier standard ones leads a basis element.  todo maps
    a monomial to a polynomial with its normal form."""
    one = (0,) * n
    lex, rows, seen, todo = {}, [], set(), {one: {one: Fraction(1)}}
    while todo:
        m = min(todo)
        nf = todo.pop(m)
        seen.add(m)
        if any(_divides(lm, m) for lm in lex):
            continue
        nf = _reduce(nf, basis, _grevlex)
        v, comb = dict(nf), {m: Fraction(1)}
        for pivot, row, rc in rows:         # rows: an echelon form
            if pivot in v:
                c = -v[pivot]
                _axpy(v, row, c), _axpy(comb, rc, c)
        if not v:
            lex[m] = comb
            continue
        pivot = next(iter(v))
        c = 1 / v[pivot]
        rows.append((pivot, _axpy({}, v, c), _axpy({}, comb, c)))
        for i in range(n):
            step = one[:i] + (1,) + one[i + 1:]
            if tuple(map(add, m, step)) not in seen:
                todo[tuple(map(add, m, step))] = _axpy({}, nf, 1, step)
    return lex


def _divmod(f, g):
    """Quotient and remainder of coefficient lists, lowest degree first."""
    f, q = list(f), [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g):
        k = len(f) - len(g)
        q[k] = c = Fraction(f[-1]) / g[-1]
        for i, y in enumerate(g):
            f[k + i] -= c * y
        while f and not f[-1]:
            f.pop()
    return q, f


def _primitive(f):
    """The primitive integer multiple of a coefficient list."""
    den = math.lcm(*(Fraction(x).denominator for x in f))
    a = [int(x * den) for x in f]
    g = math.gcd(*a) or 1
    return [x // g for x in a]


def _at(a, x, q=0):
    """a(x) by Horner's rule, reduced mod q unless q is 0."""
    v = 0
    for c in reversed(a):
        v = v * x + c
        v = v % q if q else v
    return v


def _rational_roots(u):
    """The rational roots of a nonzero univariate {degree: Fraction}, in
    ascending order.  Let a be the primitive integer multiple of its
    square-free part.  A rational root x has a_k x in Z (rational root
    theorem) and |a_k x| <= sum |a_i|: it is read off the p-adic root above
    a root of a mod the least prime p with only simple roots, lifted by
    Newton's method.  No such p below PRIME_BOUND raises SearchInconclusive:
    a hostile coefficient ends the search in bounded time, not a verdict."""
    f = _primitive([u.get(d, 0) for d in range(max(u) + 1)])
    g, h = f, _primitive([d * x for d, x in enumerate(f)][1:])
    while h:                                        # g = gcd(f, f')
        g, h = h, _primitive(_divmod(g, h)[1])
    a = _primitive(_divmod(f, g)[0])
    if len(a) <= 2:
        return [Fraction(-a[0], a[1])] if len(a) == 2 else []
    da, bound = [d * x for d, x in enumerate(a)][1:], 2 * sum(map(abs, a))
    for p in filter(_is_prime, range(3, PRIME_BOUND)):
        roots = [r for r in range(p) if _at(a, r, p) == 0]
        if a[-1] % p == 0 or any(_at(da, r, p) == 0 for r in roots):
            continue
        out = []
        for r in roots:
            q = p
            while q <= bound:
                q *= q
                r = (r - _at(a, r, q) * pow(_at(da, r, q), -1, q)) % q
            n = a[-1] * r % q
            x = Fraction(n - q if 2 * n > q else n, a[-1])
            out += [x] if _at(a, x) == 0 else []
        return sorted(out)
    raise SearchInconclusive("no prime below PRIME_BOUND separates the "
                             "roots of a univariate polynomial")


def _tails(levels, point, i):
    """The rational points of a zero-dimensional lex basis whose c_{i+1},
    ... are fixed in point; levels[i] holds the elements whose leading
    monomial has c_i as its first unknown."""
    if i < 0:
        yield tuple(point)
        return
    unis = []
    for g in levels[i]:
        u = {}
        for m, x in g.items():
            _axpy(u, {m[i]: x * math.prod(map(pow, point[i + 1:], m[i + 1:]))})
        unis += [u] if u else []
    for r in _rational_roots(min(unis, key=max)):
        if all(sum(x * r ** d for d, x in u.items()) == 0 for u in unis):
            point[i] = r
            yield from _tails(levels, point, i - 1)


def _points(polys, n, refuse, nested=False):
    """Every rational point of polys = 0, or samples of a family (see
    rational_points)."""
    basis = _groebner(polys, _grevlex)
    if any(not any(lm) for lm in basis):
        return
    basis = _fglm(basis, n) if all(any(lm[i] == sum(lm) for lm in basis)
                                   for i in range(n)) else _groebner(polys)
    free = []               # the lex-last maximal set holding no leading term
    for i in reversed(range(n)):
        if not any(all(e == 0 or k == i or k in free for k, e in enumerate(lm))
                   for lm in basis):
            free.append(i)
    if free:
        if refuse is not None:
            raise SearchInconclusive(refuse)
        zero = (0,) * n
        for values in itertools.product(FREE_SAMPLES, repeat=len(free)):
            fixed = [_axpy({zero[:u] + (1,) + zero[u + 1:]: Fraction(1)},
                           {zero: Fraction(s)}, -1)
                     for u, s in zip(free[::-1], values)]
            yield from _points([*basis.values(), *fixed], n, refuse, True)
        if not nested:
            raise SearchInconclusive("a positive-dimensional family was "
                                     "sampled without a witness")
        return
    levels = [[] for _ in range(n)]
    for lm, g in basis.items():
        levels[next(i for i, e in enumerate(lm) if e)].append(g)
    order = sorted(range(n), key=str)       # c0, c1, c10, ..., c2, ...
    yield from sorted(_tails(levels, [None] * n, n - 1),
                      key=lambda c: [c[i] for i in order])


def rational_points(algebra, ops, equations, test, refuse=None):
    """Witnesses among the rational solutions of a quadratic system over Q.

    The unknown is t = sum_i c_i ops[i], a map into `algebra` (_columns).
    `equations(t, prod)` yields expressions that vanish exactly on the wanted
    t; t[j] is the column t(e_j), a list of polynomials in the c_i, and prod
    multiplies two such vectors of `algebra`.  Every rational point c (a
    tuple of Fractions) is found (see the module doc) and yielded as test(c)
    when that is not None, in lexicographic order with the unknowns taken in
    the string order of their names c0, c1, c10, ..., c2, ...: the order of
    the package's former solver, so reports stay the same.  A
    positive-dimensional family raises SearchInconclusive(refuse), or, when
    refuse is None, is sampled at every assignment of FREE_SAMPLES to its
    free unknowns; exhausting the points after such a sample raises
    SearchInconclusive, since the family was not searched in full.
    """
    n, rows = len(ops), algebra.dim
    zero = (0,) * n
    lift = _Poly(zero)._lift
    t_cols = [[_Poly(zero) for _ in range(rows)] for _ in ops[0]]
    for k, op in enumerate(ops):
        c = {zero[:k] + (1,) + zero[k + 1:]: Fraction(1)}
        for j, col in enumerate(op):
            for r, x in col:
                _axpy(t_cols[j][r], c, x)

    def prod(x, y):
        out = [_Poly(zero) for _ in range(rows)]
        for (a, xa), (b, yb) in itertools.product(enumerate(x), enumerate(y)):
            if xa and yb:
                xy = lift(xa) * yb
                for r, coeff in algebra.mul_table[a * rows + b]:
                    _axpy(out[r], xy, coeff)
        return out

    eqs = [e for e in map(lift, equations(t_cols, prod)) if e]
    for c in _points(eqs, n, refuse):
        hit = test(c)
        if hit is not None:
            yield hit
