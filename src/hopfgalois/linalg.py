"""Exact linear algebra over Q and F_p: dense matrices, sparse elimination.

Matrices are flat row-major lists of scalars tagged with a field object
(see fields).  Everything is immutable by convention: operations return new
matrices and never mutate their inputs, so values are safe to share.  The
product over F_p is _modp_py's matmul_modp, exact for every p since Python
ints do not overflow.

One elimination.  Every rank, RREF, kernel, inverse and solve comes from
eliminate, on rows held as {column: x} dicts of their nonzero entries, over
Q and F_p alike.  Rows are taken in order, each pivoting at its leftmost
column without a pivot; each can carry the combination of input rows it
equals.  One pass thus gives full rank (stopping at the first dependent
row), the RREF and its pivots, the kernel, the inverse (the combinations,
when the pivots are 0..n-1) and the solves below.  The RREF of a row space
is unique, so none of these depends on the pivot policy.

Tensor legs.  A vector of V_0 (x) ... (x) V_{k-1} is flattened
lexicographically with leg 0 major.

Tables.  _columns and _leg_columns turn a matrix into the sparse tables in
which the package holds m, Delta, every coaction and every module action
(see hopf).  A map is read through its columns, a bilinear one through
_pair's raw terms, and built by summed from raw terms: no vector is
tensored, added or scaled entry by entry, and cleft, cohomology and galois
apply no basis vector.

Operators.  A linear constraint on an unknown matrix X is an operator on
the row-major vec(X), given by its sparse rows ({column: x} dicts) written
from sparse tables: colinearity_operator is X -> y_co X - (X (x) I_H) x_co
for the coaction tables x_co and y_co, yielded row by row without the rows
no term reaches, so the elimination holds only its pivots.  On two action
tables, with dim B in place of dim H, the same operator is X -> (X(-) .
b_k - X(- . b_k))_k, so intertwiners chains it once for the actions and
once for the coactions.  Column c*n + j is the unknown X[c, j].  Their
kernels are sparse_kernel's, read off eliminate's RREF as the nonzero terms
(i, x) of each basis vector; intertwiners and convcat's hom spaces hand on
each basis map as its _columns (_unflat, undone by _flat).  No dense
operator, kernel vector or Kronecker product is formed.  A Matrix is still
formed for a search hit (lin_comb; OperatorSpan.full_rank_at forms none),
for structure maps, witnesses and reports (S, eta, B's inclusion, a
clefting datum, io_json), and where lifting's and cleft's witness
arithmetic sums one from columns.  Matrix.solve and Matrix.kron have no
package caller: they stay for the tests' oracles and the benchmark.

Factor once.  A matrix A solved against many right-hand sides is factored
once, from its columns: Factorization eliminates the rows of A with their
combinations, RREF row k at pivot column pc being Sum_i y_i A[i, :].  The
solution of A x = b is x[pc] = Sum_i y_i b[i], zero elsewhere; it exists
iff it solves A x = b, and it is the one the RREF of [A | b] gives.
solve_columns takes each b as the raw terms of a column and gives each x
in the layout of _columns, with a flag that says whether it solves; the
work follows the terms of b and x, and no dense right-hand side or
solution is written.  A caller that must raise tests the flag.  A
factorization is held by the object that solves against A, never cached
on Matrix: matrices are built in place through .data, so a cache could go
stale.
"""

from itertools import chain

from . import _modp_py as _modp

BACKEND = "pure"  # the one kernel backend, kept for callers that report it


class NoSolution(Exception):
    """The linear system has no solution."""


class NotInvertible(Exception):
    """The (square) matrix is singular."""


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, data):
        if len(data) != rows * cols:
            raise ValueError(f"data length {len(data)} != {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = list(data)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols, [field.zero] * (rows * cols))

    @classmethod
    def identity(cls, field, n):
        data = [field.zero] * (n * n)
        for i in range(n):
            data[i * n + i] = field.one
        return cls(field, n, n, data)

    @classmethod
    def from_rows(cls, field, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        data = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            data.extend(r)
        return cls(field, nrows, ncols, data)

    @classmethod
    def from_cols(cls, field, cols, nrows=None):
        if not cols:
            if nrows is None:
                raise ValueError("need nrows for an empty column list")
            return cls.zeros(field, nrows, 0)
        return cls(field, len(cols[0]), len(cols),    # ragged: ValueError
                   [x for r in zip(*cols, strict=True) for x in r])

    # -- access ------------------------------------------------------------

    def get(self, i, j):
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return [self.data[i * self.cols + j] for i in range(self.rows)]

    # -- equality / predicates ---------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def is_zero(self):
        z = self.field.zero
        return all(x == z for x in self.data)

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_shape(other)
        add = self.field.add
        return Matrix(self.field, self.rows, self.cols,
                      [add(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        self._check_shape(other)
        sub = self.field.sub
        return Matrix(self.field, self.rows, self.cols,
                      [sub(a, b) for a, b in zip(self.data, other.data)])

    def scale(self, c):
        mul = self.field.mul
        return Matrix(self.field, self.rows, self.cols, [mul(c, a) for a in self.data])

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"cannot compose {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        if f.kind == "Fp":
            data = _modp.matmul_modp(self.data, self.rows, self.cols,
                                     other.data, other.rows, other.cols, f.p)
            return Matrix(f, self.rows, other.cols, data)
        ar, ac, bc = self.rows, self.cols, other.cols
        a, b = self.data, other.data
        zero = f.zero
        out = [zero] * (ar * bc)
        for i in range(ar):
            base = i * bc
            for k in range(ac):
                aik = a[i * ac + k]
                if aik != zero:
                    boff = k * bc
                    for j in range(bc):
                        out[base + j] = out[base + j] + aik * b[boff + j]
        return Matrix(f, ar, bc, out)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        zero = f.zero
        out = [zero] * self.rows
        data, cols = self.data, self.cols
        for j, v in enumerate(vec):
            if v != zero:
                for i in range(self.rows):
                    out[i] += data[i * cols + j] * v
        return reduced(f, out)

    def transpose(self):
        data, n = self.data, self.cols
        return Matrix(self.field, n, self.rows,
                      [x for j in range(n) for x in data[j::n]])

    def kron(self, other):
        """Kronecker/tensor product, left factor index major; the products
        are taken raw and reduced once.  No package code forms one: it is
        the tests' dense oracle, and perfbench counts calls to it."""
        ac, bc = self.cols, other.cols
        arows = [self.data[i * ac:(i + 1) * ac] for i in range(self.rows)]
        brows = [other.data[k * bc:(k + 1) * bc] for k in range(other.rows)]
        return Matrix(self.field, self.rows * other.rows, ac * bc, reduced(
            self.field, [a * b for arow in arows for brow in brows
                         for a in arow for b in brow]))

    # -- elimination: eliminate on the sparse rows ---------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (Matrix, pivot column list)."""
        f, n = self.field, self.cols
        piv = eliminate(f, _rows(self))[0]
        pivots = sorted(piv)
        data = [f.zero] * (self.rows * n)
        for r, c in enumerate(pivots):
            for j, x in piv[c].items():
                data[r * n + j] = x
        return Matrix(f, self.rows, n, data), pivots

    def invert(self):
        """The inverse: row c is the combination of rows that reduces to
        e_c.  Raises NotInvertible at the first dependent row."""
        if self.rows != self.cols:
            raise NotInvertible("not square")
        f, n = self.field, self.rows
        done = eliminate(f, _rows(self), combos=True, independent=True)
        if done is None:
            raise NotInvertible()
        data = [f.zero] * (n * n)
        for c, combo in done[1].items():
            for i, y in combo.items():
                data[c * n + i] = y
        return Matrix(f, n, n, data)

    def is_invertible(self):
        """Full rank, by forward elimination up to the first dependent row."""
        return self.rows == self.cols and eliminate(
            self.field, _rows(self), independent=True, back=False) is not None

    def solve(self, b):
        """x with self @ x = b, zero off the pivot columns; raises
        NoSolution.  Kept as perfbench's linalg.solve target only: the
        package itself solves through Factorization.solve_columns."""
        (x,), (ok,) = Factorization(self.field, _columns(self)) \
            .solve_columns([_nonzero(b)])
        if not ok:
            raise NoSolution()
        return summed_columns(self.field, self.cols, [x]).data


class Factorization:
    """A factored once, then A x = b for any number of b (see the module
    doc).  A is given by the raw terms (i, x) of each of its columns.

    pivots: the pivot columns of A; row_uses[i]: the (pc, y) with y the
    coefficient of row i of A in the RREF row at pivot column pc (a row
    that no RREF row uses has no entry).
    """

    __slots__ = ("field", "columns", "pivots", "row_uses")

    def __init__(self, field, columns):
        self.field = field
        self.columns = [list(col) for col in columns]
        rows = {}
        for j, col in enumerate(self.columns):
            for i, x in col:
                row = rows.setdefault(i, {})
                row[j] = row.get(j, 0) + x
        keys = sorted(rows)
        piv, comb = eliminate(field, [rows[i] for i in keys], combos=True)
        self.pivots = sorted(piv)
        self.row_uses = {}
        for pc in self.pivots:
            for n, y in comb[pc].items():
                self.row_uses.setdefault(keys[n], []).append((pc, y))

    def solve_columns(self, cols):
        """(x_cols, ok) for the right-hand sides b_j given by the raw terms
        (i, x) of each column: x_cols[j] lists the (pc, x) of the x with
        x[pc] = Sum_i y_i b_j[i], in the layout of _columns, and ok[j] says
        whether it solves A x = b_j.  The work follows the terms of b_j
        and x."""
        f, uses, columns = self.field, self.row_uses, self.columns
        x_cols, ok = [], []
        for b in cols:
            b = list(b)
            if not b:                               # x = 0 solves A x = 0
                x_cols.append([])
                ok.append(True)
                continue
            x = _terms(f, ((pc, y * v) for i, v in b
                           for pc, y in uses.get(i, ())))
            res = {}                                # A x - b, raw
            for pc, v in x:
                for i, a in columns[pc]:
                    res[i] = res.get(i, 0) + a * v
            for i, v in b:
                res[i] = res.get(i, 0) - v
            x_cols.append(x)
            ok.append(not any(reduced(f, list(res.values()))))
        return x_cols, ok


# -- stacking and tensor-leg utilities ------------------------------------


def reduced(field, values):
    """values with each entry taken mod p over F_p; unchanged over Q."""
    p = field.p
    return [v % p for v in values] if p else values


def lin_comb(field, rows, ops, coeffs):
    """Sum_k coeffs[k] ops[k] as a rows x n matrix, for a non-empty list of
    n-column maps given by their _columns: a search hit made dense."""
    return summed_columns(field, rows, _combination(
        ops, [(k, c) for k, c in enumerate(coeffs) if c], len(ops[0])))


class OperatorSpan:
    """rows x cols operators given by their _columns, kept as their raw
    terms (i, j, x), built once.

    degree is the row count n: for square operators det(Sum_k c_k ops[k])
    is a polynomial of degree <= n in each c_k, and full_rank_at(c) is
    False exactly where it vanishes (search.first's `degree`).
    """

    def __init__(self, field, ops, rows, cols):
        self.field, self.degree, self.cols = field, rows, cols
        self.terms = [[(i, j, x) for j, col in enumerate(op) for i, x in col]
                      for op in ops]

    def full_rank_at(self, coeffs):
        """Whether Sum_k coeffs[k] ops[k] is invertible, by eliminating the
        sum taken raw into sparse rows; no matrix is formed."""
        rows = [{} for _ in range(self.degree)]
        for terms, c in zip(self.terms, coeffs):
            if c:
                for i, j, x in terms:
                    row = rows[i]
                    row[j] = row.get(j, 0) + c * x
        return self.degree == self.cols and eliminate(
            self.field, rows, independent=True, back=False) is not None


def basis_vec(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


# -- linear operators ------------------------------------------------------


def _columns(mat):
    """The nonzero entries (row, x) of each column of mat, rows ascending."""
    zero, m = mat.field.zero, mat.cols
    return [[(r, x) for r, x in enumerate(mat.data[j::m]) if x != zero]
            for j in range(m)]


def _leg_columns(mat, d2):
    """_columns of mat, rows indexing V (x) W with dim W = d2, as (i, j, x)."""
    return [[(*divmod(r, d2), x) for r, x in col] for col in _columns(mat)]


def _flat(cols):
    """The raw terms (r * n + c, x) of the row-major entries of the
    n-column matrix with the _columns cols: its vec, as a Factorization
    column or right-hand side."""
    n = len(cols)
    return [(r * n + c, x) for c, col in enumerate(cols) for r, x in col]


def _unflat(n, terms):
    """The _columns of the n-column matrix whose row-major entries are the
    terms (k, x), k ascending: the inverse of _flat."""
    cols = [[] for _ in range(n)]
    for k, x in terms:
        r, c = divmod(k, n)
        cols[c].append((r, x))
    return cols


def _combination(ops, coeffs, n):
    """The raw terms (r, x) of each column of Sum_k c ops[k] over the raw
    terms (k, c) coeffs, for n-column maps ops given by their _columns."""
    return [[(r, c * x) for k, c in coeffs for r, x in ops[k][j]]
            for j in range(n)]


def _composed(g_cols, f_cols):
    """The raw terms (r, x) of each column of g o f, for g and f given by
    their _columns."""
    return [[(r, y * x) for m, x in col for r, y in g_cols[m]]
            for col in f_cols]


def _terms(field, terms):
    """Sum x e_key over the raw terms (key, x), as its (key, x) with keys
    ascending, x reduced and nonzero."""
    acc, p = {}, field.p
    for key, x in terms:
        acc[key] = acc.get(key, 0) + x
    if p:
        return [(k, x) for k in sorted(acc) if (x := acc[k] % p)]
    return [(k, x) for k in sorted(acc) if (x := acc[k])]


def _nonzero(vec):
    """The (i, x) of the nonzero entries of vec: its raw terms."""
    return [(i, x) for i, x in enumerate(vec) if x]


def _pair(table, width, xs, ys):
    """The raw terms of m(x (x) y) for the raw terms (i, x) of x and of y,
    where table[i * width + j] lists the (r, c) of m(e_i (x) e_j): a
    mul_table, or the _columns of a bilinear map such as cleft's omega."""
    ys = list(ys)
    return ((r, x * y * c) for i, x in xs for j, y in ys
            for r, c in table[i * width + j])


def summed(field, rows, cols, terms):
    """The rows x cols matrix whose flat entry k sums the raw x of the terms
    (k, x); only the entries hit are reduced, the others are zero."""
    acc = {}
    for k, x in terms:
        acc[k] = acc.get(k, 0) + x
    out = [field.zero] * (rows * cols)
    for k, x in zip(acc, reduced(field, list(acc.values()))):
        out[k] = x
    return Matrix(field, rows, cols, out)


def summed_columns(field, rows, cols):
    """The rows x len(cols) matrix whose column j sums the raw terms (r, x)
    of cols[j]: the inverse of _columns."""
    n = len(cols)
    return summed(field, rows, n, ((r * n + j, x) for j, col in enumerate(cols)
                                   for r, x in col))


def _rows(mat):
    """The rows of mat as {column: x} dicts of its nonzero entries."""
    n, data = mat.cols, mat.data
    return ({j: x for j, x in enumerate(data[i * n:(i + 1) * n]) if x}
            for i in range(mat.rows))


def eliminate(field, rows, combos=False, independent=False, back=True):
    """The one elimination: (piv, comb) for the {column: x} dicts rows (x
    raw; the input is not changed).  piv maps each pivot column c to its
    row, with a 1 at c; with combos, comb[c] = {i: y} with piv[c] = Sum y
    rows[i], else comb is empty.

    Each row in turn is reduced at its leftmost column by the pivot row
    there, until that column has no pivot yet; the row, with its
    combination, is normalised into a new pivot.  A row that reduces to
    zero is dropped, or, when independent is set, the answer is None.
    Back substitution, pivots right to left, then gives the RREF;
    back=False leaves the echelon form, enough to count the pivots.
    """
    p, one, piv, comb = field.p, field.one, {}, {}
    for n, row in enumerate(rows):
        row = {j: y for j, x in row.items() if (y := x % p if p else x)}
        mix = {n: one} if combos else None
        while row:
            c = min(row)
            if c not in piv:
                inv = field.inv(row[c])
                piv[c] = {j: field.mul(inv, x) for j, x in row.items()}
                if combos:
                    comb[c] = {i: field.mul(inv, x) for i, x in mix.items()}
                break
            x = row[c]
            _eliminate(p, row, x, piv[c])
            if combos:
                _eliminate(p, mix, x, comb[c])
        else:
            if independent:
                return None
    if back:
        for c in sorted(piv, reverse=True):
            prow = piv[c]
            for j in [j for j in prow if j != c and j in piv]:
                x = prow[j]
                _eliminate(p, prow, x, piv[j])
                if combos:
                    _eliminate(p, comb[c], x, comb[j])
    return piv, comb


def sparse_kernel(field, n, rows):
    """Deterministic basis of the right nullspace of the n-column matrix
    whose rows are the {column: x} dicts rows (x raw): one vector per free
    column fc, in increasing order, e_fc minus the RREF rows' entries at fc,
    as its nonzero terms (i, x), i ascending."""
    piv, at = eliminate(field, rows)[0], {}
    for c, prow in piv.items():
        for j, x in prow.items():
            if j != c:
                at.setdefault(j, []).append((c, field.neg(x)))
    return [sorted([*at.get(fc, ()), (fc, field.one)])
            for fc in range(n) if fc not in piv]


def _eliminate(p, row, x, prow):
    """row -= x prow in place, dropping the entries that vanish (mod p)."""
    for j, y in prow.items():
        v = row.get(j, 0) - x * y
        if v := v % p if p else v:
            row[j] = v
        else:
            del row[j]


def colinearity_operator(field, dx, dy, x_co, y_co, dh):
    """The rows, {column: x} dicts of raw sums, of the operator on vec(X), X
    a dy x dx matrix, of X -> y_co X - (X (x) I_H) x_co, for the coaction
    tables x_co (dx lists) and y_co (dy lists) of (x0, h, c) with rho(e_x) =
    Sum c e_x0 (x) e_h, h < dh.  Row (y * dh + h) * dx + c, the entry
    ((y, h), c) of the defect, is yielded in that order unless no term
    reaches it; column y * dx + x is the unknown X[y, x]."""
    into, out_of = {}, [{} for _ in range(dh)]
    for y, col in enumerate(y_co):      # y_co[(y0, h), y] X[y, c]
        for y0, h, v in col:
            into.setdefault((y0, h), []).append((y * dx, v))
    for c, col in enumerate(x_co):      # X[y, x] x_co[(x, h), c]
        for x, h, v in col:
            out_of[h].setdefault(c, []).append((x, -v))
    for y in range(dy):
        for h in range(dh):
            ys, xs = into.get((y, h), ()), out_of[h]
            for c in range(dx) if ys else sorted(xs):
                row = {}
                for k, v in ys:
                    row[k + c] = row.get(k + c, 0) + v
                for x, v in xs.get(c, ()):
                    row[y * dx + x] = row.get(y * dx + x, 0) + v
                yield row


def intertwiners(field, dx, dy, actions, coactions=None):
    """Basis of the dy x dx matrices X that are module maps for actions =
    (x_act, y_act, d), two action tables over a d-dimensional algebra, and,
    when coactions = (x_co, y_co, dh) is given, comodule maps: the kernel
    of the colinearity_operator rows of both, stacked, each basis map as
    its _columns."""
    rows = colinearity_operator(field, dx, dy, *actions)
    if coactions is not None:
        rows = chain(rows, colinearity_operator(field, dx, dy, *coactions))
    return [_unflat(dx, v) for v in sparse_kernel(field, dy * dx, rows)]
