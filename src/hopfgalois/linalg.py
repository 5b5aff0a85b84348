"""Dense exact linear algebra over Q and F_p.

Matrices are flat row-major lists of scalars tagged with a field object
(see fields).  Everything is immutable by convention: operations return new
matrices and never mutate their inputs, so values are safe to share.

Over F_p the hot kernels (rref, the full-rank test, matmul) are the
pure-Python ones of _modp_py, exact for every p since Python ints do not
overflow.  Over Q the Fraction path below is used.  Both follow one
deterministic pivot policy (leftmost nonzero pivot, rows scanned top-down).
is_invertible over F_p only eliminates forward and stops at the first
column without a pivot; it never builds the RREF that rank() reads.

Tensor legs.  A vector of V_0 (x) ... (x) V_{k-1} is flattened
lexicographically with leg 0 major.

Tables.  _columns and _leg_columns turn a matrix into the sparse tables in
which the package holds m, Delta, every coaction and every module action
(see hopf).

Operators.  A linear constraint on an unknown matrix X is an operator on
the row-major vec(X), held as its sparse rows ({column: x} dicts) written
from sparse tables: colinearity_operator is X -> y_co X - (X (x) I_H) x_co
for the coaction tables x_co and y_co.  On two action tables, with dim B
in place of dim H, the same operator is X -> (X(-) . b_k - X(- . b_k))_k,
so intertwiners stacks it once for the actions and once for the
coactions.  Column c*n + j is the unknown X[c, j].  Every kernel, of such
rows or of a Matrix, comes from one sparse elimination, sparse_kernel,
whose basis is the one read off the canonical RREF; no dense operator or
Kronecker product is formed.

Factor once.  A matrix A solved against many right-hand sides is factored
once.  Factorization(A) picks r = rank(A) independent rows of A and reduces
[A_rows | I_r]; that gives the pivot columns of A and a transform t.  The
solution of A X = B is X[pivot_k] = (t B_rows)[k], zero elsewhere, and it
exists iff that X solves A X = B.  It is the one solution supported on
the pivot columns, the one the RREF of [A | b] gives column by column;
Matrix.solve and Matrix.solve_matrix are this solve.  Right-hand sides are
best passed as one block B: solve_columns solves all columns with one
product t B_rows, checks A X = B from the nonzero entries of A and X, and
says which columns are consistent.  Picking rows first keeps
the reduction at r rows for the tall stacked-constraint operators the
package solves against.  A factorization is held by the object that solves
against A (a context, an algebra, a hom-space), never cached on Matrix:
matrices are built in place through .data, so a cache on a Matrix could go
stale.
"""

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

    def row_list(self):
        return [self.row(i) for i in range(self.rows)]

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

    def __neg__(self):
        neg = self.field.neg
        return Matrix(self.field, self.rows, self.cols, [neg(a) for a in self.data])

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

    # -- elimination -------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (Matrix, pivot column list)."""
        f = self.field
        if f.kind == "Fp":
            data, pivots = _modp.rref_modp(self.data, self.rows, self.cols,
                                           f.p)
            return Matrix(f, self.rows, self.cols, data), pivots
        m = self.row_list()
        pivots = []
        row = 0
        for col in range(self.cols):
            if row == self.rows:
                break
            sel = -1
            for r in range(row, self.rows):
                if m[r][col] != f.zero:
                    sel = r
                    break
            if sel < 0:
                continue
            m[row], m[sel] = m[sel], m[row]
            inv = f.inv(m[row][col])
            m[row] = [f.mul(inv, v) for v in m[row]]
            for r in range(self.rows):
                if r != row and m[r][col] != f.zero:
                    c = m[r][col]
                    m[r] = [f.sub(a, f.mul(c, b)) for a, b in zip(m[r], m[row])]
            pivots.append(col)
            row += 1
        return Matrix.from_rows(f, m) if m else Matrix.zeros(f, 0, self.cols), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """sparse_kernel of the rows of self."""
        n, data = self.cols, self.data
        return sparse_kernel(self.field, n, (
            {j: x for j, x in enumerate(data[i * n:(i + 1) * n]) if x}
            for i in range(self.rows)))

    def solve(self, b):
        """A particular solution x of self @ x = b.  Raises NoSolution."""
        return Factorization(self).solve(b)

    def solve_matrix(self, rhs):
        """Solve self @ X = rhs; column j of X is self.solve(rhs.col(j))."""
        return Factorization(self).solve_matrix(rhs)

    def _reduce_with_identity(self):
        """RREF of [self | I] and its pivots; the right block is the
        transform."""
        n = self.rows
        eye = Matrix.identity(self.field, n)
        aug = Matrix(self.field, n, self.cols + n,
                     [x for i in range(n) for x in self.row(i) + eye.row(i)])
        return aug.rref()

    def invert(self):
        if self.rows != self.cols:
            raise NotInvertible("not square")
        n = self.rows
        red, pivots = self._reduce_with_identity()
        if pivots != list(range(n)):
            raise NotInvertible()
        return Matrix(self.field, n, n, [x for i in range(n)
                                         for x in red.row(i)[n:]])

    def is_invertible(self):
        if self.rows != self.cols:
            return False
        if self.field.kind == "Fp":
            return _modp.full_rank_modp(self.data, self.rows, self.field.p)
        return self.rank() == self.rows


class Factorization:
    """A factored once, then A X = B for any number of B (see the module doc).

    rows: rank(A) independent rows of A; pivots: the pivot columns of A;
    t: the inverse of A on those rows and columns.  A is copied.
    """

    __slots__ = ("a", "columns", "rows", "pivots", "t")

    def __init__(self, a):
        f, m = a.field, a.cols
        self.a = Matrix(f, a.rows, m, a.data)
        self.columns = [[(i, x) for i, x in enumerate(a.data[c::m]) if x]
                        for c in range(m)]
        self.rows = a.transpose().rref()[1]
        r = len(self.rows)
        top = Matrix(f, r, m, [x for i in self.rows for x in a.row(i)])
        red, self.pivots = top._reduce_with_identity()
        self.t = Matrix(f, r, r, [x for i in range(r) for x in red.row(i)[m:]])

    def solve_columns(self, rhs):
        """(X, ok): column j of X solves A x = rhs[:, j] when ok[j] is True;
        X is zero off the pivot columns."""
        a = self.a
        if rhs.rows != a.rows:
            raise ValueError("rhs rows mismatch")
        f, k = a.field, rhs.cols
        picked = Matrix(f, len(self.rows), k,
                        [x for i in self.rows for x in rhs.row(i)])
        y = (self.t @ picked).data
        data = [f.zero] * (a.cols * k)
        for r, pc in enumerate(self.pivots):
            data[pc * k:(pc + 1) * k] = y[r * k:(r + 1) * k]
        got = [f.zero] * (a.rows * k)        # A X, from the nonzero y entries
        for r, pc in enumerate(self.pivots):
            nz = [(j, v) for j, v in enumerate(y[r * k:(r + 1) * k]) if v]
            for i, av in self.columns[pc]:
                for j, v in nz:
                    got[i * k + j] += av * v
        got, want = reduced(f, got), reduced(f, rhs.data)
        ok = ([True] * k if got == want
              else [got[j::k] == want[j::k] for j in range(k)])
        return Matrix(f, a.cols, k, data), ok

    def solve_matrix(self, rhs):
        """X with A X = rhs, zero off the pivot columns; raises NoSolution."""
        x, ok = self.solve_columns(rhs)
        if not all(ok):
            raise NoSolution()
        return x

    def solve(self, b):
        """The solution of A x = b, zero off the pivot columns; raises
        NoSolution."""
        return self.solve_matrix(Matrix(self.a.field, len(b), 1, b)).data


# -- stacking and tensor-leg utilities ------------------------------------


def reduced(field, values):
    """values with each entry taken mod p over F_p; unchanged over Q."""
    p = field.p
    return [v % p for v in values] if p else values


def lin_comb(mats, coeffs):
    """Sum_k coeffs[k] mats[k], for a non-empty list of equal-shape matrices."""
    f = mats[0].field
    out = [f.zero] * len(mats[0].data)
    for m, c in zip(mats, coeffs):
        if c != f.zero:
            out = [o + c * x for o, x in zip(out, m.data)]
    return Matrix(f, mats[0].rows, mats[0].cols, reduced(f, out))


class OperatorSpan:
    """Equal-shape operators kept as their nonzero entries, built once.

    degree is the row count n: for square operators det(Sum_k c_k ops[k])
    is a polynomial of degree <= n in each c_k, and full_rank_at(c) is None
    exactly where it vanishes (search.first's `degree`).
    """

    def __init__(self, ops):
        self.template, zero = ops[0], ops[0].field.zero
        self.degree = ops[0].rows
        self.terms = [[(i, x) for i, x in enumerate(op.data) if x != zero]
                      for op in ops]

    def full_rank_at(self, coeffs):
        """Sum_k coeffs[k] ops[k] (a sparse sum) if invertible, else None.
        The rank test reads the unreduced sum; only a hit is reduced."""
        f, like = self.template.field, self.template
        out = [f.zero] * len(like.data)
        for terms, c in zip(self.terms, coeffs):
            if c:
                for i, x in terms:
                    out[i] += c * x
        if not Matrix(f, like.rows, like.cols, out).is_invertible():
            return None
        return Matrix(f, like.rows, like.cols, reduced(f, out))


def basis_vec(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def kron_vec(field, v, w):
    """v (x) w; each block a w of a nonzero a is taken raw and reduced once."""
    out, n = [field.zero] * (len(v) * len(w)), len(w)
    for i, a in enumerate(v):
        if a != field.zero:
            out[i * n:(i + 1) * n] = reduced(field, [a * b for b in w])
    return out


def vec_add(field, v, w):
    return [field.add(a, b) for a, b in zip(v, w)]

def vec_scale(field, c, v):
    return [field.mul(c, a) for a in v]


# -- linear operators ------------------------------------------------------


def _columns(mat):
    """The nonzero entries (row, x) of each column of mat, rows ascending."""
    zero, m = mat.field.zero, mat.cols
    return [[(r, x) for r, x in enumerate(mat.data[j::m]) if x != zero]
            for j in range(m)]


def _leg_columns(mat, d2):
    """_columns of mat, rows indexing V (x) W with dim W = d2, as (i, j, x)."""
    return [[(*divmod(r, d2), x) for r, x in col] for col in _columns(mat)]


def _terms(field, terms):
    """Sum x e_key over the raw terms (key, x), as its (key, x) with keys
    ascending, x reduced and nonzero."""
    acc = {}
    for key, x in terms:
        acc[key] = acc.get(key, 0) + x
    keys = sorted(acc)
    values = reduced(field, [acc[k] for k in keys])
    return [(k, x) for k, x in zip(keys, values) if x]


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


def sparse_kernel(field, n, rows):
    """Deterministic basis of the right nullspace of the n-column matrix
    whose rows are the {column: x} dicts rows (x raw; the input is not
    changed): one vector per free column, in increasing order, with a 1
    there, read off the RREF, which depends on the row space alone.

    The rows are reduced once and taken in order, each eliminated at its
    leftmost column by the pivot rows found so far until that column has
    no pivot; the row is normalised into that pivot.  Back substitution,
    pivots right to left, then gives the reduced form.
    """
    p, piv = field.p, {}
    for row in rows:
        row = {j: y for j, x in row.items() if (y := x % p if p else x)}
        while row:
            c = min(row)
            if c not in piv:
                inv = field.inv(row[c])
                piv[c] = {j: field.mul(inv, x) for j, x in row.items()}
                break
            _eliminate(p, row, row[c], piv[c])
    for c in sorted(piv, reverse=True):
        prow = piv[c]
        for j in [j for j in prow if j != c and j in piv]:
            _eliminate(p, prow, prow[j], piv[j])
    basis = []
    for fc in (j for j in range(n) if j not in piv):
        v = [field.zero] * n
        v[fc] = field.one
        for c, prow in piv.items():
            if fc in prow:
                v[c] = field.neg(prow[fc])
        basis.append(v)
    return basis


def _eliminate(p, row, x, prow):
    """row -= x prow in place, dropping the entries that vanish (mod p)."""
    for j, y in prow.items():
        v = row.get(j, 0) - x * y
        if v := v % p if p else v:
            row[j] = v
        else:
            del row[j]


def colinearity_operator(field, dx, dy, x_co, y_co, dh):
    """The rows, as {column: x} dicts of raw sums, of the operator on vec(X),
    X a dy x dx matrix, of X -> y_co X - (X (x) I_H) x_co, for the coaction
    tables x_co (dx lists) and y_co (dy lists) of (x0, h, c) with rho(e_x) =
    Sum c e_x0 (x) e_h, h < dh.  Row (y * dh + h) * dx + c is the entry
    ((y, h), c) of the defect; column y * dx + x is the unknown X[y, x]."""
    rows = [{} for _ in range(dy * dh * dx)]
    for y, col in enumerate(y_co):      # y_co[(y0, h), y] X[y, c]
        for y0, h, v in col:
            for c in range(dx):
                row, k = rows[(y0 * dh + h) * dx + c], y * dx + c
                row[k] = row.get(k, 0) + v
    for c, col in enumerate(x_co):      # X[y, x] x_co[(x, h), c]
        for x, h, v in col:
            for y in range(dy):
                row, k = rows[(y * dh + h) * dx + c], y * dx + x
                row[k] = row.get(k, 0) - v
    return rows


def intertwiners(field, dx, dy, actions, coactions=None):
    """Basis of the dy x dx matrices X that are module maps for actions =
    (x_act, y_act, d), two action tables over a d-dimensional algebra, and,
    when coactions = (x_co, y_co, dh) is given, comodule maps: the kernel
    of the colinearity_operator rows of both, stacked."""
    rows = colinearity_operator(field, dx, dy, *actions)
    if coactions is not None:
        rows += colinearity_operator(field, dx, dy, *coactions)
    return [Matrix(field, dy, dx, v)
            for v in sparse_kernel(field, dy * dx, rows)]
