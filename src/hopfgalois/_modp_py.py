"""The mod-p kernels behind linalg's rref, full-rank test and matmul over F_p.

Exact for every prime p: entries are Python ints.  Pivot policy (shared
with the Fraction path in linalg): leftmost nonzero pivot, rows scanned
top-down, first nonzero row wins.  This keeps echelon forms, kernels and
solutions deterministic.  full_rank_modp only decides rank = n for a square
matrix: it eliminates forward, stops at the first column without a pivot
and never forms the reduced echelon form, so rref_modp stays its oracle.
"""


def rref_modp(data, rows, cols, p):
    """Reduced row echelon form of a flat row-major int matrix mod p.

    Returns (new flat data, list of pivot column indices).
    """
    m = [data[r * cols:(r + 1) * cols] for r in range(rows)]
    pivots = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        sel = -1
        for r in range(row, rows):
            if m[r][col] % p:
                sel = r
                break
        if sel < 0:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = pow(m[row][col] % p, p - 2, p)
        m[row] = [(v * inv) % p for v in m[row]]
        for r in range(rows):
            if r != row and m[r][col] % p:
                f = m[r][col] % p
                mr, mrow = m[r], m[row]
                m[r] = [(mr[j] - f * mrow[j]) % p for j in range(cols)]
        pivots.append(col)
        row += 1
    flat = []
    for r in m:
        flat.extend(v % p for v in r)
    return flat, pivots


def full_rank_modp(data, n, p):
    """Whether the flat row-major n x n int matrix has rank n mod p.

    Forward elimination on the rows still without a pivot, each kept only
    right of the current column; False at the first column with no pivot.
    Entries may be unreduced or negative.
    """
    if len(data) != n * n:
        raise ValueError(f"data length {len(data)} is not {n}x{n}")
    rest = [data[r * n:(r + 1) * n] for r in range(n)]
    for _ in range(n):
        sel = next((r for r, row in enumerate(rest) if row[0] % p), -1)
        if sel < 0:
            return False
        pivot = rest.pop(sel)
        inv = pow(pivot[0], -1, p)
        tail = pivot[1:]
        rest = [[(a - f * b) % p for a, b in zip(row[1:], tail)]
                if (f := row[0] * inv % p) else row[1:] for row in rest]
    return True


def matmul_modp(a, ar, ac, b, br, bc, p):
    """Flat row-major ar x ac times ac x bc product mod p, reduced once."""
    out = [0] * (ar * bc)
    cols = range(bc)
    for i in range(ar):
        base, boff, touched = i * bc, -bc, False
        for aik in a[i * ac:(i + 1) * ac]:
            boff += bc
            if aik:
                touched = True
                for j in cols:
                    out[base + j] += aik * b[boff + j]
        if touched:  # one row of unreduced entries at a time
            out[base:base + bc] = [x % p for x in out[base:base + bc]]
    return out
