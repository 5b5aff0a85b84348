"""Dense mod-p kernels on flat row-major lists of Python ints, exact for
every prime p.  matmul_modp is Matrix.__matmul__ over F_p.  rref_modp has no
package caller (every elimination is linalg.eliminate): it is the dense
oracle the tests compare eliminate with, and the reduction perfbench's
kernel micro-benchmark times.
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
