"""Conversion between the criterion band and dense square matrices, so the
dense oracles (Bareiss, Gauss-Jordan, sympy) read the same matrices as the
band kernels."""


def dense(bands):
    """Dense rows of a band: row k holds ``bands[k] = (A_k, B_k, C_k, D_k)``
    at columns k-1..k+2 and zeros elsewhere; entries outside the square are
    dropped."""
    size = len(bands)
    zero = bands[0][1] * 0
    rows = [[zero] * size for _ in range(size)]
    for k, band in enumerate(bands):
        for j, value in enumerate(band, start=k - 1):
            if 0 <= j < size:
                rows[k][j] = value
    return rows


def bands_of(rows):
    """The band tuples of a square matrix whose row k vanishes outside
    columns k-1..k+2, with zeros where the band leaves the square."""
    size = len(rows)
    zero = rows[0][0] * 0
    return [tuple(rows[k][j] if 0 <= j < size else zero for j in range(k - 1, k + 3))
            for k in range(size)]
