"""Reference inertia route for the test suite, independent of signature_of."""

from fractions import Fraction

from cuspcount.signature import MatrixLike, SignatureResult, _require_symmetric


def signature_by_elimination(matrix: MatrixLike) -> SignatureResult:
    """Independent inertia computation by pivoted symmetric elimination.

    Nonzero diagonal pivots contribute their sign; when the active diagonal
    is all zero, an off-diagonal entry gives a hyperbolic 2x2 block
    contributing one positive and one negative eigenvalue.  Used as the
    cross-check oracle for signature_of.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    _require_symmetric(matrix, n)
    a = [[Fraction(v) for v in row] for row in matrix]
    active = list(range(n))
    positive = negative = 0
    while active:
        pivot = next((i for i in active if a[i][i]), None)
        if pivot is not None:
            value = a[pivot][pivot]
            if value > 0:
                positive += 1
            else:
                negative += 1
            rest = [i for i in active if i != pivot]
            column = {r: a[r][pivot] for r in rest}
            for r in rest:
                if column[r]:
                    factor = column[r] / value
                    row = a[r]
                    for s in rest:
                        if column[s]:
                            row[s] -= factor * column[s]
            active = rest
            continue
        block = next(((i, j)
                      for pos_i, i in enumerate(active)
                      for j in active[pos_i + 1:]
                      if a[i][j]), None)
        if block is None:
            break
        i, j = block
        value = a[i][j]
        positive += 1
        negative += 1
        rest = [r for r in active if r not in (i, j)]
        col_i = {r: a[r][i] for r in rest}
        col_j = {r: a[r][j] for r in rest}
        for r in rest:
            row = a[r]
            for s in rest:
                update = col_i[r] * col_j[s] + col_j[r] * col_i[s]
                if update:
                    row[s] -= update / value
        active = rest
    rank = positive + negative
    return SignatureResult(positive - negative, rank, positive, negative, rank == n)
