"""Smith normal form over the integers, exact arithmetic only."""

from __future__ import annotations

__all__ = ["smith_normal_form"]


def smith_normal_form(matrix):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns the diagonal entries d_1 | d_2 | ... (non-negative), padded with
    zeros up to min(rows, cols).  Input is a list of lists; it is copied.
    """
    m = [list(map(int, row)) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    t = 0
    while t < min(rows, cols):
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        while True:
            reduced = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, cols):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        reduced = True
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for i in range(t, rows):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        reduced = True
            if not reduced:
                break
        # enforce divisibility d_t | every remaining entry
        stable = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t]:
                    for k in range(t, cols):
                        m[t][k] += m[i][k]
                    stable = False
                    break
            if not stable:
                break
        if not stable:
            continue
        diag.append(abs(m[t][t]))
        t += 1
    while len(diag) < min(rows, cols):
        diag.append(0)
    return diag

