"""Independent check values for k-bonacci terms, modulo fixed primes.

The benchmark never renders a deep term as text: the child process
returns each term reduced modulo the primes below, and this module
computes the same residues with a k-by-k companion-matrix power taken
modulo p.  It shares no code with kbonacci.
"""

from __future__ import annotations

# two 61-bit primes: 2^61 - 1 and the largest prime below it
PRIMES = (2305843009213693951, 2305843009213693921)


def _matmul(a, b, p):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def matpow(m, e, p):
    n = len(m)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    while e:
        if e & 1:
            result = _matmul(result, m, p)
        e >>= 1
        if e:
            m = _matmul(m, m, p)
    return result


def term_mod(k: int, j: int, p: int) -> int:
    """term(k, j) mod p for any integer j.

    The state s_j = (t(j), ..., t(j+k-1)) starts at s_0 = (0, ..., 0, 1).
    One forward step shifts the state and appends the sum of its k
    entries; one backward step prepends t(j+k-1) minus the other k-1
    entries.  t(j) is entry (0, k-1) of the |j|-th power of that step.
    """
    if j >= 0:
        step = [[int(c == r + 1) for c in range(k)] for r in range(k - 1)]
        step.append([1] * k)
    else:
        step = [[-1] * (k - 1) + [1]]
        step += [[int(c == r - 1) for c in range(k)] for r in range(1, k)]
    return matpow([[x % p for x in row] for row in step], abs(j), p)[0][k - 1]


def residues(k: int, j: int) -> list[int]:
    return [term_mod(k, j, p) for p in PRIMES]
