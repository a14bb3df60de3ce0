"""Seeded input generators.  They use numpy only: the library receives
nothing but the arrays made here.

Spectra are formed with ``np.fft`` from first rows, using the package's
conventions ``lam_k = sum_j s_j w**(k*j)`` and
``mu_k = sum_j c_j w**((k + 1/2)*j)`` with ``w = exp(2*pi*i/n)``.
"""

import numpy as np

#: Oracle tolerance relative to the largest expected modulus; the CLI uses
#: the same policy before it exits 0.
VERIFY_RTOL = 1e-7


def tolerance(expected):
    return VERIFY_RTOL * max(1.0, float(np.max(np.abs(expected))))


def circulant_spectrum(s):
    s = np.asarray(s, dtype=float)
    return s.size * np.fft.ifft(s)


def skew_spectrum(c):
    c = np.asarray(c, dtype=float)
    n = c.size
    return n * np.fft.ifft(c * np.exp(1j * np.pi * np.arange(n) / n))


def dense_circulant(s):
    s = np.asarray(s, dtype=float)
    n = s.size
    return s[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def hit_rows(rng, n, bordered):
    """Rows with ``s >= |c|`` by construction (acceptance criterion 7).

    The bordered build compares rows at shifted offsets, so there ``s``
    dominates the largest skew magnitude everywhere.
    """
    c = rng.uniform(-1.0, 1.0, size=n)
    if bordered:
        s = np.max(np.abs(c)) + rng.uniform(0.0, 1.0, size=n + 1)
    else:
        s = np.abs(c) + rng.uniform(0.0, 1.0, size=n)
    return s, c


def miss_candidate_rows(rng, n, bordered):
    """Rows that usually admit no witness although every reordering keeps
    the circulant row nonnegative, so the pair loop runs to the end.

    ``s`` is a dominant head over a near-flat body; ``c`` has body
    magnitudes on both sides of the flat level.  Whether a draw is a miss
    is decided once by the library and recorded in ``references.json``.
    """
    m = n + 1 if bordered else n
    s = 1.0 + rng.uniform(-0.2, 0.2, size=m)
    s[0] = rng.uniform(1.0, 2.0)
    c = rng.uniform(0.6, 1.2, size=n) * rng.choice([-1.0, 1.0], size=n)
    c[0] = rng.uniform(-0.5, 0.5)
    return s, c


def passes_trivial_checks(lam, ups):
    """The ordering-independent necessary conditions ``s_0 >= |c_0|`` and
    ``||s||_2 >= ||c||_2``, read off the spectra (mean and Parseval)."""
    s0 = float(np.mean(lam).real)
    c0 = float(np.mean(ups).real)
    s_norm = np.linalg.norm(lam) / np.sqrt(lam.size)
    c_norm = np.linalg.norm(ups) / np.sqrt(ups.size)
    return s0 >= abs(c0) and s_norm >= c_norm


def search_pair(pool, n, bordered, index):
    """(lam, ups) for member ``index`` of a recorded search pool, either
    ``"search_hit"`` or ``"search_miss"``."""
    tag = {"search_hit": 1, "search_miss": 2}[pool]
    rng = np.random.default_rng([tag, n, int(bordered), index])
    make = hit_rows if pool == "search_hit" else miss_candidate_rows
    s, c = make(rng, n, bordered)
    return circulant_spectrum(s), skew_spectrum(c)


def brauer_input(rng, n, zero_tail):
    """(upsilon, tail, rho, gamma, sign) that the Brauer pipeline realizes.

    ``rho`` uses the bound ``max_k |c_k| <= sum |mu| / n``, valid for every
    skew reordering, so ``rho - (n+1)*chi`` is never below the head of the
    tail's own nonnegative circulant row.
    """
    c = rng.uniform(-2.0, 2.0, size=n)
    ups = skew_spectrum(c)
    chi_bound = float(np.sum(np.abs(ups))) / n
    if zero_tail:
        tail = np.zeros(n, dtype=complex)
        head = 0.0
    else:
        lam = circulant_spectrum(rng.uniform(0.0, 1.0, size=n + 1))
        tail, head = lam[1:], float(lam[0].real)
    rho = (n + 1) * chi_bound + head
    gamma = float(rng.choice([1.0, 0.5]))
    sign = int(rng.choice([1, -1]))
    return ups, tail, rho, gamma, sign


def block_rows(rng, n, bordered, symmetric=False):
    """Rows for a dense block build: ``|c| <= s`` on the compared offsets.

    ``symmetric`` makes both structured matrices symmetric: the build is
    then symmetric too, and its eigenvalues are real and mostly double.
    """
    c = rng.uniform(-1.0, 1.0, size=n)
    if symmetric:
        body = c[1:].copy()
        c[1:] = (body - body[::-1]) / 2.0
        u = rng.uniform(0.0, 1.0, size=n)
        u[1:] = (u[1:] + u[1:][::-1]) / 2.0
        return np.abs(c) + u, c
    if bordered:
        return np.max(np.abs(c)) + rng.uniform(0.0, 1.0, size=n + 1), c
    return np.abs(c) + rng.uniform(0.0, 1.0, size=n), c


def defective_pair(rng, m, k):
    """(S, C) with ``|C| <= S`` whose spectra are known exactly and where S
    has a Jordan block of size ``k``.

    Both are a shared permutation of upper triangular matrices, so their
    spectra are their diagonals; the first ``k`` diagonal entries of S are
    equal and chained by a nonzero superdiagonal.
    """
    diag = rng.uniform(0.5, 2.0, size=m)
    diag[:k] = diag[0]
    upper = np.triu(rng.uniform(0.0, 1.0, size=(m, m)), 1)
    upper *= rng.uniform(size=(m, m)) < 0.5
    for i in range(k - 1):
        upper[i, i + 1] = rng.uniform(0.5, 1.0)
    S = upper + np.diag(diag)
    C = S * np.triu(rng.uniform(-1.0, 1.0, size=(m, m)))
    perm = rng.permutation(m)
    return S[np.ix_(perm, perm)], C[np.ix_(perm, perm)]


def region_point(rng):
    r = rng.uniform(0.0, 1.0)
    a = rng.uniform(-1.0, 1.0) * (1.0 + r) / 2.0
    b = rng.uniform(-1.0, 1.0) * (1.0 - r) / 2.0
    return r, a, b


def four_values(rng):
    """Two reals and a conjugate pair meeting the 4x4 entry conditions,
    in shuffled order."""
    lam1 = rng.uniform(1.0, 10.0)
    lam2 = rng.uniform(-1.0, 1.0) * lam1
    x = rng.uniform(-0.99, 0.99) * (lam1 + lam2) / 2.0
    y = rng.uniform(0.05, 0.99) * (lam1 - lam2) / 2.0
    values = np.array([lam1, lam2, complex(x, y), complex(x, -y)])
    return values[rng.permutation(4)]


def unrealizable_four(rng):
    """A 4-list violating ``lam1 - lam2 >= 2*|Im(lam3)|``."""
    lam1 = rng.uniform(1.0, 2.0)
    lam2 = lam1 / 2.0
    y = rng.uniform(0.6, 1.0) * lam1
    return np.array([lam1, lam2, complex(0.0, y), complex(0.0, -y)])
