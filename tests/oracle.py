"""Independent brute-force oracles used to validate the fast paths.

Everything here avoids the library's Groebner/Hilbert machinery on purpose:
ranks come from dense Gaussian elimination over GF(p), monomial enumeration
from itertools, so agreement is meaningful evidence.
"""

import itertools
from math import comb


def gf_rank(p, rows):
    """Rank of a dense matrix over GF(p) by Gaussian elimination."""
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def degree_monomials(nvars, d):
    """All exponent tuples of total degree d (stars and bars)."""
    if nvars == 1:
        return [(d,)]
    out = []
    for bars in itertools.combinations(range(d + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + nvars - 2 - prev)
        out.append(tuple(exps))
    return out


def divides(a, b):
    """Whether the monomial of exponent tuple a divides that of b."""
    return all(x <= y for x, y in zip(a, b))


def order_key(kind, exps, precedence=None, nelim=0):
    """A reference sort key, as tuples, for the monomial orders: larger keys
    for larger monomials.  ``kind`` is "grevlex", "lex" or "grlex", read
    with the variables permuted into ``precedence`` (first largest);
    ``nelim`` > 0 gives the elimination order of the first ``nelim``
    variables, their degree above grevlex on the whole vector."""
    if nelim:
        return (sum(exps[:nelim]), sum(exps), tuple(-e for e in reversed(exps)))
    if precedence is not None:
        exps = tuple(exps[i] for i in precedence)
    if kind == "grevlex":
        return (sum(exps), tuple(-e for e in reversed(exps)))
    if kind == "lex":
        return tuple(exps)
    return (sum(exps), tuple(exps))


def _times_g(c, min_poly, p):
    """c * g in GF(p)[g]/(min_poly), low-degree-first coefficient lists,
    min_poly monic: g^k = -(min_poly without its top term)."""
    top = c[-1]
    return [(a - top * m) % p for a, m in zip([0] + list(c[:-1]), min_poly)]


def gf_mul(a, b, min_poly, p):
    """Schoolbook product of two power-basis tuples of GF(p)[g]/(min_poly),
    low degree first, ``min_poly`` monic of degree k: the product's terms
    of degree k and above are reduced top down by g^k = -(min_poly without
    its top term)."""
    k = len(min_poly) - 1
    out = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for d in range(2 * k - 2, k - 1, -1):
        c = out[d] % p
        for i, m in enumerate(min_poly):
            out[d - k + i] -= c * m
    return tuple(c % p for c in out[:k])


def gf_format(a):
    """The text of a power-basis tuple: its constant when every other
    coefficient is 0, else the nonzero terms c*g^i in parentheses."""
    if not any(a[1:]):
        return str(a[0])
    parts = []
    for i, c in enumerate(a):
        if c:
            power = "" if i == 0 else "g" if i == 1 else f"g^{i}"
            coeff = str(c) if c != 1 or i == 0 else ""
            parts.append("*".join(t for t in (coeff, power) if t))
    return "(" + " + ".join(parts) + ")"


def hilbert_by_rank(p, nvars, gens, d, min_poly=None):
    """h_{S/I}(d) for I generated by ``gens`` (lists of (exps, coeff)),
    via the rank of the degree-d coefficient matrix of I.

    Over GF(p) a coefficient is an int.  With ``min_poly`` (monic, degree k)
    the field is GF(p^k) = GF(p)[g]/(min_poly) and a coefficient is its
    k-tuple in the basis 1, g, ..., g^(k-1); the matrix is then read over
    GF(p), each row r standing for the GF(p)-span of r, g*r, ..., g^(k-1)*r,
    so its GF(p)-rank is k times the GF(p^k)-rank."""
    k = 1 if min_poly is None else len(min_poly) - 1
    basis = degree_monomials(nvars, d)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for gen in gens:
        gdeg = sum(gen[0][0])
        if gdeg > d:
            continue
        for mult in degree_monomials(nvars, d - gdeg):
            cols = {}
            for exps, c in gen:
                shifted = tuple(a + b for a, b in zip(exps, mult))
                cols[index[shifted]] = [c % p] if k == 1 else list(c)
            for _ in range(k):
                row = [0] * (k * len(basis))
                for i, c in cols.items():
                    row[k * i:k * i + k] = c
                rows.append(row)
                if k > 1:
                    cols = {i: _times_g(c, min_poly, p)
                            for i, c in cols.items()}
    rank = gf_rank(p, rows)
    assert rank % k == 0
    return len(basis) - rank // k


def poly_to_dense(f):
    """Library polynomial -> [(exps, coeff)] for the oracle: an int over a
    prime field, the power-basis tuple (``field.vector``) over GF(p^k)."""
    field = f.ring.field
    if field.k == 1:
        return f.sorted_terms()
    return [(exps, field.vector(c)) for exps, c in f.sorted_terms()]


def free_module_hilbert(nvars, twists, d):
    """h of a twisted free module sum_j S(-j) at degree d."""
    total = 0
    for j in twists:
        e = d - j
        if e >= 0:
            total += comb(e + nvars - 1, nvars - 1)
    return total
