"""Independent brute-force oracles used to validate the fast paths.

Everything here avoids the library's Groebner/Hilbert machinery on purpose:
ranks come from dense Gaussian elimination over GF(p), monomial enumeration
from itertools, so agreement is meaningful evidence.
"""

import itertools
from math import comb


def gf_echelon(p, rows):
    """Reduced row echelon form of a dense matrix over GF(p): the nonzero
    rows, each with a 1 at its pivot, and their pivot columns."""
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    pivots = []
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
        pivots.append(col)
    return mat[:rank], pivots


def gf_rank(p, rows):
    """Rank of a dense matrix over GF(p) by Gaussian elimination."""
    return len(gf_echelon(p, rows)[1])


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


def poly_text(names, terms):
    """The text of a polynomial from its terms, (exponent tuple, power-basis
    tuple of the coefficient) in descending order: "0" for no term, else
    the terms joined by " + ", each its coefficient (``gf_format``) and its
    variables' powers joined by "*", the coefficient left out when it is 1
    and some variable is present."""
    parts = []
    for exps, coeff in terms:
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(names, exps) if e]
        text = gf_format(coeff)
        parts.append("*".join(factors if factors and text == "1"
                              else [text] + factors))
    return " + ".join(parts) or "0"


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


def koszul_betti(p, nvars, gens, j_max):
    """Graded Betti numbers {(i, j): beta_{i,j}} of S/I over GF(p) for
    j <= j_max, I generated by ``gens`` (lists of (exps, coeff)), as the
    homology of the Koszul complex of the variables on S/I:
    beta_{i,j} = dim H_i(K(x) tensor S/I)_j, where the degree-j part of
    K_i is wedge^i GF(p)^n tensor (S/I)_{j-i} and
    d(e_A tensor f) = sum_s (-1)^s e_{A - a_s} tensor x_{a_s} f.

    (S/I)_d is spanned by the monomials of degree d off the pivot columns
    of the echelon form of I_d, and a pivot monomial is minus its row on
    them; beta_{i,j} = dim K_{i,j} - rank d_{i,j} - rank d_{i+1,j}."""
    quotients = []  # per degree: (standard monomials, normal form of each)
    for d in range(j_max + 1):
        basis = degree_monomials(nvars, d)
        if quotients and not quotients[-1][0]:
            quotients.append(([], {}))  # I_{d-1} = S_{d-1}, so I_d = S_d
            continue
        index = {m: i for i, m in enumerate(basis)}
        rows = []
        for gen in gens:
            e = d - sum(gen[0][0])
            for mult in degree_monomials(nvars, e) if e >= 0 else ():
                row = [0] * len(basis)
                for exps, c in gen:
                    row[index[tuple(a + b for a, b in zip(exps, mult))]] = c
                rows.append(row)
        echelon, pivots = gf_echelon(p, rows)
        pivot_set = set(pivots)
        standard = [m for i, m in enumerate(basis) if i not in pivot_set]
        normal = {m: {m: 1} for m in standard}
        for row, col in zip(echelon, pivots):
            normal[basis[col]] = {m: -row[index[m]] % p for m in standard
                                  if row[index[m]]}
        quotients.append((standard, normal))

    def dim(i, j):
        return comb(nvars, i) * len(quotients[j - i][0])

    def rank(i, j):
        """The rank of d_i in degree j, from K_{i,j} to K_{i-1,j}."""
        if i == 0 or i > nvars or j - i < 0 or not dim(i, j):
            return 0
        source = quotients[j - i][0]
        target = quotients[j - i + 1][0]
        faces = list(itertools.combinations(range(nvars), i - 1))
        column = {(B, m): a for a, (B, m) in
                  enumerate(itertools.product(faces, target))}
        rows = []
        for A in itertools.combinations(range(nvars), i):
            for m in source:
                row = [0] * len(column)
                for s, v in enumerate(A):
                    shifted = tuple(e + (k == v) for k, e in enumerate(m))
                    face = A[:s] + A[s + 1:]
                    for mono, c in quotients[j - i + 1][1][shifted].items():
                        row[column[(face, mono)]] += (-1) ** s * c
                rows.append(row)
        return gf_rank(p, rows)

    betti = {}
    for j in range(j_max + 1):
        for i in range(min(nvars, j) + 1):
            b = dim(i, j) - rank(i, j) - rank(i + 1, j)
            if b:
                betti[(i, j)] = b
    return betti
