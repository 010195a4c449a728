"""Independent naive helpers used to cross-check the library's linear
algebra; deliberately written without Bareiss or any shared code path."""

from fractions import Fraction


def naive_rref(rows):
    rows = [[Fraction(c) for c in r] for r in rows]
    rows = [r for r in rows if any(r)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        rows[r] = [c / lead for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots, rows[:r]


def naive_rank(rows):
    return len(naive_rref(rows)[0])


def naive_kernel(rows, ncols):
    """Reduced echelon basis of {v : A v = 0}: one vector per free column,
    read off the naive reduced form, then reduced itself."""
    pivots, red = naive_rref(rows)
    vecs = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -red[k][free]
        vecs.append(v)
    return naive_rref(vecs)[1]


def naive_solve(cols, target):
    """The solution of sum_j c_j cols[j] = target with free coordinates
    zero, or None when there is none."""
    ncols = len(cols)
    aug = [[Fraction(col[i]) for col in cols] + [Fraction(t)] for i, t in enumerate(target)]
    pivots, red = naive_rref(aug)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for k, p in enumerate(pivots):
        sol[p] = red[k][ncols]
    return sol


def naive_poly_gcd(a, b):
    """Monic gcd of two univariate polynomials given as ascending coefficient
    lists (ints or Fractions), by Euclid's algorithm over Fractions; the
    empty list for gcd(0, 0)."""
    def trim(p):
        p = [Fraction(c) for c in p]
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim(a), trim(b)
    while b:
        while len(a) >= len(b):  # a := a mod b
            q, shift = a[-1] / b[-1], len(a) - len(b)
            a = trim([c - q * b[k - shift] if k >= shift else c for k, c in enumerate(a)])
        a, b = b, a
    return [c / a[-1] for c in a]


def random_poly(rng, table, ring, degree, max_terms=4, allow_zero=False):
    """Random polynomial with small integer coefficients, exact degree bound."""
    from apolar.poly import Poly, monomials

    monos = list(monomials(table.n, degree))
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        m = monos[rng.randrange(len(monos))]
        c = rng.randint(-4, 4)
        if c:
            terms[m] = terms.get(m, 0) + c
    return Poly(table, ring, {m: c for m, c in terms.items() if c})


def poly_from_vector(table, ring, degree, vec):
    """The form whose coefficient_vector(degree) is vec: the inverse of
    Poly.coefficient_vector for a fixed degree."""
    from apolar.poly import Poly, monomials

    return Poly(table, ring, {m: c for m, c in zip(monomials(table.n, degree), vec) if c})


def naive_product_terms(a, b):
    """Product of two {exponent tuple: coefficient} term maps, term by term
    in Fraction arithmetic; zero coefficients dropped."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {m: c for m, c in out.items() if c}


def naive_power_terms(terms, nvars, k):
    """terms ** k by k repeated products, starting from the constant 1."""
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = naive_product_terms(out, terms)
    return out


def naive_substitute(terms, images, nvars):
    """terms with variable i replaced by the term map images[i] in nvars
    variables: per term, the coefficient times the product of the image
    powers, by repeated products; zero coefficients dropped."""
    out = {}
    for mono, c in terms.items():
        piece = {(0,) * nvars: Fraction(c)}
        for image, e in zip(images, mono):
            piece = naive_product_terms(piece, naive_power_terms(image, nvars, e))
        for m, v in piece.items():
            out[m] = out.get(m, Fraction(0)) + v
    return {m: v for m, v in out.items() if v}


def naive_perturbed_power(c, base, direction, nvars, d):
    """c * (base + t*direction)^d as {monomial: {t-power: coefficient}}, one
    binomial piece c * C(d, j) * base^(d-j) * direction^j per t-power j."""
    from math import comb

    out = {}
    for j in range(d + 1):
        piece = naive_product_terms(naive_power_terms(base, nvars, d - j),
                                    naive_power_terms(direction, nvars, j))
        for m, v in piece.items():
            v *= Fraction(c) * comb(d, j)
            if v:
                out.setdefault(m, {})[j] = v
    return out


def naive_add_laurent(total, part):
    """Sum of two {monomial: {t-power: coefficient}} maps, zeros dropped."""
    out = {m: dict(l) for m, l in total.items()}
    for m, l in part.items():
        dst = out.setdefault(m, {})
        for e, v in l.items():
            dst[e] = dst.get(e, Fraction(0)) + v
            if not dst[e]:
                del dst[e]
        if not dst:
            del out[m]
    return out


def naive_contract(alpha_terms, f_terms):
    """The dual operator {exponent tuple: coefficient} applied to f as
    partial derivatives, straight from the definition: y^c sends x^m to
    prod_k m_k! / (m_k - c_k)! * x^(m - c) when m >= c and to 0 otherwise.
    Term by term in Fraction arithmetic; zero coefficients dropped."""
    from math import factorial

    out = {}
    for c, ca in alpha_terms.items():
        for m, cf in f_terms.items():
            if any(a > b for a, b in zip(c, m)):
                continue
            weight = 1
            for a, b in zip(c, m):
                weight *= factorial(b) // factorial(b - a)
            r = tuple(b - a for a, b in zip(c, m))
            out[r] = out.get(r, Fraction(0)) + Fraction(ca) * Fraction(cf) * weight
    return {r: v for r, v in out.items() if v}


def reexpanded_concise_dim(f):
    """`apolarity.concise_dim` with one verification for every input: f is
    projected onto a new table over the pivot variables, however many there
    are, and the projection is re-expanded along the basis by
    `Poly.substitute` and compared with f."""
    from apolar import linalg
    from apolar.apolarity import EssentialSpace, _int_catalecticant
    from apolar.poly import PRIMAL, Poly, VarTable, linear_form

    pivots, red = linalg.rref(_int_catalecticant(f, 1))
    basis = tuple(linear_form(f.table, row) for row in red)
    sub_table = VarTable.make([f.table.primal[p] for p in pivots],
                              dual=[f.table.dual[p] for p in pivots])
    others = [j for j in range(f.table.n) if j not in pivots]
    reduced = Poly(sub_table, PRIMAL, {tuple(m[p] for p in pivots): c for m, c in f.terms.items()
                                       if not any(m[j] for j in others)})
    if reduced.substitute(list(basis)) != f:
        raise ValueError("essential-variable reduction failed to reproduce the input")
    return EssentialSpace(dim=len(pivots), basis=basis, reduced=reduced, table=sub_table)
