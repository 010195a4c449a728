import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import linalg

from _oracle import naive_kernel, naive_rank, naive_rref, naive_solve


def frand(rng):
    if rng.random() < 0.3:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return Fraction(rng.randint(-4, 4))


def random_matrix(rng, nrows, ncols):
    return [[frand(rng) for _ in range(ncols)] for _ in range(nrows)]


def mat_vec(rows, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows]


def test_identity_kernel():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.rank(rows) == 3 and linalg.kernel_basis(rows, 3) == []


def test_zero_matrix_kernel():
    rows = [[0] * 5, [0] * 5]
    ker = linalg.kernel_basis(rows, 5)
    assert linalg.rank(rows) == 0 and len(ker) == 5
    expected = [[Fraction(1 if i == j else 0) for j in range(5)] for i in range(5)]
    assert ker == expected


def test_rref_matches_naive_oracle():
    rng = random.Random(1234)
    for _ in range(120):
        rows = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert linalg.rref(rows) == naive_rref(rows)


def test_rank_equals_transpose_rank():
    # rank eliminates whichever orientation has fewer rows, so wide, square
    # and tall matrices, rank-deficient products and empty shapes all count
    rng = random.Random(77)
    cases = [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(100)]
    cases += [random_matrix(rng, rng.randint(7, 40), rng.randint(1, 6)) for _ in range(40)]
    for _ in range(20):
        # 40xk times kx6: tall, and of rank at most k
        k = rng.randint(1, 5)
        left, right = random_matrix(rng, 40, k), random_matrix(rng, k, 6)
        cases.append([[sum((a * b for a, b in zip(row, col)), Fraction(0))
                       for col in zip(*right)] for row in left])
    for rows in cases[100:110]:
        # zero rows and zero columns inserted
        zero = [Fraction(0)] * (len(rows[0]) + 1)
        cases.append([zero] + [[Fraction(0)] + r for r in rows] + [zero])
    cases += [[], [[], []], [[Fraction(0)] * 6 for _ in range(40)], [[Fraction(0)]] * 3]
    for rows in cases:
        expected = naive_rank(rows)
        transpose = [list(col) for col in zip(*rows)]
        assert linalg.rank(rows) == linalg.rank(transpose) == expected
        assert linalg.rank(tuple(map(tuple, rows))) == expected
        assert linalg.rank(tuple(zip(*rows))) == expected


def test_kernel_vectors_annihilate_exactly():
    rng = random.Random(4242)
    for _ in range(80):
        ncols = rng.randint(1, 6)
        rows = random_matrix(rng, rng.randint(1, 6), ncols)
        ker = linalg.kernel_basis(rows, ncols)
        assert linalg.rank(rows) + len(ker) == ncols
        for vec in ker:
            assert all(c == 0 for c in mat_vec(rows, vec))


def test_in_span_trivial_cases():
    v = [Fraction(2), Fraction(1)]
    assert linalg.solve_columns([v], v) == [Fraction(1)]
    e1 = [Fraction(1), Fraction(0), Fraction(0)]
    e2 = [Fraction(0), Fraction(1), Fraction(0)]
    e3 = [Fraction(0), Fraction(0), Fraction(1)]
    assert linalg.solve_columns([e2, e3], e1) is None
    # an empty basis spans only the zero vector
    assert linalg.solve_columns([], e1) is None
    assert linalg.solve_columns([], [Fraction(0)] * 3) == []


def test_in_span_iff_rank_unchanged():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 5)
        basis = random_matrix(rng, rng.randint(1, 4), n)
        v = random_matrix(rng, 1, n)[0]
        coeffs = linalg.solve_columns(basis, v)
        grew = naive_rank(basis + [v]) > naive_rank(basis)
        assert (coeffs is not None) == (not grew)
        if coeffs is not None:
            combo = [sum((c * b[i] for c, b in zip(coeffs, basis)), Fraction(0))
                     for i in range(n)]
            assert combo == [Fraction(c) for c in v]


def test_solve_columns_exact():
    rng = random.Random(555)
    for _ in range(60):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        cols = [random_matrix(rng, 1, n)[0] for _ in range(k)]
        weights = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
        target = [sum((w * col[i] for w, col in zip(weights, cols)), Fraction(0))
                  for i in range(n)]
        sol = linalg.solve_columns(cols, target)
        assert sol is not None
        rebuilt = [sum((s * col[i] for s, col in zip(sol, cols)), Fraction(0))
                   for i in range(n)]
        assert rebuilt == target


# -- the integer-native routines against a naive Fraction Gauss-Jordan --------

# ints and Fractions with different denominators, in one matrix
ENTRIES = st.one_of(st.integers(-6, 6),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 9)))


@st.composite
def matrices(draw):
    """(rows, ncols): tall, wide or square, possibly empty, with zero rows
    and, half the time, rows that are combinations of a few others."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    if draw(st.booleans()):
        base = draw(st.lists(row, min_size=1, max_size=3))
        weights = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
        rows = [[sum((w * b[j] for w, b in zip(ws, base)), Fraction(0)) for j in range(ncols)]
                for ws in draw(st.lists(weights, min_size=nrows, max_size=nrows))]
    else:
        rows = draw(st.lists(st.one_of(row, st.just([0] * ncols)),
                             min_size=nrows, max_size=nrows))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_and_rank_match_naive_gauss_jordan(case):
    rows, _ = case
    pivots, red = linalg.rref(rows)
    assert (pivots, red) == naive_rref(rows)
    assert all(type(c) is Fraction for r in red for c in r)
    assert linalg.rank(rows) == len(pivots)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_kernel_basis_matches_naive_gauss_jordan(case):
    rows, ncols = case
    ker = linalg.kernel_basis(rows, ncols)
    assert ker == naive_kernel(rows, ncols)
    assert all(type(c) is Fraction for v in ker for c in v)


@st.composite
def wide_or_low_rank_matrices(draw):
    """(rows, ncols) over up to 12 columns: either any shape with entries
    drawn freely, or catalecticant-like: up to 20 rows, each a small integer
    combination of at most 4 base rows, so the matrix is tall and of low
    rank."""
    ncols = draw(st.integers(1, 12))
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    if draw(st.booleans()):
        return draw(st.lists(row, max_size=12)), ncols
    base = draw(st.lists(row, min_size=1, max_size=4))
    weights = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
    rows = [[sum((w * b[j] for w, b in zip(ws, base)), Fraction(0)) for j in range(ncols)]
            for ws in draw(st.lists(weights, min_size=len(base), max_size=20))]
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(wide_or_low_rank_matrices())
def test_kernel_basis_is_the_reduced_echelon_kernel(case):
    rows, ncols = case
    ker = linalg.kernel_basis(rows, ncols)
    assert ker == naive_kernel(rows, ncols)
    assert len(ker) == ncols - naive_rank(rows)
    for v in ker:
        assert all(sum((Fraction(a) * c for a, c in zip(r, v)), Fraction(0)) == 0
                   for r in rows)
    # reduced echelon: leading 1s in increasing columns, zero in the others' columns
    leads = [next(j for j, c in enumerate(v) if c) for v in ker]
    assert leads == sorted(set(leads))
    for v, lead in zip(ker, leads):
        assert v[lead] == 1
        assert all(w[lead] == 0 for w in ker if w is not v)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_solve_columns_matches_naive_gauss_jordan(case, data):
    rows, _ = case
    cols = [list(c) for c in zip(*rows)]
    if data.draw(st.booleans()):
        # a target in the span, so that a solution exists
        weights = data.draw(st.lists(ENTRIES, min_size=len(cols), max_size=len(cols)))
        target = [sum((w * r[j] for j, w in enumerate(weights)), Fraction(0)) for r in rows]
    else:
        target = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    sol = linalg.solve_columns(cols, target)
    assert sol == naive_solve(cols, target)
    if sol is not None:
        assert all(type(c) is Fraction for c in sol)


@st.composite
def sparse_rows(draw):
    """(rows, ncols): {column: value} rows over up to 20 columns with a few
    entries each, up to 25 of them (mostly taller than their rank), explicit
    zero entries and empty rows allowed; half the time every row is a
    combination of a few sparse base rows."""
    ncols = draw(st.integers(1, 20))
    row = st.dictionaries(st.integers(0, ncols - 1), ENTRIES, max_size=4)
    nrows = draw(st.integers(0, 25))
    if draw(st.booleans()):
        base = draw(st.lists(row, min_size=1, max_size=4))
        rows = []
        for ws in draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base),
                                         max_size=len(base)), min_size=nrows, max_size=nrows)):
            combo = {}
            for w, b in zip(ws, base):
                for c, x in b.items():
                    combo[c] = combo.get(c, 0) + w * x
            rows.append(combo)
    else:
        rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    return rows, ncols


def _dense(row, ncols):
    return [row.get(c, 0) for c in range(ncols)]


def _check_sparse_rref(rows, ncols):
    pivots, red = linalg.sparse_rref(rows)
    expected = naive_rref([_dense(r, ncols) for r in rows]) if rows else ([], [])
    assert pivots == expected[0]
    assert [[Fraction(x, row[p]) for x in _dense(row, ncols)]
            for p, row in zip(pivots, red)] == expected[1]
    for p, row in zip(pivots, red):
        # primitive integer rows, only nonzero entries, positive pivot entry
        assert all(type(x) is int and x for x in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1


@settings(max_examples=300, deadline=None)
@given(sparse_rows())
def test_sparse_rref_matches_naive_gauss_jordan(case):
    _check_sparse_rref(*case)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_sparse_rref_matches_naive_gauss_jordan_on_dense_rows(case):
    rows, ncols = case
    _check_sparse_rref([dict(enumerate(r)) for r in rows], ncols)


def test_sparse_rref_skips_rows_whose_entry_cancelled():
    # clearing column 2 with x2 + x3 also cancels column 3 in the first two
    # rows, so the column index still names them when x3 becomes a pivot
    rows = [{0: 1, 2: 1, 3: 1}, {1: 1, 2: 1, 3: 1}, {2: 1, 3: 1}, {3: 1}]
    assert linalg.sparse_rref(rows) == ([0, 1, 2, 3], [{0: 1}, {1: 1}, {2: 1}, {3: 1}])
    _check_sparse_rref(rows, 4)


def _cleared(vec):
    """A Fraction vector times the lcm of its denominators."""
    den = lcm(*(Fraction(x).denominator for x in vec))
    return [int(x * den) for x in vec]


@settings(max_examples=300, deadline=None)
@given(sparse_rows(), st.randoms(use_true_random=False))
def test_sparse_rref_ignores_row_order_duplicates_and_scaling(case, rng):
    rows, _ = case
    # single-entry rows, which the slice builder hands over most
    rows = rows + [{rng.randrange(20): Fraction(rng.randint(1, 5), rng.randint(1, 3))}
                   for _ in range(rng.randint(0, 4))]
    expected = linalg.sparse_rref(rows)
    moved = [dict(r) for r in rows]
    moved += [dict(rng.choice(rows)) for _ in range(rng.randint(0, 5))] if rows else []
    for i, r in enumerate(moved):
        if rng.random() < 0.5:
            scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
            moved[i] = {c: x * scale for c, x in r.items()}
    rng.shuffle(moved)
    assert linalg.sparse_rref(moved) == expected


@settings(max_examples=300, deadline=None)
@given(wide_or_low_rank_matrices())
def test_int_kernel_basis_is_the_cleared_kernel_basis(case):
    rows, ncols = case
    ints = linalg.int_kernel_basis(rows, ncols)
    assert ints == [_cleared(v) for v in linalg.kernel_basis(rows, ncols)]
    for v in ints:
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1 and next(x for x in v if x) > 0


def test_int_kernel_basis_edge_cases():
    rng = random.Random(17)
    for _ in range(60):
        rows = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ncols = len(rows[0])
        assert (linalg.int_kernel_basis(rows, ncols)
                == [_cleared(v) for v in naive_kernel(rows, ncols)])
    assert linalg.int_kernel_basis([[0] * 3, [0] * 3], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    full = [[2, 1, 0, 0], [0, Fraction(1, 3), 1, 0], [1, 0, 0, 5], [0, 0, 7, 1]]
    assert naive_rank(full) == 4 and linalg.int_kernel_basis(full, 4) == []
    assert linalg.int_kernel_basis([], 2) == [[1, 0], [0, 1]]
    assert linalg.int_kernel_basis([[Fraction(1, 2), Fraction(1, 3)]], 2) == [[2, -3]]


def test_empty_input():
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.kernel_basis([], 2) == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert linalg.solve_columns([], []) == []


def _int_corpus(count=500, seed=3707):
    """Seeded integer matrices (rows, ncols): zero rows, rows with content
    above 1 and negative leading entries mixed in, and one empty row list."""
    rng = random.Random(seed)
    corpus = [([], rng.randint(1, 5))]
    while len(corpus) < count:
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            if kind < 0.15:
                row = [0] * ncols
            else:
                row = [rng.randint(-5, 5) for _ in range(ncols)]
                if kind < 0.45:
                    row = [rng.choice((-6, -4, 2, 3, 9)) * x for x in row]
                if kind > 0.8 and any(row):  # a negative leading entry
                    lead = next(x for x in row if x)
                    row = [-x for x in row] if lead > 0 else row
            rows.append(row)
        corpus.append((rows, ncols))
    return corpus


def _linalg_results(rows, ncols, target):
    return repr((linalg.rref(rows), linalg.rank(rows), linalg.kernel_basis(rows, ncols),
                 linalg.int_kernel_basis(rows, ncols), linalg.solve_columns(rows, target)))


def test_int_rows_reduce_as_their_fraction_copies_do():
    # int rows are taken as they are, and a row holding a Fraction, the last
    # entry alone included (gcd refuses it part-way), is cleared first
    corpus = _int_corpus()
    assert len(corpus) >= 500 and corpus[0][0] == []
    assert any(r and not any(r) for rows, _ in corpus for r in rows)
    assert any(gcd(*r) > 1 for rows, _ in corpus for r in rows)
    assert any(next((x for x in r if x), 0) < 0 for rows, _ in corpus for r in rows)
    before = repr(corpus)
    rng = random.Random(3708)
    for rows, ncols in corpus:
        target = [rng.randint(-3, 3) for _ in range(ncols)]
        want = _linalg_results(rows, ncols, target)
        shapes = (
            [tuple(r) for r in rows],
            [[Fraction(x) for x in r] for r in rows],
            [r[:-1] + [Fraction(r[-1])] for r in rows],
        )
        for twin in shapes:
            assert _linalg_results(twin, ncols, [Fraction(t) for t in target]) == want
        assert linalg.rref(rows) == naive_rref(rows)
        assert linalg.rank(rows) == naive_rank(rows)
        assert linalg.solve_columns(rows, target) == naive_solve(rows, target)
    assert repr(corpus) == before  # no input row was changed
