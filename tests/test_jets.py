import math
import operator

import numpy as np
import pytest

from bitension import jets
from bitension.jets import Jet, JetDomainError

import support


def test_seed_variable_layout():
    j = Jet.variable(1, 0.25, 3)
    assert j.value == 0.25
    assert j.partial((0, 1, 0)) == 1.0
    assert j.partial((1, 0, 0)) == 0.0
    assert j.partial((0, 0, 2)) == 0.0


def test_seed_variable_index_out_of_range():
    with pytest.raises(ValueError):
        Jet.variable(3, 0.0, 3)


def test_extract_partial_exceeding_order():
    j = Jet.variable(0, 1.0, 2)
    with pytest.raises(ValueError):
        j.partial((5, 0))


def test_hand_computed_partials():
    # f(x, y) = exp(x + 2y): d^(a,b) f = 2^b exp(x + 2y)
    x = Jet.variable(0, 0.3, 2)
    y = Jet.variable(1, -0.1, 2)
    f = jets.exp(x + 2.0 * y)
    base = math.exp(0.3 - 0.2)
    for a, b in [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3), (4, 0)]:
        assert f.partial((a, b)) == pytest.approx(2.0 ** b * base, rel=1e-12)
    # g = x^2 y^2: the only surviving 4th-order mixed partial is d^(2,2) g = 4
    g = x * x * y * y
    assert g.partial((2, 2)) == pytest.approx(4.0, rel=1e-13)
    assert g.partial((1, 1)) == pytest.approx(4.0 * 0.3 * -0.1, rel=1e-13)


def test_polynomial_truncation_is_silent():
    # degree-5 content simply vanishes from an order-4 jet
    x = Jet.variable(0, 0.0, 1)
    p = (x * x * x) * (x * x)
    assert np.all(p.coeffs == 0.0)


def test_derivative_drops_order():
    x = Jet.variable(0, 0.7, 2)
    y = Jet.variable(1, 0.2, 2)
    f = jets.sin(x) * y
    fx = f.derivative(0)
    assert fx.order == 3
    assert fx.value == pytest.approx(math.cos(0.7) * 0.2, rel=1e-13)
    assert fx.partial((0, 1)) == pytest.approx(math.cos(0.7), rel=1e-13)


def test_leibniz_expansion_exact():
    rng = np.random.default_rng(11)
    mids4 = jets.multi_indices(3, 4)
    for _ in range(25):
        a = Jet(3, 4, rng.normal(size=len(mids4)))
        b = Jet(3, 4, rng.normal(size=len(mids4)))
        prod = a * b
        for gamma in mids4:
            expect = 0.0
            for alpha in mids4:
                if all(ai <= gi for ai, gi in zip(alpha, gamma)):
                    beta = tuple(g - al for g, al in zip(gamma, alpha))
                    comb = math.prod(math.comb(g, al) for g, al in zip(gamma, alpha))
                    expect += comb * a.partial(alpha) * b.partial(beta)
            assert support.relative_error(prod.partial(gamma), expect) < 1e-12


def test_finite_difference_oracle():
    # randomized composites against 7-point central differences, step 1e-2
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(60):
        num_vars = int(rng.integers(1, 4))
        prog = support.random_program(rng, num_vars, depth=int(rng.integers(2, 6)))
        x0 = rng.uniform(-0.5, 0.5, size=num_vars)
        seeds = [Jet.variable(i, x0[i], num_vars) for i in range(num_vars)]
        jet = prog(seeds)
        if not isinstance(jet, Jet):  # tree degenerated to a constant
            continue
        lattice = support.fd_lattice(prog, x0, num_vars)
        for alpha in jets.multi_indices(num_vars, 4):
            fd = support.fd_partial(lattice, alpha)
            tol = 1e-5 if sum(alpha) <= 3 else 1e-3
            assert support.relative_error(jet.partial(alpha), fd) < tol, (
                trial, alpha, jet.partial(alpha), fd)
            checked += 1
    assert checked > 500


def test_degree_zero_consistency():
    rng = np.random.default_rng(5)
    for _ in range(40):
        num_vars = int(rng.integers(1, 4))
        prog = support.random_program(rng, num_vars, depth=3)
        x0 = rng.uniform(-0.5, 0.5, size=num_vars)
        seeds = [Jet.variable(i, x0[i], num_vars) for i in range(num_vars)]
        jet_val = prog(seeds)
        plain = prog(list(x0))
        if isinstance(jet_val, Jet):
            jet_val = jet_val.value
        assert support.relative_error(jet_val, plain) < 1e-15


def test_batched_jets_match_scalar_loop():
    rng = np.random.default_rng(3)
    prog = support.random_program(rng, 2, depth=4)
    pts = rng.uniform(-0.5, 0.5, size=(7, 2))
    batched = prog([Jet.variable(i, pts[:, i], 2) for i in range(2)])
    for b in range(7):
        single = prog([Jet.variable(i, pts[b, i], 2) for i in range(2)])
        assert np.allclose(batched.coeffs[b], single.coeffs, rtol=0, atol=0)


def test_integer_power_valid_at_negative_base():
    x = Jet.variable(0, -1.5, 1)
    f = jets.power(x, 3)
    assert f.value == pytest.approx((-1.5) ** 3, rel=1e-14)
    assert f.partial((1,)) == pytest.approx(3 * (-1.5) ** 2, rel=1e-14)
    g = jets.power(x, -2)
    assert g.value == pytest.approx((-1.5) ** -2, rel=1e-14)
    assert g.partial((1,)) == pytest.approx(-2 * (-1.5) ** -3, rel=1e-13)


@pytest.mark.parametrize("exponent", [np.inf, -np.inf, np.nan])
def test_a_non_finite_exponent_is_a_non_integer_power(exponent):
    # not an integer, so a nonpositive base is outside its domain
    for base in (-1.5, Jet.variable(0, -1.5, 1)):
        with pytest.raises(JetDomainError,
                           match="non-integer power of a nonpositive base"):
            jets.power(base, exponent)


def test_domain_errors():
    x = Jet.variable(0, -1.0, 1)
    with pytest.raises(JetDomainError):
        jets.ln(x)
    with pytest.raises(JetDomainError):
        jets.sqrt(x)
    with pytest.raises(JetDomainError):
        jets.power(x, 0.5)
    zero = Jet.variable(0, 0.0, 1)
    with pytest.raises(JetDomainError):
        (zero + 1.0) / zero
    with pytest.raises(JetDomainError):
        jets.ln(-2.0)


def test_batched_domain_error_reports_offender():
    x = Jet.variable(0, np.array([1.0, -3.0, 2.0]), 1)
    with pytest.raises(JetDomainError) as err:
        jets.ln(x)
    assert np.any(np.asarray(err.value.value) <= 0)


@pytest.mark.parametrize("fn,outside", [
    (jets.ln, [False, True, True, False]),
    (jets.sqrt, [False, True, True, False]),
    (lambda u: jets.power(u, 0.5), [False, True, True, False]),
    (lambda u: jets.divide(1.0, u), [False, True, False, False]),
    (lambda u: jets.divide(u, u), [False, True, False, False])])
def test_domain_errors_mark_the_entries_outside_the_domain(fn, outside):
    values = np.array([1.0, 0.0, -3.0, 2.0])
    for arg in (values, Jet.variable(0, values, 1)):
        with pytest.raises(JetDomainError) as err:
            fn(arg)
        assert err.value.outside.tolist() == outside
        assert np.array_equal(err.value.value, values)


def test_general_power_and_jet_exponent():
    x = Jet.variable(0, 1.7, 1)
    f = jets.power(x, 0.5)
    g = jets.sqrt(x)
    assert np.allclose(f.coeffs, g.coeffs, rtol=1e-12, atol=1e-14)
    h = jets.power(x, x)  # x^x = exp(x ln x)
    assert h.value == pytest.approx(1.7 ** 1.7, rel=1e-13)
    assert h.partial((1,)) == pytest.approx(
        1.7 ** 1.7 * (math.log(1.7) + 1.0), rel=1e-12)


# -- contractions ---------------------------------------------------------------


def _random_jet(rng, order, batch=(3, 4), dtype=float):
    coeffs = rng.standard_normal(batch + (len(jets.multi_indices(2, order)),))
    return Jet(2, order, coeffs.astype(dtype))


def _refused(build, *args):
    """Jets hold real coefficients only: complex input raises TypeError."""
    with pytest.raises(TypeError, match="complex"):
        build(*args)


def _zero_jet(order, batch):
    return Jet(2, order, np.zeros(batch + (len(jets.multi_indices(2, order)),)))


def _loop_contraction(terms):
    """The accumulator loop jets.contract replaces, kept as its reference."""
    acc = None
    for factors in terms:
        term = factors[0]
        for f in factors[1:]:
            term = term * f
        acc = term if acc is None else acc + term
    return acc


def test_contract_is_the_left_to_right_loop_bit_for_bit():
    rng = np.random.default_rng(41)
    a, b = _random_jet(rng, 4), _random_jet(rng, 3)
    c, z = _random_jet(rng, 2), _random_jet(rng, 4)
    terms = [(a, b), (c,), (b, a, -1.0), (z, c, 2.0), (a, z, b)]
    got = jets.contract(iter(terms))
    want = _loop_contraction(terms)
    assert got.order == want.order == 2
    assert np.array_equal(got.coeffs, want.coeffs)


def test_contract_forms_no_product_with_a_zero_factor(monkeypatch):
    rng = np.random.default_rng(42)
    a, b = _random_jet(rng, 3), _random_jet(rng, 3)
    zero = _zero_jet(3, (3, 4))
    calls = []
    mul = Jet.__mul__

    def counting(self, other):
        calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting)
    got = jets.contract([(a, zero), (zero, b, 2.0), (a, b)])
    assert len(calls) == 1 and calls[0] == (a, b)
    assert np.array_equal(got.coeffs, mul(a, b).coeffs)


def test_contract_of_skipped_terms_is_a_zero_jet():
    rng = np.random.default_rng(43)
    a = _random_jet(rng, 4, batch=(3, 1))
    got = jets.contract([(a, _zero_jet(2, (1, 5))),
                         (_zero_jet(3, (3, 5)), 2.0, a)])
    assert got.order == 2 and got.num_vars == 2
    assert got.coeffs.shape == (3, 5, len(jets.multi_indices(2, 2)))
    assert not np.any(got.coeffs)


def _counting_any(jet, counts):
    """The jet with a coefficient array that records each ``.any`` call."""
    class Counting(np.ndarray):
        def any(self, *args, **kwargs):
            counts.append(self.shape)
            return np.asarray(self).any(*args, **kwargs)

    return Jet(jet.num_vars, jet.order, jet.coeffs.view(Counting))


def test_a_shared_jet_is_tested_for_zero_once():
    rng = np.random.default_rng(48)
    counts = []
    shared = _counting_any(_random_jet(rng, 3), counts)
    others = [_random_jet(rng, 3) for _ in range(5)]
    got = jets.contract((shared, b) for b in others)
    assert len(counts) == 1
    jets.contract((b, shared, 2.0) for b in others)
    assert len(counts) == 1 and not shared.is_zero()
    assert np.array_equal(got.coeffs, _loop_contraction(
        [(shared, b) for b in others]).coeffs)


def _left_to_right(terms, seg):
    """Each segment of the last axis of ``terms`` summed left to right,
    ``((t0 + t1) + t2) + ...``, by np.add.accumulate: the product's
    summation rule."""
    ends = list(seg[1:]) + [terms.shape[-1]]
    return np.stack([np.add.accumulate(terms[..., lo:hi], axis=-1)[..., -1]
                     for lo, hi in zip(seg, ends)], axis=-1)


def _broadcast_product(a, b):
    """The product with both operands broadcast before the gathers, summed
    left to right over the dense table, kept as its reference."""
    order = min(a.order, b.order)
    nc = len(jets.multi_indices(a.num_vars, order))
    ia, ib, seg = jets._mul_table(a.num_vars, order)
    ca, cb = np.broadcast_arrays(a.coeffs[..., :nc], b.coeffs[..., :nc])
    return _left_to_right(ca[..., ia] * cb[..., ib], seg)


@pytest.mark.parametrize("batches", [((3, 1), (3, 4)), ((4,), (2, 3, 4)),
                                     ((), (3, 4))])
@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("dtype", [float, complex])
def test_products_across_batch_shapes_are_the_broadcast_form(batches, order,
                                                             dtype):
    rng = np.random.default_rng(49)
    if dtype is complex:
        return _refused(_random_jet, rng, order, batches[0], complex)
    a = _random_jet(rng, order, batch=batches[0], dtype=dtype)
    b = _random_jet(rng, 4, batch=batches[1], dtype=dtype)
    for x, y in ((a, b), (b, a)):
        got, want = (x * y).coeffs, _broadcast_product(x, y)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


_BATCH_PAIRS = (((3, 1), (3, 4)), ((4,), (2, 3, 4)), ((), (3, 4)))


def _jet_over(rng, num_vars, order, variables, batch, dtype):
    """A random jet whose coefficients vanish at every multi-index that uses
    a variable outside the bitmask ``variables``."""
    coeffs = rng.standard_normal(batch + (jets._ncoef(num_vars, order),))
    for pos, alpha in enumerate(jets.multi_indices(num_vars, order)):
        if any(e and not variables >> k & 1 for k, e in enumerate(alpha)):
            coeffs[..., pos] = 0.0
    return Jet(num_vars, order, coeffs.astype(dtype))


@pytest.mark.parametrize("num_vars", range(1, 7))
@pytest.mark.parametrize("dtype", [float, complex])
def test_products_over_variable_supports_are_the_dense_form(num_vars, dtype):
    # np.array_equal counts -0.0 equal to 0.0: the restricted product skips
    # only pairs that are exact zeros, which can change nothing but the sign
    # of a zero sum
    rng = np.random.default_rng(51 + num_vars)
    full = (1 << num_vars) - 1
    if dtype is complex:
        return _refused(_jet_over, rng, num_vars, 4, full, (3, 4), complex)
    for batches in _BATCH_PAIRS:
        for order in range(5):
            subsets = [(0, full), (full, full), (0, 0)] + [
                tuple(int(s) for s in rng.integers(0, full + 1, size=2))
                for _ in range(4)]
            for sa, sb in subsets:
                a = _jet_over(rng, num_vars, order, sa, batches[0], dtype)
                b = _jet_over(rng, num_vars, 4, sb, batches[1], dtype)
                for x, y in ((a, b), (b, a)):
                    got, want = (x * y).coeffs, _broadcast_product(x, y)
                    assert got.shape == want.shape
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)


def _kept_table(num_vars, order, sa, sb):
    """The dense table restricted to the pairs whose factors lie in the
    supports ``sa`` and ``sb``, in dense order, with a position that keeps
    none keeping its first dense pair: ``(ia, ib, seg)``."""
    ia, ib, seg = jets._mul_table(num_vars, order)
    used = np.array([sum(1 << k for k, e in enumerate(mi) if e)
                     for mi in jets.multi_indices(num_vars, order)])
    inside = ((used[ia] & ~sa) == 0) & ((used[ib] & ~sb) == 0)
    kia, kib, kseg = [], [], []
    for lo, hi in zip(seg, list(seg[1:]) + [len(ia)]):
        kept = [p for p in range(lo, hi) if inside[p]] or [lo]
        kseg.append(len(kia))
        kia.extend(ia[kept])
        kib.extend(ib[kept])
    return np.array(kia), np.array(kib), np.array(kseg)


def _plan_pairs(plan, ncoef):
    """The pairs a rank plan sums into each output, in the order it adds
    them."""
    ia, ib, adds, inverse = plan
    rows = range(ncoef) if inverse is None else inverse
    ranks = [(ncoef, 0)] + list(adds)
    return [[(ia[s + r], ib[s + r]) for n, s in ranks if r < n] for r in rows]


@pytest.mark.parametrize("num_vars", range(1, 7))
@pytest.mark.parametrize("draws", [8])
def test_support_tables_drop_only_zero_pairs_in_dense_order(num_vars, draws):
    # the rank plan of a pair of supports sums, for every output position,
    # the dense pairs whose factors lie in the supports, in dense order, and
    # a position that keeps none sums its first dense pair (an exact zero)
    rng = np.random.default_rng(53)
    order = 4
    ncoef = jets._ncoef(num_vars, order)
    full = (1 << num_vars) - 1
    for sa, sb in [(1, full), (full, 1), (full, full)] + [
            tuple(int(s) for s in pair)
            for pair in rng.integers(1, full + 1, size=(draws, 2))]:
        plan = jets._rank_plan(num_vars, order, sa, sb)
        ka, kb, kseg = _kept_table(num_vars, order, sa, sb)
        ends = list(kseg[1:]) + [len(ka)]
        assert _plan_pairs(plan, ncoef) == [
            list(zip(ka[lo:hi], kb[lo:hi])) for lo, hi in zip(kseg, ends)]
        # one add per rank after the first, longest segment first
        counts = [n for n, _ in plan[2]]
        assert counts == sorted(counts, reverse=True)
        assert len(plan[2]) == max(hi - lo for lo, hi in zip(kseg, ends)) - 1
        if sa == 1 and num_vars >= 3:
            # a factor in one variable: far fewer pairs than the dense table
            assert 2 * len(ka) < len(jets._mul_table(num_vars, order)[0])


# -- the rank-major product sum -------------------------------------------------
#
# Every product of two non-constant jets sums its terms rank by rank, at every
# batch size, left to right; these tests hold it to np.add.accumulate over the
# pairs it keeps, signed zeros included (int64 views).  The name
# test_rank_sums_are_the_reduceat_bits dates from when the reference was
# np.add.reduceat's grouping.


def _accumulated_product(x, y):
    """x * y summed left to right by np.add.accumulate over the pairs whose
    factors lie in the supports."""
    order = min(x.order, y.order)
    ia, ib, seg = _kept_table(x.num_vars, order, x._variables(),
                              y._variables())
    return _left_to_right(x.coeffs[..., ia] * y.coeffs[..., ib], seg)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _signed_jet(rng, num_vars, order, variables, batch):
    # scaled coefficients with exact zeros of both signs, in the support
    coeffs = _jet_over(rng, num_vars, order, variables, batch, float).coeffs
    coeffs = 1e3 * coeffs
    coeffs[rng.random(coeffs.shape) < 0.2] = 0.0
    coeffs[rng.random(coeffs.shape) < 0.2] = -0.0
    return Jet(num_vars, order, coeffs)


def _counting_rank_sums(monkeypatch):
    calls, rank_sum = [], jets._rank_sum

    def counting(*args):
        calls.append(args[0].shape)
        return rank_sum(*args)

    monkeypatch.setattr(jets, "_rank_sum", counting)
    return calls


@pytest.mark.parametrize("num_vars", range(1, 7))
@pytest.mark.parametrize("least_terms", [0, 2048])
def test_rank_sums_are_the_reduceat_bits(monkeypatch, num_vars, least_terms):
    # the products split at 2048 gathered terms (batch points times table
    # length): least_terms 0 makes the smaller ones, down to a single point,
    # and 2048 the wider ones; each of them is one rank sum
    calls = _counting_rank_sums(monkeypatch)
    rng = np.random.default_rng(57 + num_vars)
    full = (1 << num_vars) - 1
    supports = {(full, full), (1, full), (full, full >> 1 or 1),
                (full & 0b101 or 1, full & 0b110 or 1)}
    batches = (((100, 1), (100, 4)), ((), (3, 5)), ((7,), (2, 7)),
               ((4,), (4,)))
    made = 0
    for order in range(1, 5):
        for sa, sb in supports:
            for ba, bb in batches:
                a = _signed_jet(rng, num_vars, order, sa, ba)
                b = _signed_jet(rng, num_vars, 4, sb, bb)
                for x, y in ((a, b), (b, a)):
                    if x.is_zero() or y.is_zero() or not (
                            x._variables() and y._variables()):
                        continue
                    terms = len(jets._rank_plan(
                        num_vars, min(x.order, y.order), x._variables(),
                        y._variables())[0]) * math.prod(
                            np.broadcast_shapes(ba, bb))
                    if (terms >= 2048) != (least_terms == 2048):
                        continue
                    prod = x * y
                    got, want = prod.coeffs, _accumulated_product(x, y)
                    # the stored coefficient-major array is the product's
                    # own contiguous array, not a view of the term buffer
                    assert got.shape == want.shape
                    assert prod._c.flags.c_contiguous and prod._c.flags.owndata
                    assert np.array_equal(_bits(got), _bits(want))
                    made += 1
    assert made > 0
    assert len(calls) == made


def test_a_row_has_the_same_bits_in_any_batch(monkeypatch):
    calls = _counting_rank_sums(monkeypatch)
    rng = np.random.default_rng(61)
    for sa, sb in ((31, 31), (5, 27)):
        a = _signed_jet(rng, 5, 4, sa, (1000,))
        b = _signed_jet(rng, 5, 4, sb, (1000,))
        whole = (a * b).coeffs
        for row in (0, 417, 999):
            one = (Jet(5, 4, a.coeffs[row:row + 1])
                   * Jet(5, 4, b.coeffs[row:row + 1])).coeffs
            assert np.array_equal(_bits(one[0]), _bits(whole[row]))
    # the batch of 1000 and each single row take the one rank sum
    assert len(calls) == 8


@pytest.mark.parametrize("batch", [(2,), (500,)])
def test_an_overflowing_product_raises_under_errstate(monkeypatch, batch):
    calls = _counting_rank_sums(monkeypatch)
    big = np.full(batch + (jets._ncoef(3, 4),), 1e200)
    a, b = Jet(3, 4, big), Jet(3, 4, big.copy())
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            a * b
    assert len(calls) == 1


def test_recorded_supports_cover_every_nonzero_coefficient(monkeypatch):
    made, build = [], jets._jet

    def recording(*args):
        made.append(build(*args))
        return made[-1]

    monkeypatch.setattr(jets, "_jet", recording)
    rng = np.random.default_rng(52)
    narrower = 0
    for trial in range(60):
        num_vars = int(rng.integers(1, 5))
        full = (1 << num_vars) - 1
        chosen = int(rng.integers(0, full + 1))
        prog = support.random_program(rng, num_vars,
                                      depth=int(rng.integers(2, 6)))
        x0 = rng.uniform(-0.5, 0.5, size=(3, num_vars))
        seeds = [Jet.variable(i, x0[:, i], num_vars) if chosen >> i & 1
                 else Jet.constant(x0[:, i], num_vars)
                 for i in range(num_vars)]
        made.clear()
        got = prog(seeds)
        for jet in made:
            if jet._support is not None:
                assert support.scanned_support(jet) & ~jet._support == 0, trial
                narrower += jet.num_vars == num_vars and jet._support != full
        if isinstance(got, Jet):
            # the same program with every product over the dense table
            with monkeypatch.context() as dense:
                dense.setattr(Jet, "_variables",
                              lambda self: (1 << self.num_vars) - 1)
                want = prog(seeds)
            assert np.array_equal(got.coeffs, want.coeffs), trial
    assert narrower > 100


@pytest.mark.parametrize("variables", [0b000, 0b010, 0b101, 0b111])
def test_a_jet_from_a_raw_array_knows_its_support_from_construction(
        variables):
    rng = np.random.default_rng(56)
    jet = _jet_over(rng, 3, 3, variables, (2, 5), float)
    if variables == 0:
        jet = Jet(3, 3, np.zeros((2, 5, jets._ncoef(3, 3))))
    assert type(jet._support) is int
    assert jet._support == support.scanned_support(jet)
    assert jet.is_zero() == (variables == 0)


# -- known zeros ------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [float, complex])
def test_derivatives_outside_the_support_are_known_zeros_without_a_scan(dtype):
    rng = np.random.default_rng(55)
    if dtype is complex:
        return _refused(_jet_over, rng, 3, 4, 0b101, (3, 4), complex)
    counts = []
    x = _counting_any(_jet_over(rng, 3, 4, 0b101, (3, 4), dtype), counts)
    assert x._variables() == 0b101 and len(counts) == 1
    idx, wgt = jets._diff_table(3, 4)
    for axis in range(3):
        got = x.derivative(axis)
        want = np.asarray(x.coeffs)[..., idx[axis]] * wgt[axis]
        assert got.order == 3
        assert got.coeffs.shape == want.shape and got.coeffs.dtype == want.dtype
        assert np.array_equal(got.coeffs, want)
        assert got._zero is (True if axis == 1 else None)
    # x1 is outside the support: a known zero, built and tested with no scan
    assert x.derivative(1).is_zero() and len(counts) == 1
    # every derivative of a constant, and of a known zero, is a known zero
    c = Jet.constant(rng.standard_normal((3, 4)), 3, 2)
    assert all(c.derivative(k)._zero for k in range(3))
    assert c.derivative(0).derivative(2)._zero


def _dense(op, a, b):
    """The dense reference: ``op`` on the coefficient arrays alone."""
    if op is operator.mul:
        return _broadcast_product(a, b)
    nc = jets._ncoef(a.num_vars, min(a.order, b.order))
    return op(np.asarray(a.coeffs)[..., :nc], np.asarray(b.coeffs)[..., :nc])


@pytest.mark.parametrize("dtypes", [(float, float), (float, complex),
                                    (complex, float), (complex, complex)])
def test_arithmetic_with_a_known_zero_is_the_dense_form(dtypes):
    # np.array_equal cannot see the sign of a zero: x + 0 returns x, where
    # the dense sum turns -0.0 into 0.0
    rng = np.random.default_rng(56)
    if complex in dtypes:
        # a known zero is float64, and a complex operand of it is refused
        zero = jets._zero_jet(2, 4, (3, 4))
        if dtypes[0] is complex:
            _refused(_jet_over, rng, 2, 4, 0b11, (3, 4), complex)
        for op in (operator.add, operator.sub, operator.mul):
            for a, b in ((zero, 1j), (1j, zero), (zero, np.full((3, 4), 2j))):
                _refused(op, a, b)
        return
    for batches in _BATCH_PAIRS:
        for order in range(5):
            for xo, zo in ((4, order), (order, 4)):
                x = _jet_over(rng, 2, xo, 0b11, batches[0], float)
                zero = jets._zero_jet(2, zo, batches[1])
                for a, b in ((x, zero), (zero, x), (zero, zero)):
                    for op in (operator.add, operator.sub, operator.mul):
                        got, want = op(a, b), _dense(op, a, b)
                        assert got.order == min(a.order, b.order)
                        assert got.coeffs.shape == want.shape
                        assert got.coeffs.dtype == want.dtype
                        assert np.array_equal(got.coeffs, want)
                        if op is operator.mul or a is b:
                            assert got._zero
                for scale in (2.0, rng.standard_normal((2, 1, 1))):
                    want = np.asarray(zero.coeffs) * np.asarray(scale)[..., None]
                    for got in (zero * scale, scale * zero):
                        assert got._zero and got.coeffs.shape == want.shape
                        assert got.coeffs.dtype == want.dtype
                assert (-zero) is zero and zero.truncated(0)._zero


def test_a_product_with_a_known_zero_is_zero_at_inf_and_nan():
    x = Jet(2, 2, np.array([[np.inf, 1.0, np.nan, 0.0, 2.0, 3.0]]))
    zero = Jet.constant(np.zeros(1), 2, 2)
    assert zero._zero
    assert not np.any((x * zero).coeffs) and not np.any((zero * x).coeffs)


def test_known_zero_coefficients_are_shared_and_not_writeable():
    zero = Jet.constant(np.zeros((3, 4)), 2, 3)
    assert zero._zero and zero._support == 0 and zero.is_zero()
    assert not zero.coeffs.flags.writeable
    with pytest.raises(ValueError):
        zero.coeffs[..., 0] = 1.0
    # one buffer for every known zero of a coefficient shape,
    # holding no memory of its own
    assert not any(zero.coeffs.strides) and zero.max_abs() == 0.0
    one = Jet.constant(np.ones((3, 4)), 2, 4)
    assert one.derivative(0)._c is zero._c
    assert jets.contract([(zero, one)])._c is zero._c
    # truncation keeps a known zero, but a nonzero jet may truncate to zero
    seed = Jet.variable(0, np.zeros(3), 2)
    assert not seed.is_zero() and seed.truncated(0).is_zero()


def test_known_zeros_give_the_results_of_the_dense_operations(monkeypatch):
    # random programs over seed variables, nonzero constants and known zero
    # constants, and their first partials, against the same programs with
    # every zero flag dropped; np.array_equal does not see the sign of zero
    build = jets._jet
    rng = np.random.default_rng(57)
    zeros = 0
    for trial in range(60):
        num_vars = int(rng.integers(1, 5))
        kinds = rng.integers(0, 3, size=num_vars)
        prog = support.random_program(rng, num_vars,
                                      depth=int(rng.integers(2, 6)))
        x0 = rng.uniform(-0.5, 0.5, size=(3, num_vars))

        def run():
            seeds = [Jet.variable(i, x0[:, i], num_vars) if kind == 0
                     else Jet.constant(x0[:, i] * (kind == 1), num_vars)
                     for i, kind in enumerate(kinds)]
            out = prog(seeds)
            if not isinstance(out, Jet):
                return []
            return [out] + [out.derivative(k) for k in range(num_vars)]

        got = run()
        zeros += sum(bool(jet._zero) for jet in got)
        with monkeypatch.context() as dense:
            dense.setattr(jets, "_jet",
                          lambda n, o, c, s, zero=None: build(n, o, c, s))
            want = run()
        assert not any(jet._zero for jet in want)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.order == w.order and g.coeffs.dtype == w.coeffs.dtype
            assert np.array_equal(g.coeffs, w.coeffs), trial
    assert zeros > 10


def test_stack_values_puts_nest_indices_after_the_batch():
    batch = (5,)
    nest = [[[Jet.constant(np.full(batch, 100.0 * i + 10.0 * j + k), 2, 1)
              for k in range(4)] for j in range(3)] for i in range(2)]
    vals = jets.stack_values(nest)
    assert vals.shape == batch + (2, 3, 4)
    for i in range(2):
        for j in range(3):
            for k in range(4):
                assert np.all(vals[:, i, j, k] == 100.0 * i + 10.0 * j + k)
    assert np.array_equal(jets.stack_values(nest[1][2]), vals[:, 1, 2, :])


def test_stack_gradients_are_the_derivative_values_bit_for_bit():
    rng = np.random.default_rng(17)
    nest = [[Jet(3, order, rng.normal(size=(5, jets._ncoef(3, order))))
             for order in (1, 2, 4)] for _ in range(2)]
    grads = jets.stack_gradients(nest)
    assert grads.shape == (5, 2, 3, 3)
    for i in range(2):
        for j in range(3):
            for d in range(3):
                assert np.array_equal(grads[:, i, j, d],
                                      nest[i][j].derivative(d).value)
    with pytest.raises(ValueError):
        jets.stack_gradients([Jet.constant(np.ones(5), 3, 0)])


def _row_by_row(nested, leaf, leaf_axes):
    """The stack built one np.stack per row of every nest level."""
    if isinstance(nested, Jet):
        return leaf(nested)
    depth, first = 1 + leaf_axes, nested[0]
    while not isinstance(first, Jet):
        depth, first = depth + 1, first[0]
    return np.stack([_row_by_row(e, leaf, leaf_axes) for e in nested],
                    axis=-depth)


def test_stacks_fill_one_buffer_with_the_row_by_row_bits(monkeypatch):
    rng = np.random.default_rng(23)
    nest = [[[_signed_jet(rng, 3, 2, 0b111, (4, 2)) for _ in range(2)]
             for _ in range(3)] for _ in range(2)]
    want_values = _row_by_row(nest, lambda jet: jet.value, 0)
    want_grads = _row_by_row(nest, jets._gradient, 1)
    # a nest without known zeros fills the zero buffer too: no np.stack
    monkeypatch.setattr(np, "stack", None)
    values, grads = jets.stack_values(nest), jets.stack_gradients(nest)
    assert values.shape == (4, 2, 2, 3, 2) and values.flags.c_contiguous
    assert grads.shape == (4, 2, 2, 3, 2, 3) and grads.flags.c_contiguous
    assert np.array_equal(_bits(values), _bits(want_values))
    assert np.array_equal(_bits(grads), _bits(want_grads))


@pytest.mark.parametrize("batch", [(4,), (2, 3)])
@pytest.mark.parametrize("nest", ["mixed", "all_zero", "one_leaf",
                                  "broadcast"])
def test_stacks_with_known_zeros_are_the_np_stack_bits(monkeypatch, batch,
                                                       nest):
    rng = np.random.default_rng(29)
    zero = jets._zero_jet(3, 2, batch)
    # coefficients with zeros of both signs, some at a broadcast batch
    live = [_signed_jet(rng, 3, 2, 0b111, batch) for _ in range(3)]
    wide = _signed_jet(rng, 3, 2, 0b101, batch[-1:])
    leaves = {"mixed": [[zero, live[0]], [live[1], zero], [zero, live[2]]],
              "all_zero": [[zero, zero], [zero, zero]],
              "one_leaf": [zero],
              "broadcast": [[wide + zero, zero], [zero, live[0] * wide]]}
    nested = leaves[nest]
    want_values = _row_by_row(nested, lambda jet: jet.value, 0)
    want_grads = _row_by_row(nested, jets._gradient, 1)
    # only the zero flags are read: no jet is scanned, and np.stack is not
    # called
    monkeypatch.setattr(Jet, "_scan", None)
    monkeypatch.setattr(np, "stack", None)
    values, grads = jets.stack_values(nested), jets.stack_gradients(nested)
    assert values.flags.c_contiguous and grads.flags.c_contiguous
    assert values.shape == want_values.shape
    assert grads.shape == want_grads.shape
    assert np.array_equal(_bits(values), _bits(want_values))
    assert np.array_equal(_bits(grads), _bits(want_grads))
    if nest in ("mixed", "broadcast"):
        assert np.signbit(want_grads).any()  # a -0.0 was copied


def test_ragged_nests_are_rejected():
    jet = Jet.constant(np.ones(5), 2, 1)
    # six leaves, as many as a 3 x 2 nest holds
    with pytest.raises(ValueError, match="rectangular"):
        jets.stack_values([[jet, jet], [jet, jet, jet], [jet]])


@pytest.mark.parametrize("with_zero", [False, True])
@pytest.mark.parametrize("stack", [jets.stack_values, jets.stack_gradients])
def test_nests_of_jets_on_different_batches_are_rejected(stack, with_zero):
    rng = np.random.default_rng(31)
    narrow = _signed_jet(rng, 2, 2, 0b11, (3,))
    wide = _signed_jet(rng, 2, 2, 0b11, (2, 3))
    nest = [narrow, wide] + [jets._zero_jet(2, 2, (3,))] * with_zero
    for leaves in (nest, nest[::-1]):
        with pytest.raises(ValueError):
            stack(leaves)


# -- batch axes of different rank ---------------------------------------------
#
# Coefficients are stored coefficient-major, so an operand of lower batch rank
# must get its 1-axes after the coefficient axis; these tests hold every such
# operation to the bits (signed zeros included) of the same operation on
# operands broadcast to the common batch shape first.


def _broadcast(jet, batch):
    """The jet with its coefficients broadcast to ``batch``."""
    return Jet(jet.num_vars, jet.order,
               np.broadcast_to(jet.coeffs, batch + jet.coeffs.shape[-1:]))


def _same_bits(got, want):
    got, want = got.coeffs, want.coeffs
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(_bits(got), _bits(want))


_RANK_PAIRS = (((4,), (2, 3, 4)), ((3, 1), (2, 3, 4)), ((), (3, 4)),
               ((3, 1), (1, 4)))


@pytest.mark.parametrize("batches", _RANK_PAIRS)
@pytest.mark.parametrize("dtype", [float, complex])
def test_scalar_operations_across_batch_ranks_are_the_broadcast_form(batches,
                                                                     dtype):
    rng = np.random.default_rng(62)
    batch = np.broadcast_shapes(*batches)
    x = _signed_jet(rng, 2, 4, 0b11, batches[0])
    s = rng.standard_normal(batches[1])
    s[rng.random(s.shape) < 0.3] = -0.0
    s = s.astype(dtype)
    xb = _broadcast(x, batch)
    for op in (operator.mul, operator.add, operator.sub):
        if dtype is complex:
            _refused(op, x, s)
            _refused(op, s, x)
            continue
        _same_bits(op(x, s), op(xb, s))
        _same_bits(op(s, x), op(s, xb))


@pytest.mark.parametrize("batches", _RANK_PAIRS)
def test_jet_operations_across_batch_ranks_are_the_broadcast_form(batches):
    rng = np.random.default_rng(63)
    batch = np.broadcast_shapes(*batches)
    x = _signed_jet(rng, 2, 4, 0b11, batches[0])
    y = _signed_jet(rng, 2, 3, 0b01, batches[1])
    zero = jets._zero_jet(2, 4, batches[1])
    xb, yb = _broadcast(x, batch), _broadcast(y, batch)
    for op in (operator.mul, operator.add, operator.sub):
        _same_bits(op(x, y), op(xb, yb))
        _same_bits(op(y, x), op(yb, xb))
        # a known zero of higher batch rank: x comes back broadcast
        _same_bits(op(x, zero), op(xb, zero))
        _same_bits(op(zero, x), op(zero, xb))
    # the rank path on aligned operands of different batch rank
    wide = _signed_jet(rng, 5, 4, 31, (60,) + batches[1])
    low = _signed_jet(rng, 5, 4, 31, batches[0])
    _same_bits(low * wide, _broadcast(low, (60,) + batch) * wide)


def test_composition_with_a_wider_outer_jet_is_the_broadcast_form():
    rng = np.random.default_rng(64)
    inner = [_signed_jet(rng, 2, 4, 0b11, (4,)),
             _signed_jet(rng, 2, 4, 0b01, (1, 4))]
    wide = [_broadcast(u, (2, 3, 4)) for u in inner]
    coeffs = rng.standard_normal((2, 3, 4, jets._ncoef(2, 4)))
    coeffs[..., 4] = 0.0  # a skipped monomial
    outer = Jet(2, 4, coeffs)
    for order in (2, 4):
        _same_bits(jets.compose(outer, jets.Monomials(inner, order)),
                   jets.compose(outer, jets.Monomials(wide, order)))
    # and the reverse: an outer jet narrower than its monomials
    narrow = Jet(2, 4, coeffs[0, 0])
    _same_bits(jets.compose(narrow, jets.Monomials(wide, 3)),
               jets.compose(_broadcast(narrow, (2, 3, 4)),
                            jets.Monomials(wide, 3)))


def test_stack_gradients_across_batch_ranks_are_the_broadcast_form():
    rng = np.random.default_rng(65)
    x = _signed_jet(rng, 3, 4, 0b111, (4,))
    y = _signed_jet(rng, 3, 2, 0b011, (2, 3, 4))
    zero = jets._zero_jet(3, 4, (2, 3, 4))
    s = rng.standard_normal((2, 3, 4))
    xb = _broadcast(x, (2, 3, 4))
    # a broadcast view (x + zero), a fresh product and a scalar sum
    nest = [[x + zero, x * y], [y - x, x + s]]
    want = [[xb + zero, xb * y], [y - xb, xb + s]]
    got = jets.stack_gradients(nest)
    assert got.shape == (2, 3, 4, 2, 2, 3)
    assert np.array_equal(_bits(got), _bits(jets.stack_gradients(want)))
    for i in range(2):
        for j in range(2):
            for d in range(3):
                assert np.array_equal(_bits(got[..., i, j, d]),
                                      _bits(want[i][j].derivative(d).value))


# -- composition ------------------------------------------------------------------


def _loop_compose(u, taylor):
    """The univariate loop Jet._compose used to run, kept as its reference:
    sum_k taylor[k] * (u - u(0))^k with the powers built by repeated
    multiplication."""
    centred = u.coeffs.copy()
    centred[..., 0] = 0.0
    uhat = Jet(u.num_vars, u.order, centred)
    out = np.zeros_like(u.coeffs)
    out[..., 0] = taylor[0]
    acc = uhat
    for k in range(1, u.order + 1):
        out = out + np.asarray(taylor[k], dtype=float)[..., None] * acc.coeffs
        if k < u.order:
            acc = acc * uhat
    return out


_TAYLOR = {
    "exp": lambda v: [np.exp(v), np.exp(v), np.exp(v) / 2.0, np.exp(v) / 6.0,
                      np.exp(v) / 24.0],
    "sin": lambda v: [np.sin(v), np.cos(v), -np.sin(v) / 2.0,
                      -np.cos(v) / 6.0, np.sin(v) / 24.0],
    "sqrt": lambda v: [np.sqrt(v), 0.5 / np.sqrt(v),
                       -1.0 / (8.0 * np.sqrt(v) * v),
                       1.0 / (16.0 * np.sqrt(v) * v * v),
                       -5.0 / (128.0 * np.sqrt(v) * v ** 3)],
    "_reciprocal": lambda v: [1.0 / v, -(1.0 / v) * (1.0 / v), (1.0 / v) ** 3,
                              -((1.0 / v) ** 4), (1.0 / v) ** 5],
}


@pytest.mark.parametrize("name", sorted(_TAYLOR))
@pytest.mark.parametrize("order", range(5))
def test_univariate_composition_is_the_old_loop_bit_for_bit(name, order):
    rng = np.random.default_rng(44)
    coeffs = _random_jet(rng, order).coeffs.copy()
    coeffs[..., 0] = rng.uniform(0.5, 2.0, coeffs.shape[:-1])
    u = Jet(2, order, coeffs)
    got = getattr(u, name)()
    want = _loop_compose(u, _TAYLOR[name](u.value)[: order + 1])
    assert got.order == order
    assert np.array_equal(got.coeffs, want)


def test_monomials_are_products_of_powers_in_graded_order():
    rng = np.random.default_rng(45)
    inner = [_random_jet(rng, 4), _random_jet(rng, 3), _random_jet(rng, 4)]
    monos = jets.Monomials(inner, 3)
    centred = [Jet(2, 3, np.concatenate(
        [np.zeros((3, 4, 1)), u.truncated(3).coeffs[..., 1:]], axis=-1))
        for u in inner]
    for pos, alpha in enumerate(jets.multi_indices(3, 3)):
        if pos == 0:
            continue
        want = None
        for var, k in enumerate(alpha):
            if k:
                power = centred[var]
                for _ in range(k - 1):
                    power = power * centred[var]
                want = power if want is None else want * power
        assert monos[pos].order == 3
        assert np.array_equal(monos[pos].coeffs, want.coeffs)


def _counting_products(monkeypatch):
    calls, mul = [], Jet.__mul__

    def counting(self, other):
        if isinstance(other, Jet):
            calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting)
    return calls


def test_composing_a_constant_outer_jet_makes_no_product(monkeypatch):
    rng = np.random.default_rng(46)
    inner = [_random_jet(rng, 4), _random_jet(rng, 4)]
    outer = Jet.constant(rng.standard_normal((3, 4)), 2, 4)
    calls = _counting_products(monkeypatch)
    got = jets.compose(outer, jets.Monomials(inner, 4))
    assert calls == []
    assert got.order == 4 and np.array_equal(got.coeffs, outer.coeffs)


def test_known_zeros_in_a_composition_short_circuit(monkeypatch):
    rng = np.random.default_rng(58)
    inner = [Jet.constant(rng.uniform(size=(3, 4)), 2, 4), _random_jet(rng, 4)]
    monos = jets.Monomials(inner, 3)
    calls = _counting_products(monkeypatch)
    # the constant inner jet centres to a known zero, and so does every
    # monomial that uses it
    for pos, alpha in enumerate(jets.multi_indices(2, 3)[1:], 1):
        assert bool(monos[pos]._zero) == (alpha[0] > 0)
    # only the powers u^2 and u^3 of the other inner jet take arithmetic
    assert sum(not (a._zero or b._zero) for a, b in calls) == 2
    got = jets.compose(Jet.constant(np.zeros((3, 1)), 2, 4), monos)
    assert got._zero and got.order == 3
    assert got.coeffs.shape == (3, 4, jets._ncoef(2, 3))


def test_composition_tests_the_outer_coefficients_in_one_reduction():
    rng = np.random.default_rng(50)
    inner = [_random_jet(rng, 4), _random_jet(rng, 4)]
    coeffs = rng.standard_normal((3, 4, len(jets.multi_indices(2, 4))))
    coeffs[..., [2, 5, 9]] = 0.0
    coeffs[1, 2, 5] = 1.0  # nonzero at one batch point: still composed
    counts = []
    outer = _counting_any(Jet(2, 4, coeffs), counts)
    counts.clear()  # Jet(...) scans its array once, at construction
    got = jets.compose(outer, jets.Monomials(inner, 4))
    assert len(counts) == 1
    monos = jets.Monomials(inner, 4)
    want = np.zeros_like(coeffs)
    want[..., 0] = coeffs[..., 0]
    for pos in range(1, coeffs.shape[-1]):
        if pos not in (2, 9):
            want += coeffs[..., pos, None] * monos[pos].coeffs
    assert np.array_equal(got.coeffs, want)


def test_composition_records_the_supports_of_the_inner_jets_it_reads():
    rng = np.random.default_rng(54)
    seeds = [Jet.variable(i, rng.uniform(size=3), 4, 3) for i in range(4)]
    # inner jets over {x0}, {x1, x2} and {x3}
    inner = [seeds[0].sin(), seeds[1] * seeds[2], seeds[3].exp()]
    monos = jets.Monomials(inner, 3)
    mids = jets.multi_indices(3, 3)
    for outer_vars, want in ((0b010, 0b0110), (0b101, 0b1001), (0, 0)):
        coeffs = rng.standard_normal((3, len(mids)))
        for pos, alpha in enumerate(mids):
            if any(e and not outer_vars >> k & 1 for k, e in enumerate(alpha)):
                coeffs[..., pos] = 0.0
        got = jets.compose(Jet(3, 3, coeffs), monos)
        assert got._support == want
        assert support.scanned_support(got) == want


def test_integer_powers_start_from_the_base(monkeypatch):
    rng = np.random.default_rng(47)
    b = _random_jet(rng, 4)
    calls = _counting_products(monkeypatch)
    for k, products in zip(range(1, 6), (0, 1, 2, 2, 3)):
        calls.clear()
        got = b ** k
        assert len(calls) == products
        want = b
        for _ in range(k - 1):
            want = want * b
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-13,
                                   atol=1e-13)
    assert np.array_equal((b ** 1).coeffs, b.coeffs)
    assert np.array_equal((b ** 0).coeffs[..., 0], np.ones((3, 4)))
    assert not np.any((b ** 0).coeffs[..., 1:])
