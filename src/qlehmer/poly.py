"""Exact sparse arithmetic in the ring Z[u, v], plus its fraction field.

The two formal variables are half powers: u**2 stands for q and v**2 for z.
Working in (u, v) makes every entry of the Lehmer matrix an honest monomial
(z**(1/2) * q**((i-1)/2) becomes v * u**(i-1)), so no fractional exponents
ever appear.  Values that live in the plain (q, z) world are exactly the
polynomials whose u- and v-exponents are all even.  `qz_terms` reads their
(q, z) degrees for computation and `_view` reads them for printing; no other
code tests exponent parity or halves exponents.  `q_dense`, `q_pow`,
`z_pow` and `lehmer.lambda_sum` (from `q_dense` rows) build them.
Dense q-lists meet 1 - q^j only in `times_one_minus` and `_certified_step`.

A polynomial is stored as z-rows: a map from each v-exponent to its row,
with no empty row; zero is the empty map.  A row is a dense triple
(lo, step, coeffs): `coeffs` is a tuple whose term i sits at u-exponent
lo + i * step.  Its first and last coefficients are nonzero, and `step` is
the gcd of the nonzero terms' offsets from lo (1 for a one-term row), so
every polynomial has one stored form.  lam(n), a polynomial in z over
q-polynomials, keeps one tuple per power of z: the z^k row of lam(j) is
q^(k(k-1)) [j-k k]_q, whose coefficients are all nonzero, at step 2 in u.
A row costs memory in proportion to its span divided by its step, not to
its term count: a row with terms at u^0, u^1 and u^1000000 holds a million
zeros.  `Poly2(terms)` and `terms` speak the flat {(eu, ev): coeff} map at
the boundary.  Python ints are arbitrary precision, so coefficient growth is
harmless.  Printing (`_view`) hands the terms out in graded-lex order on
(eu + ev, eu, ev), the order on (q + z, q, z), one band of total degree
eu + ev at a time: a band takes one slice of each row it meets, renders it
by one `%` of a row template repeated once per term, and puts the band's
terms in order by one index sort, so only one band's terms are alive at a
time.  Text and JSON differ only in template, and either form can be
written in pieces as it is built (`to_text`, `to_json`, as `lambda` and
`det` print `lehmer.lambda_sum` and `lehmer.lambda_rec`).

Instances are immutable by convention and no row is changed once built, so
results share rows, and the coefficient tuples inside them, with their
operands.  A sum or difference copies the left operand's outer map and
combines only the rows both operands have: each pair is aligned to its
common step, and the combined row is built left to right with each
coefficient written once, by one `map` over the overlap and copies of the
parts outside it (negated in a difference where they come from the right
operand); a row only the right operand has is taken as it is, or negated.
Multiplication returns the other operand itself when one operand is `ONE`
(the module's instance, not any constant 1); `RatFunc` keeps a polynomial
as its numerator over `ONE`, so this spares a copy whenever such a value
meets a fraction.  Otherwise a product is a monomial shift, or one packed
kernel per product row.  When one operand is a monomial, as in the shifts
z q^(j-2) * lam(j-2) of the recursions, every row moves to its shifted
v-exponent and lo; it keeps its coefficient tuple when the monomial's
coefficient is 1 and is scaled by one `map` otherwise.  A shift is
injective on exponents, so no two terms merge and none becomes zero.
Otherwise `_mul_rows` multiplies one packed z-row pair at a time into its
product row, which lies on its own u-grid.

`exact_div` divides one z-row by one z-row, the one shape of division the
package runs: it packs both rows at their common u-step and divides once
with `divmod`; a nonzero remainder proves that the divisor does not divide.
Both write a row by one digit codec (`_encode`, `_decode`), and every
coefficient packed fits one digit: the multiply sizes its digit to the
product, and `exact_div` starts at the first width that holds both
operands.  The quotient is decoded and returned only after an exact
certificate that it times the divisor is the dividend, at a digit width
bounded by Mignotte's inequality.

`RatFunc` is the quotient-field layer: a num/den pair of polynomials with
den != 0, never reduced by GCD.  Equality and sums cross-multiply only when
the denominators differ (see `ratfunc_eq`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from functools import cache
from itertools import accumulate, chain, compress, islice, repeat
from math import gcd, isqrt
from operator import add, mul, neg, sub


Exponents = tuple[int, int]
Row = tuple[int, int, tuple[int, ...]]  # (lo, step, coeffs): coeffs[i] at u**(lo + i*step)
Rows = dict[int, Row]  # v-exponent -> row


class ExactDivisionError(ArithmeticError):
    """Raised when exact_div is asked for a quotient that does not exist."""


class Poly2:
    """Sparse bivariate polynomial over Z in the canonical row form of the
    module docstring: `_rows` maps each v-exponent to its dense row
    (lo, step, coeffs), coeffs[i] the coefficient of u**(lo + i*step).
    Immutable by convention, so results may share rows and coefficient
    tuples with operands.  Equality is row-map equality, and an int equals
    its constant polynomial.  Unhashable.
    """

    __slots__ = ("_rows",)

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        grouped: dict[int, dict[int, int]] = {}
        if terms:
            for (eu, ev), c in terms.items():
                if eu < 0 or ev < 0:
                    raise ValueError(f"negative exponent ({eu}, {ev})")
                if c != 0:
                    grouped.setdefault(ev, {})[eu] = c
        self._rows = {ev: _dense(row) for ev, row in grouped.items()}

    @classmethod
    def _raw(cls, rows: Rows) -> "Poly2":
        # Internal fast path: caller guarantees canonical form.
        p = cls.__new__(cls)
        p._rows = rows
        return p

    @classmethod
    def constant(cls, c: int) -> "Poly2":
        return cls._raw({0: (0, 1, (c,))}) if c else cls._raw({})

    @classmethod
    def monomial(cls, c: int, eu: int, ev: int) -> "Poly2":
        if eu < 0 or ev < 0:
            raise ValueError(f"negative exponent ({eu}, {ev})")
        return cls._raw({ev: (eu, 1, (c,))}) if c else cls._raw({})

    @property
    def is_zero(self) -> bool:
        return not self._rows

    @property
    def terms(self) -> dict[Exponents, int]:
        """The flat {(eu, ev): coeff} term map, built as a fresh copy on each
        access (the instance itself stays immutable)."""
        return {(eu, ev): c for ev, row in self._rows.items() for eu, c in _pairs(row)}

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly2 | int") -> "Poly2":
        if (other := _coerce(other)) is None:
            return NotImplemented
        if not self._rows:
            return other
        if not other._rows:
            return self
        return Poly2._raw(_merge(self._rows, other._rows, False))

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2._raw({ev: _negated(row) for ev, row in self._rows.items()})

    def __sub__(self, other: "Poly2 | int") -> "Poly2":
        if (other := _coerce(other)) is None:
            return NotImplemented
        return Poly2._raw(_merge(self._rows, other._rows, True))

    def __rsub__(self, other: "Poly2 | int") -> "Poly2":
        return (-self).__add__(other)

    def __mul__(self, other: "Poly2 | int") -> "Poly2":
        if (other := _coerce(other)) is None:
            return NotImplemented
        a, b = self._rows, other._rows
        # Sharing is safe: instances are immutable by convention.
        if a is ONE._rows:
            return other
        if b is ONE._rows:
            return self
        if not a or not b:
            return Poly2._raw({})
        if not _is_monomial(a):
            if _is_monomial(b):
                a, b = b, a
            else:
                return Poly2._raw(_mul_rows(a, b))
        # A monomial shift is injective on exponents, and c * x is zero only
        # where x is, so the shifted rows are canonical as they stand.
        (dv, (du, _, (c,))), = a.items()
        if c != 1:
            return Poly2._raw({ev + dv: (lo + du, step, tuple(map(c.__mul__, coeffs)))
                               for ev, (lo, step, coeffs) in b.items()})
        return Poly2._raw({ev + dv: (lo + du, step, coeffs)
                           for ev, (lo, step, coeffs) in b.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly2.constant(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._rows == other._rows

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"Poly2({to_text(self)!r})"


def _dense(row: dict[int, int]) -> Row:
    """The canonical row of a nonempty {u-exponent: nonzero coeff} map."""
    lo = min(row)
    if len(row) == 1:
        return lo, 1, (row[lo],)
    step = gcd(*[eu - lo for eu in row])
    coeffs = [0] * ((max(row) - lo) // step + 1)
    for eu, c in row.items():
        coeffs[(eu - lo) // step] = c
    return lo, step, tuple(coeffs)


def _row(lo: int, step: int, coeffs: list[int]) -> Row | None:
    """The canonical row of coeffs[i] * u**(lo + i*step), None if all are zero.

    A list with no zero, which one `all` pass over the truth of its ints
    shows, is canonical as it stands.  A zero sends it through a trim of
    both ends and a re-stride by the gcd of the nonzero offsets.
    """
    if not all(coeffs):
        at = list(compress(range(len(coeffs)), coeffs))
        if not at:
            return None
        first = at[0]
        if len(at) == 1:
            return lo + first * step, 1, (coeffs[first],)
        k = gcd(*map(first.__rsub__, at))
        coeffs = coeffs[first:at[-1] + 1:k]
        lo, step = lo + first * step, step * k
    elif len(coeffs) == 1:
        step = 1
    return lo, step, tuple(coeffs)


def _pairs(row: Row) -> list[tuple[int, int]]:
    """The (u-exponent, coeff) pairs of a row's nonzero terms, in order."""
    lo, step, coeffs = row
    return list(zip(compress(range(lo, lo + len(coeffs) * step, step), coeffs),
                    filter(None, coeffs)))


def _stride(row: Row) -> int:
    """The row's step as a constraint on a common grid: 0 for one term."""
    return row[1] if len(row[2]) > 1 else 0


def _negated(row: Row) -> Row:
    lo, step, coeffs = row
    return lo, step, tuple(map(neg, coeffs))


def _is_monomial(rows: Rows) -> bool:
    return len(rows) == 1 and len(next(iter(rows.values()))[2]) == 1


def _size(rows: Rows) -> int:
    """The number of terms in a row map."""
    return sum(len(coeffs) - coeffs.count(0) for _, _, coeffs in rows.values())


def _max_abs(rows: Rows) -> int:
    """The largest coefficient magnitude in a nonzero row map."""
    return max(max(map(abs, coeffs)) for _, _, coeffs in rows.values())


def _combine(a: Row, b: Row, op) -> Row | None:
    """a + b or a - b (op is `add` or `sub`) on two rows; None if it is zero.

    Both rows are laid on their common grid: step g, the gcd of their steps
    and of the distance between their lows.  A row whose step is larger
    gets g-spaced zeros between its terms.  On that grid the sum is built
    left to right in one list, each coefficient written once: the head of
    the row that starts first, the zeros of a gap if the other row starts
    after it ends, one `map(op)` over the overlap, and the tail of the row
    that ends last.  A head or tail taken from b is negated when op is
    `sub`.
    """
    alo, astep, ac = a
    blo, bstep, bc = b
    g = gcd(_stride(a), _stride(b), blo - alo) or 1
    if astep != g and len(ac) > 1:
        ac = _spread(ac, astep // g)
    if bstep != g and len(bc) > 1:
        bc = _spread(bc, bstep // g)
    lo = min(alo, blo)
    ia, ib = (alo - lo) // g, (blo - lo) // g
    ea, eb = ia + len(ac), ib + len(bc)
    mid = ia + ib  # where the later row starts: the other one starts at 0
    end = max(mid, min(ea, eb))  # the overlap is [mid, end), empty across a gap
    if ia:
        out = list(bc[:mid]) if op is add else list(map(neg, bc[:mid]))
    else:
        out = list(ac[:mid])
    if mid > len(out):
        out += repeat(0, mid - len(out))
    out += map(op, ac[mid - ia:end - ia], bc[mid - ib:end - ib])
    if ea > eb:
        out += ac[end - ia:]
    elif eb > ea:
        out += bc[end - ib:] if op is add else map(neg, bc[end - ib:])
    return _row(lo, g, out)


def _spread(coeffs: tuple[int, ...], k: int) -> list[int]:
    """coeffs with k - 1 zeros between neighbours: the same row at step / k."""
    out = [0] * ((len(coeffs) - 1) * k + 1)
    out[::k] = coeffs
    return out


def _merge(a: Rows, b: Rows, subtract: bool) -> Rows:
    """a + b, or a - b, on row maps; only the rows both have are combined."""
    out = dict(a)
    op = sub if subtract else add
    for ev, row in b.items():
        mine = out.get(ev)
        if mine is None:
            out[ev] = _negated(row) if subtract else row
        elif (combined := _combine(mine, row, op)) is None:
            del out[ev]
        else:
            out[ev] = combined
    return out


def _mul_rows(a: Rows, b: Rows) -> Rows:
    """Product of two row maps, each of more than one term: one packed
    kernel per product row ev = av + bv, on its own u-grid.  The grid starts
    at the lowest start of the row's pairs, and its step s is the gcd of
    their rows' strides and of the distances between their starts, so a
    product row packs no more digits than its pairs span there.  Each row
    is packed (`_encode`) once per step it is needed at, each pair's ints
    are multiplied and added in at their offset, and each product row is
    unpacked once (`_decode`) and made canonical by `_row`, which drops a
    row that cancels.  A digit holds the smaller bound on a product
    coefficient, min(#a, #b) * max|a| * max|b| or ||a||_2 * ||b||_2
    (Cauchy-Schwarz), and a sign."""
    sq_a, sq_b = (sum(sum(map(mul, c, c)) for _, _, c in rows.values()) for rows in (a, b))
    width = _width(min(isqrt(sq_a * sq_b),
                       min(_size(a), _size(b)) * _max_abs(a) * _max_abs(b)))
    bits = 8 * width
    rows = [*a.values(), *b.values()]
    # (v-exponent, index in rows, lo, stride, span) per row of a, then of b
    ends = [(v, i, row[0], _stride(row), (len(row[2]) - 1) * row[1])
            for i, (v, row) in enumerate(chain(a.items(), b.items()))]
    ends_a, ends_b = ends[:len(a)], ends[len(a):]
    # ev -> [step, lowest start, highest end, [(i, j, start) per pair]]; the gcd
    # of each start's distance from the lowest before it is that of them all.
    groups: dict[int, list] = {}
    for av, i, a_lo, a_s, a_span in ends_a:
        for bv, j, b_lo, b_s, b_span in ends_b:
            start = a_lo + b_lo
            end = start + a_span + b_span
            group = groups.setdefault(av + bv, [0, start, end, []])
            group[0] = gcd(group[0], a_s, b_s, start - group[1])
            if start < group[1]:
                group[1] = start
            if end > group[2]:
                group[2] = end
            group[3].append((i, j, start))
    packs: dict[int, list] = {}  # step -> each row packed at it, None until needed
    out: Rows = {}
    for ev, (s, low, high, pairs) in groups.items():
        s = s or 1
        packed = packs.setdefault(s, [None] * len(rows))
        value = 0
        for i, j, start in pairs:
            if (x := packed[i]) is None:
                x = packed[i] = _encode(rows[i], s, width)
            if (y := packed[j]) is None:
                y = packed[j] = _encode(rows[j], s, width)
            value += x * y << ((start - low) // s * bits)
        n = (high - low) // s + 1
        if row := _row(low, s, _decode((value + _bias(n, width)).to_bytes(n * width, "little"),
                                       width)):
            out[ev] = row
    return out


def _encode(row: Row, step: int, width: int) -> int:
    """The row as one int of balanced digits of `width` bytes at u-step
    `step`, a divisor of its own: one `bytes.join` of `to_bytes` over the
    coefficients plus half the digit range, less `_bias`.  A coefficient
    outside -2**(8*width-1) <= c < 2**(8*width-1) raises OverflowError."""
    _, rstep, coeffs = row
    if rstep != step and len(coeffs) > 1:
        coeffs = _spread(coeffs, rstep // step)
    half = 1 << (8 * width - 1)
    data = b"".join(map(int.to_bytes, map(half.__add__, coeffs), repeat(width), repeat("little")))
    return int.from_bytes(data, "little") - _bias(len(coeffs), width)


def _decode(data: bytes, width: int) -> list[int]:
    """The balanced digits of a value plus its `_bias`, from its bytes."""
    unbias = (-(1 << (8 * width - 1))).__add__
    digits = zip(*[iter(data)] * width)  # each digit's bytes, as a tuple of ints
    return list(map(unbias, map(int.from_bytes, digits, repeat("little"))))


def _bias(ndigits: int, width: int) -> int:
    """What `_encode` adds to `ndigits` digits, as one int: adding it to a
    value in balanced digits makes every digit nonnegative, with no borrow."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * ndigits, "little")


def _width(bound: int) -> int:
    """Bytes of a digit that holds every int of magnitude <= bound, sign included."""
    return bound.bit_length() // 8 + 1


def _coerce(x: object) -> Poly2 | None:
    """x as a polynomial (an int as its constant), or None: a `Poly2` operator
    then returns NotImplemented, so Python tries `RatFunc.__radd__` and kin."""
    if isinstance(x, Poly2):
        return x
    return Poly2.constant(x) if isinstance(x, int) else None


ZERO = Poly2._raw({})
ONE = Poly2._raw({0: (0, 1, (1,))})


def q_pow(k: int) -> Poly2:
    """q**k as an element of Z[u, v], i.e. u**(2k)."""
    return Poly2.monomial(1, 2 * k, 0)


def z_pow(k: int) -> Poly2:
    """z**k as an element of Z[u, v], i.e. v**(2k)."""
    return Poly2.monomial(1, 0, 2 * k)


def exact_div(a: Poly2, b: Poly2) -> Poly2:
    """Quotient c with c*b == a, when b divides a exactly in Z[u, v].

    a and b must be one z-row each (else ValueError), as in the package's
    one division, a q-polynomial by (q;q)_k.  At the rows' common u-step
    the quotient's lowest monomial and span are a's less b's, so a lowest
    monomial of a not divisible by b's, or a b spanning more than a, raises
    at once.  Then each row is packed by `_encode` at digit width w and one
    `divmod` gives the quotient.  Every packed coefficient fits one digit:
    w starts at the width of b's largest coefficient and doubles until it
    holds a's too.  The packing is a ring map to Z, so b | a implies that
    the packed b divides the packed a, and a nonzero remainder raises.  A
    quotient that fits the `cols` balanced digits of its span is decoded,
    and the digits, c's coefficients when w holds them, are certified by
    the ring's own product: c*b == a.  Else w doubles.

    A true quotient c divides a, read as polynomials in X = u**step, and
    has degree d = cols - 1, so by Mignotte's inequality (M. Mignotte, "An
    inequality about factors of polynomials", Math. Comp. 1974) its
    coefficients are at most 2**d * ||a||_2.  Once w holds twice that bound,
    a true quotient unpacks with every digit below a quarter of the digit
    range and passes its certificate, so anything else raises.  That width
    caps w; it holds a, since ||a||_2 >= max|a|.  Below it a quotient with
    a digit in the top quarter is taken as wrapped and w doubles without a
    certificate.
    """
    ta, tb = a._rows, b._rows
    if len(ta) > 1 or len(tb) > 1:
        raise ValueError("exact_div divides one z-row by one z-row")
    if not tb:
        raise ExactDivisionError("division by the zero polynomial")
    if not ta:
        return ZERO
    (av, row_a), = ta.items()
    (bv, row_b), = tb.items()
    lo, ev = row_a[0] - row_b[0], av - bv
    if lo < 0 or ev < 0:
        raise ExactDivisionError(f"lowest monomial {(row_a[0], av)} not divisible by "
                                 f"{(row_b[0], bv)}")
    step = gcd(_stride(row_a), _stride(row_b)) or 1
    cols = ((len(row_a[2]) - 1) * row_a[1] - (len(row_b[2]) - 1) * row_b[1]) // step + 1
    if cols < 1:
        raise ExactDivisionError("divisor spans more than the dividend")
    b_max = _max_abs(tb)
    norm = isqrt(sum(map(mul, row_a[2], row_a[2]))) + 1  # exceeds ||a||_2
    cap = _width(norm << cols)  # 2**d * norm, doubled
    width, a_width = _width(b_max), _width(_max_abs(ta))
    while width < a_width:  # ends: cap >= a_width
        width = min(2 * width, cap)
    while True:
        quot, rem = divmod(_encode(row_a, step, width), _encode(row_b, step, width))
        if rem:
            raise ExactDivisionError("packed remainder is nonzero")
        biased = quot + _bias(cols, width)
        del quot
        # A digit past `cols` would let c*b alias into the next digit.
        if 0 <= biased < 1 << (8 * width * cols):
            coeffs = _decode(biased.to_bytes(cols * width, "little"), width)
            c_max = max(map(abs, coeffs))
            if 4 * c_max < 1 << (8 * width):
                # When w holds every coefficient of c*b (it holds a's), packing
                # is injective on them, so c*b == a follows from quot * pb == pa,
                # which the divmod has shown, since c packs back to quot.
                c = Poly2._raw({ev: _row(lo, step, coeffs)})  # quot != 0, as a != 0
                sure = _width(min(_size(c._rows), _size(tb)) * c_max * b_max)
                if sure <= width or c * b == a:
                    return c
        if width >= cap:
            raise ExactDivisionError("no quotient passed its certificate at the Mignotte width")
        width = min(2 * width, cap)


def eval_u1(a: Poly2) -> Poly2:
    """Substitute u := 1 (hence q = 1); the result lives in Z[v]."""
    return Poly2({(0, ev): sum(coeffs) for ev, (_, _, coeffs) in a._rows.items()})


def qz_terms(a: Poly2) -> Iterator[tuple[Exponents, int]]:
    """Lazily yield ((q-degree, z-degree), coeff) for each term; an odd
    exponent is a half power that did not cancel and raises ValueError."""
    for ev, row in a._rows.items():
        for eu, c in _pairs(row):
            if eu % 2 or ev % 2:
                raise ValueError(f"odd exponent ({eu}, {ev}): not a (q, z) polynomial")
            yield (eu // 2, ev // 2), c


def q_dense(coeffs: list[int], start: int) -> Poly2:
    """Sum of coeffs[i] * q**(start + i) over a nonempty list, start >= 0,
    as one row; a list with no zero is stored as it stands."""
    row = _row(2 * start, 2, coeffs)
    return Poly2._raw({0: row}) if row else ZERO


def times_one_minus(a: list[int], j: int) -> list[int]:
    """The dense q-list a times (1 - q^j): b[d] = a[d] - a[d - j], one `map`."""
    b = a + [0] * j
    b[j:] = map(sub, b[j:], a)
    return b


def _divide_by_one_minus(a: list[int], part: int) -> None:
    """a times 1/(1 - q^part) modulo q^len(a), in place: a[d] += a[d - part] in
    increasing d is a running sum per residue class, one C-level `accumulate`."""
    for r in range(min(part, len(a))):
        a[r::part] = accumulate(a[r::part])


def _certified_step(prev: list[int], part: int) -> list[int]:
    """prev / (1 - q^part) modulo q^len(prev) by a stride pass on a copy, which
    must multiply back to prev (else ArithmeticError).  Chained from [1, 0, ...]
    over parts 1..k without growing, the steps prove it times (q;q)_k is 1."""
    inv = prev.copy()
    _divide_by_one_minus(inv, part)
    if times_one_minus(inv, part)[:len(prev)] != prev:
        raise ArithmeticError(f"stride division by 1 - q^{part} failed its certificate")
    return inv


def eval_qz(a: Poly2, q_val: int, z_val: int) -> int:
    """Evaluate an even-exponent polynomial at integer q and z values."""
    return sum(c * q_val ** dq * z_val ** dz for (dq, dz), c in qz_terms(a))


# -- fraction field ----------------------------------------------------------


class RatFunc:
    """Quotient num/den of two polynomials, den != 0.

    Carries no GCD reduction, so 2/2 == 1/1 as values even though the stored
    pairs differ.  Equality is `ratfunc_eq`, which cross-multiplies only when
    the denominators differ, and a sum over a shared denominator keeps it:
    a/d + b/d is (a + b)/d.  The only normalization is that a zero numerator
    snaps the denominator to `ONE`, so zero needs no shortcut: the general
    formulas only multiply by zero or `ONE` and add zero, which `Poly2`
    answers without a pass over any terms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly2 | int, den: Poly2 | int = ONE):
        num, den = _coerce(num), _coerce(den)
        if num is None or den is None:
            raise TypeError("a rational function takes polynomials or ints")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            den = ONE
        self.num = num
        self.den = den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "RatFunc | Poly2 | int") -> "RatFunc":
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc | Poly2 | int") -> "RatFunc":
        other = _coerce_rat(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other: "RatFunc | Poly2 | int") -> "RatFunc":
        other = _coerce_rat(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other: "RatFunc | Poly2 | int") -> "RatFunc":
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFunc | Poly2 | int") -> "RatFunc":
        other = _coerce_rat(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other: object) -> bool:
        other = _coerce_rat(other)
        return NotImplemented if other is None else ratfunc_eq(self, other)

    def __str__(self) -> str:
        if self.den == ONE:
            return to_text(self.num)
        return f"({to_text(self.num)})/({to_text(self.den)})"

    def __repr__(self) -> str:
        return f"RatFunc({self!s})"


def _coerce_rat(x: object) -> RatFunc | None:
    """x as a fraction; None (so NotImplemented) for any other type."""
    if isinstance(x, RatFunc):
        return x
    return RatFunc(x) if isinstance(x, (Poly2, int)) else None


RAT_ZERO = RatFunc(ZERO)
RAT_ONE = RatFunc(ONE)


def ratfunc_eq(a: RatFunc, b: RatFunc) -> bool:
    """True iff a.num * b.den == b.num * a.den exactly.

    Over a shared denominator d this is a.num == b.num, with no product:
    Z[u, v] is an integral domain, so (a.num - b.num) * d == 0 with d != 0
    forces a.num == b.num.
    """
    if a.den == b.den:
        return a.num == b.num
    return a.num * b.den == b.num * a.den


# -- canonical text and JSON forms -------------------------------------------


def _render(lo: int, step: int, coeffs: tuple[int, ...], at) -> list[str]:
    """The nonzero terms of the row piece (lo, step, coeffs), rendered in u
    order by one `%` of the pair template `at[2]` repeated once per term and
    one `splitlines` (no term holds a line break); the terms at exponents 0
    and 1 are redone from `at[0]` and `at[1]`."""
    nonzero = list(filter(None, coeffs))
    pairs = [0] * (2 * len(nonzero))
    pairs[at[3]::2] = nonzero
    exps = range(lo, lo + len(coeffs) * step, step)
    pairs[1 - at[3]::2] = exps if len(nonzero) == len(coeffs) else compress(exps, coeffs)
    terms = (at[2] * len(nonzero) % tuple(pairs)).splitlines()
    if lo < 2:
        for i, e in enumerate(compress(range(lo, 2, step), coeffs)):  # term i, at e < 2
            terms[i] = at[e] % nonzero[i]
    return terms


def _view(p: Poly2, templates) -> tuple[bool, Iterator[str]]:
    """Whether p prints in the (q, z) view, and its terms rendered, in order.

    The (q, z) view is taken when every exponent is even, with exponents
    halved.  `templates(qz, b)` gives a row's `%` templates for `_render`:
    one over the coefficient at exponents 0 and 1 of its varying variable,
    one over a (coefficient, exponent) pair above them that ends in a
    newline, and the coefficient's place in that pair; b is the row's z- or
    v-exponent.  One row is already in order.  Several rows come one band of
    total degree at a time (`_bands`), so that only one band's terms are
    alive at once; each iterator lets go of its terms when it runs out.
    """
    rows = p._rows
    qz = all(ev % 2 == 0 and row[0] % 2 == 0 and _stride(row) % 2 == 0
             for ev, row in rows.items())
    if len(rows) > 1:
        return qz, chain.from_iterable(_bands(rows, qz, templates))
    if not rows:
        return qz, iter(())
    shift = 1 if qz else 0
    (ev, (lo, step, coeffs)), = rows.items()
    return qz, iter(_render(lo >> shift, step >> shift or 1, coeffs, templates(qz, ev >> shift)))


def _bands(rows: Rows, qz: bool, templates) -> Iterator[Iterator[str]]:
    """The terms of several rows in graded-lex order, one band at a time.

    Graded-lex order is (u + v, u), which fixes v, so (q + z, q, z).  Along
    a row t = u + v grows, so a band T <= t < T + width takes one slice from
    each row it meets; the width gives a band about `_PIECE` of the rows'
    stored coefficients.  Rows enter a band in order of their lowest t and
    leave after their highest, so each band visits only the rows it meets.
    A band's slices are rendered by `_render` and put in order by one index
    sort over int keys, (u + v) * span + u with span above every u-exponent,
    that is v * span + u * (span + 1): one range per slice, cut by
    `compress`.  The keys go before the band is handed out, and the sorted
    indices are kept as machine words in an `array`, not as int objects left
    among the rendered terms.  A band's terms go when the next band starts.
    """
    from array import array

    shift = 1 if qz else 0
    span = 1 + max(lo + (len(coeffs) - 1) * step for lo, step, coeffs in rows.values())
    # (lowest t, highest t, v, row) per row, the next row to enter last.
    waiting = sorted(((ev + lo, ev + lo + (len(coeffs) - 1) * step, ev, (lo, step, coeffs))
                      for ev, (lo, step, coeffs) in rows.items()), reverse=True)
    first, last = waiting[-1][0], max(row[1] for row in waiting)
    width = max(1, (last + 1 - first) * _PIECE // sum(len(row[2]) for row in rows.values()))
    active: list[tuple[int, int, int, Row]] = []
    for low in range(first, last + 1, width):
        high = low + width  # this band is low <= u + v < high
        while waiting and waiting[-1][0] < high:
            active.append(waiting.pop())
        keys: list[int] = []
        terms: list[str] = []
        for t, _, ev, (lo, step, coeffs) in active:
            start = max(0, -((t - low) // step))  # the first index at u + v >= low
            part = coeffs[start:-((t - high) // step)]
            lo += start * step
            key = ev * span + lo * (span + 1)
            keys += compress(range(key, key + len(part) * step * (span + 1), step * (span + 1)),
                             part)
            terms += _render(lo >> shift, step >> shift or 1, part, templates(qz, ev >> shift))
        active = [row for row in active if row[1] >= high]
        order = array("L", sorted(range(len(keys)), key=keys.__getitem__))
        del keys
        yield map(terms.__getitem__, order)


@cache  # one row template per (view, z-exponent), however many rows print
def _text_templates(qz: bool, b: int) -> tuple[str, str, str, int]:
    """Text terms "c*body": factors q then z in the (q, z) view, v then u in
    the (u, v) view, `^e` only for e > 1; a bare "c" for the constant.  The
    coefficient comes first in a pair."""
    x, y = ("q", "z") if qz else ("u", "v")
    fixed = f"*{y}^{b}" if b > 1 else f"*{y}" * b
    if qz:
        return "%d" + fixed, f"%d*{x}{fixed}", f"%d*{x}^%d{fixed}\n", 0
    return "%d" + fixed, f"%d{fixed}*{x}", f"%d{fixed}*{x}^%d\n", 0


@cache
def _json_templates(qz: bool, b: int) -> tuple[str, str, str, int]:
    """[z_exp, q_exp, "coeff"] triples; the exponent comes first in a pair."""
    return f'[{b}, 0, "%d"]', f'[{b}, 1, "%d"]', f'[{b}, %d, "%d"]\n', 1


# Terms per piece of `to_text` and `to_json`: a piece of a few hundred KB is
# one write and one join, a small part of the largest outputs (tens of MB).
_PIECE = 16384


def to_text(p: Poly2, write: Callable[[str], object] | None = None) -> str | None:
    """Canonical text form: graded-lex order, (q, z) view when exponents allow.

    Examples: `1 - z - q*z` in the (q, z) view, `v*u^2` in the (u, v) view.
    Terms "c*body" (a constant "c") are joined by " + " in pieces of
    `_PIECE` terms, each led by a " + ", where " + -" then becomes " - " and
    " 1*" becomes " ".  Exact: a body holds only letters, digits, `^` and
    `*`, and a coefficient digits after an optional "-", so a space occurs
    only in a separator and both patterns only at a term's start, before a
    negative coefficient and before a 1 or (by then) -1 other than the
    constant's.  The first piece's " + " is dropped, or its " - " becomes
    "-".  Returns the text, or, given `write` (such as `sys.stdout.write`),
    passes it the pieces in order and returns None, so that the whole text
    is never built.
    """
    pieces: list[str] = []
    put = write or pieces.append
    terms = _view(p, _text_templates)[1]
    piece = " + ".join(["", *islice(terms, _PIECE)]).replace(" + -", " - ").replace(" 1*", " ")
    put(("" if piece[1] == "+" else "-") + piece[3:] if piece else "0")
    while piece := " + ".join(["", *islice(terms, _PIECE)]):
        put(piece.replace(" + -", " - ").replace(" 1*", " "))
    del terms  # the rendered terms go before the join copies the text
    return None if write else "".join(pieces)


def to_json(p: Poly2, write: Callable[[str], object] | None = None) -> str | None:
    """The bytes of `json.dumps(to_json_obj(p))`, without `json`: the object's
    head rides on the first piece of terms and its tail follows the last.
    Returned, or given to `write` in pieces as by `to_text`."""
    pieces: list[str] = []
    put = write or pieces.append
    qz, terms = _view(p, _json_templates)
    head = '{"vars": "qz", "terms": [' if qz else '{"vars": "uv", "terms": ['
    put(head + ", ".join(islice(terms, _PIECE)))
    while piece := ", ".join(["", *islice(terms, _PIECE)]):
        put(piece)
    del terms
    put("]}")
    return None if write else "".join(pieces)


def to_json_obj(p: Poly2) -> dict:
    """JSON form, read back from `to_json`: [z_exp, q_exp, coeff] triples
    under "qz" when every exponent is even, else raw (u, v) ones under "uv"."""
    import json

    return json.loads(to_json(p))


def ratfunc_to_json_obj(r: RatFunc) -> dict:
    return {"num": to_json_obj(r.num), "den": to_json_obj(r.den)}

