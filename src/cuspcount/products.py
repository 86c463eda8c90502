"""Exact products of integer matrices through float64 matrix products.

The integers are split into balanced 16-bit digits, the error-free
splitting of a matrix product of Ozaki, Ogita, Oishi and Rump: A =
sum_s 2**(16 s) A_s with every entry of A_s in [-2**15, 2**15), so that
the float64 product of two digit matrices of dimension n is a matrix of
integers of at most n 2**30 in absolute value.  Digit s of A times digit t
of B lands on digit plane s + t of A B, and the planes are carried back to
digits before a sum of them could pass 2**53.  Every partial sum is then an
integer that a double holds exactly, so neither the order of BLAS's
additions nor a fused multiply-add changes a bit.  The entries go in and
come out through `int.to_bytes` and `int.from_bytes`.
"""

from __future__ import annotations

import numpy as np

#: Digits of _DIGIT bits, balanced: in [-_HALF, _HALF).
_DIGIT = 16
_HALF = 1 << (_DIGIT - 1)
_MASK = (1 << _DIGIT) - 1

#: A float64 sum of integers is exact while every partial sum is at most
#: 2**53 in absolute value, whatever the order of the additions.
_EXACT = 2 ** 53

#: The floats of one temporary array of a block of a congruent copy.  A
#: copy runs by blocks of rows so that its temporaries stay small.
_BLOCK = 1 << 13


def _digits(values: list[int], count: int) -> np.ndarray:
    """The balanced 16-bit digits of integers below 2**(16 count - 2) in
    absolute value, in int16, least significant first along the first
    axis: m = sum_s 2**(16 s) d_s with -2**15 <= d_s < 2**15.  With
    offset = sum_s 2**15 2**(16 s), the 16-bit digits of m + offset are
    d_s + 2**15, and those of (m + offset) ^ offset are d_s in two's
    complement."""
    offset = _HALF * ((1 << _DIGIT * count) - 1) // _MASK
    data = b"".join([(v + offset ^ offset).to_bytes(2 * count, "little") for v in values])
    return np.frombuffer(data, "<i2").reshape(-1, count).T


def _integers(planes: np.ndarray) -> list[int]:
    """The integers of the columns of digit planes as _digits writes them,
    but with any top digit in [-2**15, 2**15): the reverse of _digits."""
    offset = _HALF * ((1 << _DIGIT * len(planes)) - 1) // _MASK
    data, size = planes.T.astype("<i2").tobytes(), 2 * len(planes)
    return [(int.from_bytes(data[i:i + size], "little") ^ offset) - offset
            for i in range(0, len(data), size)]


def _carry(planes: np.ndarray, bound: int) -> None:
    """Carries float64 digit planes (the first axis) of integers at most
    `bound` in absolute value, in place, until every plane but the top is
    in [-2**15, 2**15).  A pass takes c = rint(x / 2**16) off each plane
    but the top as c 2**16, which leaves x - c 2**16 in [-2**15, 2**15],
    and adds c, at most (bound + 2**15) >> 16 in absolute value, to the
    plane above.  Once the digits are below 2**16, a pass takes the floor
    of (x + 2**15) / 2**16, as rint((x + 1/2) / 2**16), which leaves
    [-2**15, 2**15), until no digit is out of that range: only a unit
    carried into a digit takes it out again, so that is seldom more than
    one pass.  No value changes, and every step is exact on integers
    below 2**53."""
    low = planes[:-1]
    while bound > _MASK:
        carry = np.rint(low * (1 / (_MASK + 1)))
        planes[1:] += carry
        low -= carry * (_MASK + 1)
        bound = _HALF + ((bound + _HALF) >> _DIGIT)
    while np.abs(low + 0.5).max() > _HALF:
        carry = np.rint((low + 0.5) * (1 / (_MASK + 1)))
        planes[1:] += carry
        low -= carry * (_MASK + 1)


def _product(left: np.ndarray, weights: np.ndarray, planes: int) -> np.ndarray:
    """The carried digit planes of C W, (planes, rows, width), for the
    digits of C, (digits, rows, n) in float64, and weights[t], digit t of
    W in int16, taken a few at a time: digit q of C times digit t of W
    lands on plane q + t.  A product of two digits is at most 2**30, so a
    sum of n of them is an integer of at most n 2**30, and the planes are
    carried before an addition could take a partial sum past _EXACT:
    every float64 operation is then exact, whatever the order of the
    additions.  That needs n < 2**22, so that two such sums stay below
    2**53."""
    count, rows, n = left.shape
    flat = left.reshape(count * rows, n)
    acc = np.zeros((planes, rows, weights.shape[2]))
    step, bound = n << 2 * _DIGIT - 2, 0
    chunk = max(1, _BLOCK // (count * acc[0].size))
    for first in range(0, len(weights), chunk):
        terms = np.matmul(flat, weights[first:first + chunk].astype(float))
        for t, term in enumerate(terms, first):
            if bound + step > _EXACT:
                _carry(acc, bound)
                # the top plane is never reduced: its bound is read off it
                bound = max(_HALF, int(np.abs(acc[-1]).max()))
            acc[t:t + count] += term.reshape(count, rows, -1)
            bound += step
    _carry(acc, bound)
    return acc


def congruent_copy(b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """W^T B W for a symmetric object matrix B and an integer matrix W,
    exactly, from float64 products of their 16-bit digits.

    X^T = B W, for X = W^T B, is formed first by blocks of rows of B, and
    its digits are kept in int16; then the copy X W by blocks of rows, on
    and above the diagonal, which is mirrored below it.  With S digits of
    B and T of W, |X| < n 2**(16 (S + T) - 4) and |X W| < n**2
    2**(16 (S + 2 T) - 6), so for n < 2**18 the top of S + T + 1 and of
    S + 2 T + 2 planes stays in [-2**15, 2**15) too.  The blocks keep every
    float temporary near _BLOCK floats."""
    n = len(b)
    values = [m.ravel().tolist() for m in (w, b)]
    count_w, count_b = ((max(map(int.bit_length, v)) + _DIGIT + 1) // _DIGIT for v in values)
    weights = _digits(values[0], count_w).reshape(count_w, n, n)
    x = np.empty((count_b + count_w + 1, n, n), dtype=np.int16)
    height = max(1, _BLOCK // (n * len(x)))
    for start in range(0, n, height):
        rows = _digits(values[1][start * n:(start + height) * n], count_b)
        planes = _product(rows.astype(float).reshape(count_b, -1, n), weights, len(x))
        x[:, :, start:start + height] = planes.transpose(0, 2, 1)
    copy = np.empty((n, n), dtype=object)
    height = max(1, _BLOCK // (n * (len(x) + count_w + 1)))
    for start in range(0, n, height):
        block = slice(start, start + height)
        planes = _product(x[:, block].astype(float), weights[:, :, start:], len(x) + count_w + 1)
        entries = _integers(planes.reshape(len(planes), -1))
        copy[block, start:] = np.array(entries, dtype=object).reshape(-1, n - start)
        copy[block, :start] = copy[:start, block].T
    return copy
