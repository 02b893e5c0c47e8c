"""Float text of a whole array at once: ``'%.17g' % x`` and ``repr(x)``.

``g17(v)`` and ``shortest(v)`` render each value of a float64 array as one
row of ``WIDTH`` ASCII bytes, NUL-padded: a row with its NULs removed is
``'%.17g' % x`` or ``repr(x)``, byte for byte.  A caller lays rows side
by side with its separators and removes every NUL of the result at once.

The digit kernel.  For 1e-4 <= |v| < 1e17, E = floor(log10 |v|) is
``np.log10`` corrected by exact comparisons with the doubles nearest
10**k, none of which lies below 10**k.  X = |v|·10**(16 - E) lies in
[1e16, 1e17), and since 10**(16 - E) is a double (0 <= 16 - E <= 20),
Dekker's split product gives X exactly as p + e, without an FMA
(Dekker, "A floating-point technique for extending the available
precision", Numer. Math. 18, 1971).  X is kept as t + f, t an integer
and 0 <= f < 1; the 17 digits of %.17g are X rounded half to even.

``repr`` is the shortest text that reads back as v, the nearest one if
several are as short (Gay's dtoa, mode 0).  v's rounding interval is
X ± h with h = 2**(ex - 54)·10**(16 - E), where v = m·2**ex and
1/2 <= m < 1: a power of two times a double, so exact.  X rounded to 15,
else 16 digits is repr when it lies inside that interval; otherwise the
17 digits are.  Only a power of two has an interval narrower below, and
each one in range has an exact text of at most 16 digits, which is its
own nearest candidate.  The digits become text in 8-byte words: eight
digits per word by multiply-and-shift splits, then the sign, a '0.000'
prefix and the '.' placed by masks and shifts.

Fixed notation only: %.17g for 1e-4 <= |v| < 1e17 and repr for
1e-4 <= |v| < 1e16.  Python's own ``%`` or ``repr`` formats zeros,
non-finite values and values outside those ranges, and for repr also
values whose repr has 14 digits or fewer and values halfway between two
candidates.  The tables are built on first use, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

# the longest text of either format, "-2.2250738585072014e-308", in three
# 8-byte words
WIDTH = 24
_SPLIT = 134217729.0         # 2**27 + 1: Dekker's split into 26-bit halves
_ASCII = 0x3030303030303030  # '0' in every byte


def _words(text):
    """A text of at most 24 bytes as three little-endian 8-byte words."""
    x = int.from_bytes(text, "little")
    return [(x >> 64 * w) & (2 ** 64 - 1) for w in range(3)]


@functools.lru_cache(maxsize=None)
def _tables():
    """Read-only tables: the double nearest 10**k for -4 <= k <= 20 and
    its 26-bit halves; and, as 3-word rows, for each E = -4 ... 16 the
    mask of the digits before the '.', for each E and sign the text ahead
    of the digits with the '.', and the mask of each text length 0 ... 24."""
    # float(int) and int / int are correctly rounded
    ten = np.array([float(10 ** k) if k >= 0 else 1 / 10 ** -k
                    for k in range(-4, 21)])
    c = ten * _SPLIT
    hi = c - (c - ten)
    low, pre = [], []
    for e in range(-4, 17):
        low.append(_words(b"\xff" * max(e + 1, 0)))
        for sign in (b"", b"-"):
            pre.append(_words(sign + (b"0." + b"0" * (-e - 1) if e < 0
                                      else b"\0" * (e + 1) + b".")))
    ends = [_words(b"\xff" * k) for k in range(WIDTH + 1)]
    tables = (ten, hi, ten - hi) + tuple(
        np.array(t, dtype=np.uint64).T.copy() for t in (low, pre, ends))
    for t in tables:
        t.setflags(write=False)
    return tables


def _scaled(a):
    """(E, t, f, b) for 1e-4 <= a < 1e17: E = floor(log10 a) exactly,
    b = 10**(16 - E), and a*b = t + f exactly, t an int64, 0 <= f < 1."""
    ten, bh, bl = _tables()[:3]
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp) + 4
    # every 10**k here is a double or rounds up to one, so a >= 10**k
    # exactly iff a >= ten[k]
    k += (a >= ten[k + 1]).view(np.int8) - (a < ten[k]).view(np.int8)
    s = 24 - k                             # the index of 10**(16 - E)
    b = ten[s]
    p = a * b
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    err = ((ah * bh[s] - p) + ah * bl[s] + al * bh[s]) + al * bl[s]
    whole = np.floor(err)
    return k - 4, p.astype(np.int64) + whole.astype(np.int64), err - whole, b


def _eight(x):
    """The 8 decimal digits of each x < 10**8 (uint64) as byte values,
    the first in the lowest byte: x split into halves of 4 digits, then 2,
    then 1, every lane's quotient by a multiply and a shift."""
    hi = x // 10000
    v = hi | (x - hi * 10000) << 32
    q = (v * 5243 >> 19) & 0x7F0000007F
    v = q | (v - q * 100) << 16
    q = (v * 103 >> 10) & 0xF000F000F000F
    return q | (v - q * 10) << 8


def _zeros(x):
    """The zero bytes above the highest nonzero byte of each x, a uint64
    of byte values 0-9: its float64 keeps its bit length, since bytes of 9
    or less never round it up to a power of two."""
    return 8 - (np.frexp(x.astype(np.float64))[1] + 7) // 8


def _shl(words, bits):
    """Three-word strings moved up by ``bits`` (multiples of 8 below 64)."""
    w0, w1, w2 = words
    down = 63 - bits                       # no shift by 64
    return (w0 << bits, w1 << bits | (w0 >> 1) >> down,
            w2 << bits | (w1 >> 1) >> down)


def _rows(n, e, neg, frac):
    """Rows of WIDTH bytes: the fixed-notation text of ±n·10**(e - 16)
    (minus where ``neg``) for n in [10**16, 10**17) and -4 <= e <= 16, its
    trailing zeros dropped but at least ``frac`` (0 or 1) digits kept after
    the '.'; NUL after the end."""
    low, pre, ends = _tables()[3:]
    n = n.view(np.uint64)
    q = n // 10 ** 8
    d0 = q // 10 ** 8
    hi, lo = _eight(q - d0 * 10 ** 8), _eight(n - q * 10 ** 8)
    zeros = _zeros(lo)
    zeros += (zeros == 8) * _zeros(hi)
    shown = np.maximum(17 - zeros, e + 1 + frac)
    hi |= _ASCII
    lo |= _ASCII
    digits = (d0 | 0x30 | hi << 8, hi >> 56 | lo << 8, lo >> 56)
    i = e + 4
    head = [d & m[i] for d, m in zip(digits, low)]
    # the bytes ahead of digit 0 and ahead of digit e + 1
    lead = neg + np.where(e < 0, 1 - e, 0)
    gap = lead + (e >= 0)
    size = gap + shown - (shown == e + 1)
    j = 2 * i + neg
    words = zip(_shl(head, (lead * 8).astype(np.uint64)),
                _shl([d ^ h for d, h in zip(digits, head)],
                     (gap * 8).astype(np.uint64)),
                pre, ends)
    rows = np.empty((len(n), 3), np.uint64)
    for w, (a, b, p, m) in enumerate(words):
        rows[:, w] = (a | b | p[j]) & m[size]
    return rows.view(np.uint8)


def _fallback(rows, v, bad, fmt):
    """Overwrite the rows of v[bad] with fmt(x), NUL-padded.  No array is
    sized by the count of such x: numpy keeps freed buffers under 1 KiB
    for reuse, so each new small size would stay allocated wherever the
    heap then was, and split the free space that later large arrays need
    (after a 512 x 512 csv grid, np.loadtxt of it peaked 7 MiB higher)."""
    flags = bad.tobytes()
    i = flags.find(1)
    while i >= 0:
        text = fmt(float(v[i])).encode()
        rows[i] = 0
        rows[i, :len(text)] = np.frombuffer(text, np.uint8)
        i = flags.find(1, i + 1)
    return rows


def _even(t, f):
    """t + f rounded half to even, for int64 t and 0 <= f < 1."""
    return t + ((f > 0.5) | ((f == 0.5) & (t & 1 == 1)))


def g17(v):
    """'%.17g' % x for each x of the 1-d float64 array v, as rows."""
    a = np.abs(v)
    ok = (a >= 1e-4) & (a < 1e17)
    e, t, f, _ = _scaled(np.where(ok, a, 1.0))
    # X never rounds up to 10**17 here: the largest double below each
    # 10**k, -3 <= k <= 17, lies more than half a unit of its 17th digit
    # below 10**k
    rows = _rows(_even(t, f), e, np.signbit(v), 0)
    return _fallback(rows, v, ~ok, "%.17g".__mod__)


def shortest(v):
    """repr(x) for each x of the 1-d float64 array v, as rows."""
    a = np.abs(v)
    ok = (a >= 1e-4) & (a < 1e16)
    a = np.where(ok, a, 1.0)
    e, t, f, b = _scaled(a)
    h = np.ldexp(b, np.frexp(a)[1] - 54)
    n = _even(t, f)
    # the nearest values with 16, 15 and 14 digits are t + u; repr is the
    # shortest inside X ± h.  u ± h is exact for |u| < 64, and a larger
    # |u| lies far outside (h <= 11.1).  No nearest candidate is on the
    # edge: a decimal of 16 digits or fewer equals v ± 2**(ex - 54) only
    # for E = 15, where v is an even integer and so its own candidate
    for d in (10, 100, 1000):
        q = t // d
        r = t - q * d
        u = d * (q + ((r > d // 2) | ((r == d // 2) & (f > 0)))) - t
        inside = np.where(u >= 1, f > u - h, f < u + h)
        ok &= (r != d // 2) | (f != 0)     # a tie
        n = np.where(inside, t + u, n)
    ok &= ~inside                          # 14 digits or fewer
    n[~ok] = 10 ** 16
    rows = _rows(n, e, np.signbit(v), 1)
    return _fallback(rows, v, ~ok, repr)
