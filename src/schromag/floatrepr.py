"""'%.16e' text for float64 arrays, from whole-array numpy arithmetic.

`format_rows(table)` returns the bytes of ",".join('%.16e' % v for v in
row) + "\n" for every row, without one format call per value.  Each cell
has 17 significant digits in one scientific layout, such as
-3.3781274170219654e+03, which reads back as the same double.

A value x takes the fast path when 1e-280 < |x| < 1e280.  With k = 16 -
floor(log10|x|), V = |x| * 10^k lies in [1e16, 1e17) and is computed as
a double-double (error ~1e-14 in V's units); the 17 digits are V rounded
half up, and a rounding that carries to 1e17 moves the exponent up one.
A value whose fraction of V is within _UNSURE of a half takes '%' formatting
instead, as do 0, subnormals, nan, inf and out-of-range magnitudes.
"""

from __future__ import annotations

import functools

import numpy as np

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_K_MIN, _K_MAX = -265, 298  # 16 - floor(log10|x|) on the fast path, one step of slack
_UNSURE = 1e-6  # in V's units: far above V's ~1e-14 error, and hit by ~1 value in 1e6
_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split of a double into 26-bit halves
_EXP_MAX = 16 - _K_MIN + 1  # largest |exponent| of the fast path, carry included
_SLOW_CELL = 24  # bytes of a source row before its separator: any '%.16e' text fits
# values per formatting pass: at 4-8 snapshot rows (8-16k values) the pass's
# temporaries stay in a 2 MB L2 cache
_CHUNK_VALUES = 16384


@functools.cache
def _pow10() -> tuple[np.ndarray, np.ndarray]:
    """10^k for k in [_K_MIN, _K_MAX] as double-double (hi, lo), from exact ints."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            h = float(10**k)
            hi.append(h)
            lo.append(float(10**k - int(h)))
        else:
            den = 10**-k
            h = 1 / den  # int / int is correctly rounded
            num, pow2 = h.as_integer_ratio()
            hi.append(h)
            lo.append((pow2 - num * den) / (pow2 * den))
    return np.array(hi), np.array(lo)


def _words(texts) -> np.ndarray:
    """Each 4-byte text as one uint32 word, in byte order."""
    return np.frombuffer(b"".join(texts), dtype=np.uint32)


@functools.cache
def _digit_words() -> np.ndarray:
    """uint32 words holding the 4 ASCII digits of 0..9999, in byte order."""
    d = np.arange(10000)
    chars = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1)
    return (chars + ord("0")).astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _lead_words() -> np.ndarray:
    """[NUL, d1, '.', d2] for the leading two digits 0..99 (10..99 used),
    then the same 100 words with '-' for the NUL."""
    return _words(b"%c%d.%d" % (sign, *divmod(d, 10)) for sign in b"\0-" for d in range(100))


@functools.cache
def _tail_words() -> np.ndarray:
    """[d15, d16, d17, 'e'] for the last three digits 0..999."""
    return _words(b"%03de" % d for d in range(1000))


@functools.cache
def _exp_words() -> np.ndarray:
    """[sign, e100 or NUL, e10, e1] for exponents -_EXP_MAX.._EXP_MAX."""
    texts = (b"%+03d" % e for e in range(-_EXP_MAX, _EXP_MAX + 1))  # b"+05", b"-280"
    return _words(t if len(t) == 4 else t[:1] + b"\0" + t[1:] for t in texts)


_COMMA, _NEWLINE = _words([b",\0\0\0", b"\n\0\0\0"])


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(floor(V), V - floor(V)) of V = a * 10^k, the integer part as int64.

    V = hi + lo by Dekker's TwoProduct of a with the double-double 10^k.
    """
    p_hi, p_lo = _pow10()
    ph, pl = p_hi.take(k - _K_MIN), p_lo.take(k - _K_MIN)
    hi = a * ph
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * ph
    bh = c - (c - ph)
    bl = ph - bh
    lo = (((ah * bh - hi) + ah * bl + al * bh) + al * bl) + a * pl
    flo = np.floor(lo)
    return hi.astype(np.int64) + flo.astype(np.int64), lo - flo


def digits(x: np.ndarray):
    """The 17 digits '%.16e' writes for each float64 in x, and the values
    left to '%' itself.

    Returns (sig, expo, slow): |x| = sig * 10^(expo - 16) to 17 digits,
    with sig in [1e16, 1e17), and slow marking the values left to '%'.
    The entries of sig and expo are meaningless where slow is set.
    """
    a = np.abs(x)
    slow = ~((a > _FAST_MIN) & (a < _FAST_MAX))
    a[slow] = 1.5  # any fast-path value, to keep the arithmetic quiet
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    big, frac = _scaled(a, k)
    off = np.flatnonzero((big < 10**16) | (big >= 10**17))
    if off.size:  # log10 was off by one: rescale once
        k[off] += np.where(big[off] < 10**16, 1, -1)
        big[off], frac[off] = _scaled(a[off], k[off])
        slow[off[(big[off] < 10**16) | (big[off] >= 10**17)]] = True
    slow |= np.abs(frac - 0.5) < _UNSURE
    sig = big + (frac > 0.5)
    carry = sig == 10**17  # 99..9.5 rounds up to 1 one decade up
    sig[carry] = 10**16
    return sig, 16 - k + carry, slow


def format_rows(table: np.ndarray) -> bytes:
    """The bytes of ",".join('%.16e' % v for v in row) + "\n" for each row of table."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    step = max(1, _CHUNK_VALUES // table.shape[1])
    return b"".join(_format_chunk(table[lo:lo + step]) for lo in range(0, len(table), step))


def _format_chunk(table: np.ndarray) -> bytes:
    """format_rows for one pass: each value's text, NUL-padded, in a source
    row of seven words, the last its separator; the NULs are dropped."""
    n_rows, n_cols = table.shape
    x = table.ravel()
    sig, expo, slow = digits(x)
    src = np.empty((x.size, 7), dtype=np.uint32)
    lead = sig // 10**15
    rest = sig - lead * 10**15
    middle = rest // 1000  # digits 3-14
    # clip: a slow value's digits may be out of range; its cell is rewritten
    src[:, 0] = _lead_words().take(lead + 100 * np.signbit(x), mode="clip")
    src[:, 4] = _tail_words().take(rest - middle * 1000)
    for col, div in ((1, 10**8), (2, 10**4)):
        top = middle // div
        src[:, col] = _digit_words().take(top)
        middle -= top * div
    src[:, 3] = _digit_words().take(middle)
    src[:, 5] = _exp_words().take(expo + _EXP_MAX)
    seps = np.full(n_cols, _COMMA)
    seps[-1] = _NEWLINE
    src.reshape(n_rows, n_cols, -1)[:, :, 6] = seps
    cells = src.view(np.uint8).reshape(x.size, -1)
    for i in np.flatnonzero(slow):
        text = np.frombuffer(b"%.16e" % x[i], dtype=np.uint8)
        cells[i, :_SLOW_CELL] = 0
        cells[i, :text.size] = text
    return cells.tobytes().translate(None, b"\0")
