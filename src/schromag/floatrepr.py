"""repr's text for float64 arrays, from whole-array numpy arithmetic.

`format_rows(table)` returns the bytes of ",".join(map(repr, row)) + "\n"
for every row, without one repr call per value.

A value x takes the fast path when 1e-280 < |x| < 1e280 and x is not a
power of two (whose rounding interval is lopsided).  With k = 16 -
floor(log10|x|), V = |x| * 10^k lies in [1e16, 1e17) and is computed as
a double-double (error ~1e-14 in V's units); the half-ulp of x scaled the
same way is h = 10^k * 2^(e2-54).  Dropping j trailing digits of V, the
nearest multiple of 10^j is within h of V for j = 0 (h > 0.55) and for
every j up to the largest one that works; repr's shortest, nearest digit
string is that multiple.  A value with any rounding decision within
_UNSURE of a tie or of h takes repr instead, as do 0, subnormals, nan,
inf, powers of two and out-of-range magnitudes.
"""

from __future__ import annotations

import functools

import numpy as np

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_K_MIN, _K_MAX = -265, 298  # 16 - floor(log10|x|) on the fast path, one step of slack
_UNSURE = 1e-6  # in V's units: far above V's ~1e-14 error, and hit by ~1 value in 1e6
_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split of a double into 26-bit halves
_ROW = 32  # bytes of one value's source row, see _templates
# source row byte offsets: '0' at 0..2, 17 digits at 3..19, exponent digits
# at 21..23 (20 is '0'), then the constant and separator bytes
_ZERO, _DIGITS, _EXP = 0, 3, 21
_DOT, _MINUS, _E, _PLUS, _NUL, _SEP = 24, 25, 26, 27, 28, 29
_CELL = 25  # 24 bytes hold any float repr, plus its separator
_LAYOUTS = 24  # decpt -3..16 in fixed notation, then exponent sign x width
# values per formatting pass: at 4-8 snapshot rows (8-16k values) the pass's
# temporaries stay in a 2 MB L2 cache, and a snapshot takes ~20% less CPU
# than in whole 32-row blocks
_CHUNK_VALUES = 16384
_INT_POW10 = 10 ** np.arange(18, dtype=np.int64)


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


@functools.cache
def _digit_words() -> np.ndarray:
    """uint32 words holding the 4 ASCII digits of 0..9999, in byte order."""
    d = np.arange(10000)
    chars = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1)
    return (chars + ord("0")).astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _templates() -> np.ndarray:
    """Source-row offsets of each output byte, per (sign, digit count, layout).

    A cell is right-aligned in _CELL bytes, NUL-padded on the left, with
    its separator last.  Layouts follow repr: fixed notation for
    -4 < decpt <= 16 ('.0' when there is no fraction), else d[.ddd]e+XX.
    """
    rows = []
    for neg in (0, 1):
        for nd in range(1, 18):
            digits = list(range(_DIGITS, _DIGITS + nd))
            for layout in range(_LAYOUTS):
                if layout < 20:
                    dp = layout - 3
                    if dp <= 0:
                        body = [_ZERO, _DOT] + [_ZERO] * -dp + digits
                    elif dp < nd:
                        body = digits[:dp] + [_DOT] + digits[dp:]
                    else:
                        body = digits + [_ZERO] * (dp - nd) + [_DOT, _ZERO]
                else:
                    neg_exp, wide = divmod(layout - 20, 2)
                    body = digits[:1] + ([_DOT] + digits[1:] if nd > 1 else [])
                    body += [_E, _MINUS if neg_exp else _PLUS] + list(range(_EXP + 1 - wide, _EXP + 3))
                body = [_MINUS] * neg + body
                rows.append([_NUL] * (_CELL - 1 - len(body)) + body + [_SEP])
    return np.array(rows, dtype=np.intp)


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


def _near_multiple(big, frac, h, q: int):
    """Whether V = big + frac is within h of a multiple of q, and whether
    that distance is within _UNSURE of h (too close to call)."""
    r = big - big // q * q
    d = np.minimum(r + frac, (q - r) - frac)
    return d < h, np.abs(d - h) < _UNSURE


def shortest_digits(x: np.ndarray):
    """repr's digits of each float64 in x, and the values repr must format.

    Returns (sig, ndigits, decpt, slow): x = 0.d1d2...dn * 10^decpt with
    d1..dn the ndigits leading digits of the 17-digit sig (zero-padded on
    the right), and slow marking the values left to repr.  The entries
    of sig, ndigits and decpt are meaningless where slow is set.
    """
    a = np.abs(x)
    slow = ~((a > _FAST_MIN) & (a < _FAST_MAX))
    a[slow] = 1.5  # any fast-path value, to keep the arithmetic quiet
    mant, e2 = np.frexp(a)
    slow |= mant == 0.5
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    big, frac = _scaled(a, k)
    off = np.flatnonzero((big < 10**16) | (big >= 10**17))
    if off.size:  # log10 was off by one: rescale once
        k[off] += np.where(big[off] < 10**16, 1, -1)
        big[off], frac[off] = _scaled(a[off], k[off])
        slow[off[(big[off] < 10**16) | (big[off] >= 10**17)]] = True
    h = np.ldexp(_pow10()[0].take(k - _K_MIN), e2 - 54)
    # cut = trailing digits dropped: the largest j whose nearest multiple
    # of 10^j is within h of V (j = 0 always is, as h > 0.55)
    within, unsure = _near_multiple(big, frac, h, 10)
    slow |= unsure
    live = np.flatnonzero(within & ~slow)
    cut = np.zeros(x.size, dtype=np.int64)
    cut[live] = 1
    for j in range(2, 17):
        within, unsure = _near_multiple(big[live], frac[live], h[live], 10**j)
        slow[live[unsure]] = True
        live = live[within & ~unsure]
        if not live.size:
            break
        cut[live] = j
    q = _INT_POW10.take(cut)
    r = big - big // q * q
    rem = r + frac
    half = q / 2
    slow |= np.abs(rem - half) < _UNSURE
    sig = big - r + (rem > half) * q
    carry = sig == 10**17  # 99..9.5 rounds up to 1 one decade up
    sig[carry] = 10**16
    ndigits = np.where(carry, 1, 17 - cut)
    return sig, ndigits, 17 - k + carry, slow


def format_rows(table: np.ndarray) -> bytes:
    """The bytes of ",".join(map(repr, row)) + "\n" for each row of table."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    step = max(1, _CHUNK_VALUES // table.shape[1])
    return b"".join(_format_chunk(table[lo:lo + step]) for lo in range(0, len(table), step))


def _format_chunk(table: np.ndarray) -> bytes:
    """format_rows for one pass: each value's digits, exponent digits and
    constants go into a 32-byte source row, and its cell is gathered from
    that row through the template of its layout class."""
    n_rows, n_cols = table.shape
    x = table.ravel()
    sig, ndigits, decpt, slow = shortest_digits(x)
    words = _digit_words()
    src = np.empty((x.size, _ROW // 4), dtype=np.uint32)
    top = sig // 10**16
    rest = sig - top * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    src[:, 0] = words.take(top)
    for col, part in ((1, upper), (3, lower)):
        c = part // 10**4
        src[:, col] = words.take(c)
        src[:, col + 1] = words.take(part - c * 10**4)
    expo = decpt - 1
    src[:, 5] = words.take(np.abs(expo))
    src[:, 6] = _word(b".-e+")
    seps = np.full(n_cols, _word(b"\0,\0\0"), dtype=np.uint32)
    seps[-1] = _word(b"\0\n\0\0")
    src.reshape(n_rows, n_cols, -1)[:, :, 7] = seps
    layout = np.where((decpt > -4) & (decpt <= 16), decpt + 3,
                      20 + 2 * (expo < 0) + (np.abs(expo) >= 100))
    cls = (np.signbit(x) * 17 + ndigits - 1) * _LAYOUTS + layout
    cls[slow] = 0  # any template; the cell is rewritten below
    offsets = _templates().take(cls, axis=0)
    offsets += np.arange(0, x.size * _ROW, _ROW)[:, None]
    cells = src.view(np.uint8).ravel().take(offsets, mode="clip")
    for i in np.flatnonzero(slow):
        text = repr(float(x[i])).encode()
        cells[i, : _CELL - 1] = 0
        cells[i, _CELL - 1 - len(text): _CELL - 1] = np.frombuffer(text, dtype=np.uint8)
    return cells.tobytes().translate(None, b"\0")


def _word(four: bytes) -> np.uint32:
    return np.frombuffer(four, dtype=np.uint32)[0]
