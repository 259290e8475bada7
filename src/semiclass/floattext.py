"""The text of float64 arrays as repr writes each element, in numpy passes.

render(a) gives repr(float(v)) of every v of a 1-D float64 array as one row
of a uint8 matrix; strings(texts) and constant(text, rows) give rows of any
other text; join(parts) sets matrices of equal row counts side by side and
reads their text row by row.  A matrix holds each row's text from its left
edge in order, with GAP bytes (0xff, never a byte of UTF-8) where a row has
no character: join deletes them in one pass over the whole block.

Digits (_shortest).  The shortest decimal d 10^k that reads back as the
double c 2^q, the one closest to it among the shortest, is what repr writes
(CPython's float_repr_style "short", David Gay's dtoa mode 0).  It comes
from R. Giulietti's Schubfach ("The Schubfach way to render doubles", 2020;
the algorithm of Java's Double.toString since JDK 19; cf. U. Adams, "Ryu:
fast float-to-string conversion", PLDI 2018): with k = floor(log10 2^q)
(floor(log10 (3/4) 2^q) where the spacing below c 2^q halves), the
candidates are the neighbours of c 2^q 10^-k in the lattices of 10 and 1,
and whether each lies in the rounding interval is decided from three
products c' g(k) 2^-127, rounded to odd, where g(k) is 10^-k to 126 bits.
Each 64 x 128-bit product is built from 32-bit halves in uint64, every
element at once, and g(k) is built in Python integers only for the k a
call meets.  Java writes at least two digits; this variant does not (the
lattice of 10 is tried for every s), so it gives the shortest text, as
repr does.

Layout (_layout), as CPython's format_float_short: with decpt the position
of the decimal point relative to the first digit, the exponent form
d.ddde+XX (exponent signed, at least two digits, no '.' for one digit) iff
decpt <= -4 or decpt > 16; else 0.000ddd, dd.ddd or ddd00.0.  0.0 and -0.0
are rendered directly.

Fallback.  special(float(v)) (repr by default) gives the text of a
non-finite v and of the four values with |v| < 1.5e-323 (3 * 2^-1074),
which Java's Schubfach renders by a step of its own (4.9e-324 for 5e-324)
that this port leaves out; on a Python whose repr is not the shortest form
(sys.float_repr_style != "short") it gives the text of every value.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = ["render", "strings", "constant", "join"]

GAP = 0xFF  # a byte of no text
_GAP = bytes([GAP])

_SHORT = sys.float_repr_style == "short"
_INF = 0x7FF0_0000_0000_0000
_ONE = 0x3FF0_0000_0000_0000  # 1.0, in place of a value the digits do not take
_T_MASK = (1 << 52) - 1
_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1
_K_MIN, _K_MAX = -324, 292  # k = floor(log10 2^q) over the doubles' q
_G1 = np.zeros(_K_MAX - _K_MIN + 1, dtype=np.uint64)  # g(k) // 2^63, 0 until built
_G0 = np.zeros(_K_MAX - _K_MIN + 1, dtype=np.uint64)  # g(k) % 2^63
_P10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_DIGITS = 17  # every double's shortest text has at most 17 digits
_FIXED_EXP = (-4, 16)  # repr's exponent form: decpt <= -4 or decpt > 16
_NO_DOT = np.int16(_DIGITS + 1)  # _layout's '.' position of a number with none after a digit


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| <= 1233 (JDK MathUtils)."""
    return (e * 913_124_641_741) >> 38


def _g(k: int) -> int:
    """g(k) = floor(10^-k 2^-r) + 1, r the integer with 2^125 <= 10^-k 2^-r
    < 2^126: 10^-k to 126 bits, rounded up."""
    r = _flog2pow10(-k) - 125
    if k > 0:
        return (1 << -r) // 10**k + 1
    return (10**-k >> r if r >= 0 else 10**-k << -r) + 1


def _powers(k):
    """(g(k) // 2^63, g(k) % 2^63) for the int64 array k; the table is built
    over the range of k a call meets, each entry once per process."""
    lo, hi = int(k.min()) - _K_MIN, int(k.max()) - _K_MIN
    for i in np.flatnonzero(_G1[lo:hi + 1] == 0) + lo:
        g = _g(int(i) + _K_MIN)
        _G0[i] = g & _M63
        _G1[i] = g >> 63  # last: a thread that sees it nonzero reads a whole entry
    return _G1[k - _K_MIN], _G0[k - _K_MIN]


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of the 128-bit product a b, a and b given as 32-bit
    halves in uint64."""
    mid1, mid2 = a_hi * b_lo, a_lo * b_hi
    mid = ((a_lo * b_lo) >> 32) + (mid1 & _M32) + (mid2 & _M32)
    return a_hi * b_hi + (mid1 >> 32) + (mid2 >> 32) + (mid >> 32)


def _rop(y1, y0, x1):
    """cp g 2^-127 rounded to odd, for g = g1 2^63 + g0, from the words
    y1 2^64 + y0 = g1 cp and the high word x1 of g0 cp (Schubfach, fig. 8)."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(m):
    """(d, k): for the bits m (uint64) of positive finite doubles from
    3 * 2^-1074 up, the shortest d 10^k that rounds to the double, the one
    nearest to it among those, ties to even d (Schubfach, fig. 7)."""
    bq = (m >> 52).astype(np.int64)
    t = m & _T_MASK
    c = t | ((bq > 0).astype(np.uint64) << 52)
    q = np.maximum(bq, 1) - 1075
    irregular = (t == 0) & (bq > 1)  # c = 2^52 above the subnormals: the spacing below halves
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41  # floor(log10 2^q), or of 3/4 2^q
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = _powers(k)
    cp = c << (h + 2)  # 4 c 2^h
    g1_hi, g1_lo, g0_hi, g0_lo, cp_hi, cp_lo = g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32, cp >> 32, cp & _M32
    y1, y0 = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo), g1 * cp
    x1, x0 = _mulhi(g0_hi, g0_lo, cp_hi, cp_lo), g0 * cp
    vb = _rop(y1, y0, x1)
    # the ends of the rounding interval, (4 c + 2) 2^h and (4 c - 2) 2^h
    # ((4 c - 1) 2^h where the spacing below halves): g cp plus or minus
    # g 2^j, the words of g1 2^j and g0 2^j added to those of g1 cp and g0 cp
    j = h + 1
    a1, a0, b1, b0 = g1 >> (64 - j), g1 << j, g0 >> (64 - j), g0 << j
    y0r, x0r = y0 + a0, x0 + b0
    vbr = _rop(y1 + a1 + (y0r < y0), y0r, x1 + b1 + (x0r < x0))
    j = j - irregular
    a1, a0, b1, b0 = g1 >> (64 - j), g1 << j, g0 >> (64 - j), g0 << j
    vbl = _rop(y1 - a1 - (y0 < a0), y0 - a0, x1 - b1 - (x0 < b0))
    vbl += c & 1  # the interval is open where c is odd
    vbr -= c & 1
    s = vb >> 2
    sp10 = (s // 10) * 10  # the neighbours of v in the lattice of 10
    upin, wpin = vbl <= sp10 << 2, (sp10 + 10) << 2 <= vbr
    uin, win = vbl <= s << 2, (s + 1) << 2 <= vbr
    mid = (2 * s + 1) << 1
    nearer_s = (vb < mid) | ((vb == mid) & (s & 1 == 0))
    d = np.where(np.where(uin != win, uin, nearer_s), s, s + 1)
    d = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), d)
    return d, k


def _digits(d, k, out):
    """(n, decpt) of d 10^k (d uint64, from 1 to below 10^17): its 17
    leading digits, padded with 0 on the right, go to the rows of the
    (17, len(d)) uint8 array out, each as its ASCII code plus 1 (_layout);
    n counts them up to the last that is not 0, and decpt is the place of
    the decimal point after the first (int16)."""
    ndig = 16 + (d >= _P10[16])  # a normal double's d has 16 or 17 digits
    few = d < _P10[15]
    if few.any():
        ndig[few] = np.searchsorted(_P10, d[few], side="right")
    d17 = d * _P10.take(_DIGITS - ndig)
    hi = d17 // 10**9
    for part, rows in ((d17 - hi * 10**9, range(16, 7, -1)), (hi, range(7, -1, -1))):
        part = part.astype(np.uint32)
        for i in rows:
            rest = part // 10
            out[i] = part - rest * 10
            part = rest
    n = ((out != 0) * np.arange(1, _DIGITS + 1, dtype=np.uint8)[:, None]).max(axis=0)
    out += 49
    return n, ndig + k


def _layout(neg, chars, n, decpt):
    """The (len(n), width) uint8 matrix of the texts of the numbers with
    sign neg, digits chars (as _digits writes them), n digits up to the
    last that is not 0 and decimal point decpt: CPython's layout of repr.

    A number's text is its sign column, then one of two placements that
    share the columns after it: 0.000ddd ('0', '.', the zeros, then the
    digits), or the digits with the '.' before the digit decpt (dd.ddd) or
    after the first (d.ddde-XX), placed per number, then the exponent.
    Each block of text columns is a block of rows of the transposed matrix,
    the ASCII codes plus 1 times the mask of the numbers that show each
    character, so 0 where one does not; the two placements are added, and
    subtracting 1 from the whole matrix at the end gives the codes, and
    GAP for 0.  So the matrix is as wide as the longest text, but for a
    byte of sign that text may lack, a byte of exponent where 2 and 3
    exponent digits mix, and the zeros that the 0.000ddd text with the most
    zeros has over the one with the most digits."""
    u8 = np.uint8
    expo = (decpt <= _FIXED_EXP[0]) | (decpt > _FIXED_EXP[1])
    fixed = ~expo
    lead0 = fixed & (decpt <= 0)  # 0.000ddd
    inner = fixed & (decpt > 0)
    # the digits a number shows (with the integer part's zeros, and one after
    # its '.'; none of 0.000ddd, placed on their own), and the digit its '.'
    # comes before (_NO_DOT: no '.' after a digit)
    shown = np.where(inner, np.maximum(n, decpt + 1), n * expo).astype(u8)
    dot = np.where(inner, decpt, np.where(expo & (n > 1), np.int16(1), _NO_DOT)).astype(u8)
    nd = int(shown.max())
    dotted = bool((dot < _NO_DOT).any())
    width = nd + dotted
    if expo.any():
        e = np.abs(decpt - 1)
        e3 = bool((e >= 100).any())  # only the exponent form has |decpt - 1| >= 100
        at_e = int((n * expo).max())
        at_e += at_e > 1  # the exponent's column, after every digit and '.'
        width = max(width, at_e + 4 + e3)  # e, its sign and 2 or 3 digits
    if lead0.any():
        z = (-decpt * lead0).astype(u8)  # the zeros after '0.'
        zeros = int(z.max())
        n0 = (n * lead0).astype(u8)
        nd0 = int(n0.max())
        width = max(width, 2 + zeros + nd0)
    sign = int(neg.any())
    out = np.zeros((sign + width, len(n)), dtype=u8)
    if sign:
        np.multiply(neg, u8(46), out=out[0])
    body = out[sign:]
    # digit j at column j, or j + 1 from the '.' on
    j = np.arange(nd, dtype=u8)[:, None]
    np.multiply(chars[:nd], (j < shown).view(u8), out=body[:nd])
    moved = body[:nd] * (j >= dot).view(u8)
    body[:nd] -= moved
    body[1:nd + 1] += moved
    if dotted:
        body[:nd] += (j == dot).view(u8) * u8(47)
    if expo.any():
        ch = np.empty((4 + e3, len(n)), dtype=u8)
        ch[0], ch[1] = 102, np.where(decpt < 1, 46, 44)
        tens = e // 10
        ch[-2], ch[-1] = tens - tens // 10 * 10 + 49, e - tens * 10 + 49
        if e3:
            ch[2] = (e // 100 + 49) * (e >= 100)
        ch *= expo.view(u8)
        body[at_e:at_e + len(ch)] += ch
    if lead0.any():
        body[:2] += lead0.view(u8) * np.array([[49], [47]], dtype=u8)
        body[2:2 + zeros] += (np.arange(zeros, dtype=u8)[:, None] < z).view(u8) * u8(49)
        j = np.arange(nd0, dtype=u8)[:, None]
        body[2 + zeros:2 + zeros + nd0] += chars[:nd0] * (j < n0).view(u8)
    out -= 1
    return out.T


_CHUNK = 8192  # entries per pass of the digit arithmetic, whose temporaries then stay in cache


def render(a, special=repr):
    """repr(float(v)) for every v of the 1-D float64 array a, one row each
    of a (len(a), width) uint8 matrix; special(float(v)) where the kernel
    does not render v (see Fallback above)."""
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)
    size = len(bits)
    if not size:
        return np.empty((0, 0), dtype=np.uint8)
    mag = bits & _M63
    fallback = (mag >= _INF) | (mag - 1 < 2) if _SHORT else np.ones(size, dtype=bool)
    zero = mag == 0
    m = np.where(fallback | zero, _ONE, mag)
    chars = np.empty((_DIGITS, size), dtype=np.uint8)
    n, decpt = np.empty(size, dtype=np.int16), np.empty(size, dtype=np.int16)
    for lo in range(0, size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        n[part], decpt[part] = _digits(*_shortest(m[part]), chars[:, part])
    n[zero], decpt[zero], chars[:, zero] = 1, 1, 49  # 0.0
    text = _layout(bits >> 63 == 1, chars, n, decpt)
    if fallback.any():
        rest = strings([special(v) for v in np.asarray(a, dtype=np.float64)[fallback].tolist()])
        width = max(text.shape[1], rest.shape[1])
        text = np.pad(text, ((0, 0), (0, width - text.shape[1])), constant_values=GAP)
        text[fallback] = GAP
        text[fallback, :rest.shape[1]] = rest
    return text


def strings(texts) -> np.ndarray:
    """The str texts, one row each."""
    enc = [s.encode() for s in texts]
    width = max(map(len, enc), default=0)
    buf = b"".join(s.ljust(width, _GAP) for s in enc)
    return np.frombuffer(buf, dtype=np.uint8).reshape(len(enc), width)


def constant(text: str, rows: int) -> np.ndarray:
    """text on each of rows rows (a read-only view)."""
    enc = np.frombuffer(text.encode(), dtype=np.uint8)
    return np.broadcast_to(enc, (rows, len(enc)))


def join(parts) -> str:
    """The text of the matrices parts, set side by side: row by row, each
    row its parts' text left to right."""
    return np.concatenate(parts, axis=1).tobytes().translate(None, _GAP).decode()
