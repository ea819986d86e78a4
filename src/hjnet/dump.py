"""The CSV dump's bytes: an exact %.17g writer and a numpy reader.

Numbers are written with 17 significant digits, byte for byte Python's
%.17g, so dumps are byte-stable across runs and round-trip exactly.  numpy
makes the digits (_g17): |x| 10^(16 - E) from a double-double product is
exact to about 1e-14, so its nearest integer is the 17 digits; Python's
format writes only the values whose rounding that cannot settle (near
ties, a log10 one off, a carry to the next power of ten) and nan, inf and
nonzero |x| outside 1e-280..1e280.  The reader parses the u column in
numpy too (_parse_u): a text's digits make an integer D < 10^18, and D 10^q
from the same product rounds to the nearest double unless that is within
1e-6 ulp of a tie.  np.loadtxt reads the texts that cannot settle (ties,
over 18 digits, |x| off the table, anything but
[-]digits[.digits][e(+|-)dd[d]]), so every value is the one np.loadtxt
gives, which is float()'s for every text the writer or repr makes.
write_table writes a file; _read_u_blocks reads one.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError

__all__ = ["write_table"]

_CHUNK = 1 << 18        # bytes per read of the dump layout scan
_WRITE_CELLS = 1 << 12  # values per block of the CSV writer (about 1 MB)
_READ_ROWS = 1 << 13    # values per block of the u column's parser
_U_WIDTH = 24           # bytes of a comma and -0.00012345678901234567, the
                        # longest mantissa of a %.17g text

# The window of |x| on which _g17 makes the digits: the split of |x| and of
# 10^(16 - E) stays clear of overflow and of subnormals on it.
_G17_LO, _G17_HI = 1e-280, 1e280
_G17_E0 = -281          # the lowest floor(log10 |x|) in the window's tables
_SPLIT = 134217729.0    # 2^27 + 1, Dekker's splitter of a double
_G17_WIDTH = 29         # sign, "0.000", 17 digits and a point, "e-281"
_G17_TABLES = {}        # _g17's constant tables, built at the first write


def _fmt(x):
    return format(float(x), ".17g")


def _g17_tables():
    """_g17's constant tables, filled once.

    Per decimal exponent E (row E - _G17_E0): 10^(16 - E) as the pair
    hi + lo (hi the double nearest it and lo the double nearest the rest,
    from integers, where int / int rounds correctly) with hi's Dekker halves;
    the %g layout's fixed characters on a 32-byte line (``0.`` and zeros
    at bytes 1-5 for E in -4..-1, the exponent ``e+XX`` at bytes 24-28
    when E < -4 or E >= 17); the digits that layout always shows (the
    integer part, else one or none); and where the point goes among the
    digits (18: before them).  Then the four ASCII digits of 0..9999 as one
    uint32 (index 10000: four NULs), their trailing zeros, and the masks of
    bytes 6 to 6 + c - 1 of a line for c = 0..18.  For the reader, the
    masks of bytes c.. of a _U_WIDTH-byte window for c = 0.._U_WIDTH, as
    little-endian uint64 words.
    """
    if _G17_TABLES:
        return _G17_TABLES
    es = range(_G17_E0, -_G17_E0 + 1)
    pairs = np.zeros((len(es), 4))
    text = bytearray(32 * len(es))
    whole = np.zeros(len(es), np.int8)
    point = np.zeros(len(es), np.int8)
    for j, e in enumerate(es):
        k = 16 - e
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        a, b = (num / den).as_integer_ratio()
        pairs[j, [0, 3]] = a / b, (num * b - a * den) / (den * b)
        if -4 <= e < 0:
            lead = b"0." + b"0" * (-e - 1)
            text[32 * j + 1:32 * j + 1 + len(lead)] = lead
            point[j] = 18
        elif 0 <= e < 17:
            whole[j] = point[j] = e + 1
        else:
            tail = f"e{e:+03d}".encode()
            text[32 * j + 24:32 * j + 24 + len(tail)] = tail
            whole[j] = point[j] = 1
    t = pairs[:, 0] * _SPLIT
    pairs[:, 1] = t - (t - pairs[:, 0])
    pairs[:, 2] = pairs[:, 0] - pairs[:, 1]
    # broadcast copies, not arithmetic on 10^4-long arrays: the first run
    # of a numpy loop maps its code, and its temporaries stay in the heap
    digits = np.zeros((10001, 4), np.uint8)
    zeros = np.zeros(10000, np.int8)
    ascii = np.arange(48, 58, dtype=np.uint8)
    by_digit = digits[:10000].reshape(10, 10, 10, 10, 4)
    by_digit[..., 0] = ascii[:, None, None, None]
    by_digit[..., 1] = ascii[:, None, None]
    by_digit[..., 2] = ascii[:, None]
    by_digit[..., 3] = ascii
    for j in range(1, 5):   # the numbers whose last j digits are 0
        zeros.reshape(10 ** (4 - j), 10 ** j)[:, 0] = j
    band = np.zeros((19, 32), np.uint8)
    for c in range(19):
        band[c, 6:6 + c] = 255
    tail = np.zeros((_U_WIDTH + 1, _U_WIDTH), np.uint8)
    for c in range(_U_WIDTH):
        tail[c, c:] = 255
    _G17_TABLES.update(pairs=pairs, whole=whole, point=point,
                       text=np.frombuffer(text, np.uint8).reshape(-1, 32),
                       digits=digits.view(np.uint32).ravel(), zeros=zeros,
                       band=band, tail=tail.view("<u8"))
    return _G17_TABLES


def _scaled(a, row):
    """a 10^k as p + e for each value a of a float array, 10^k being the pair
    hi + lo at _g17_tables() row ``row`` (k = 16 - E at row E - _G17_E0).

    p = fl(a hi), and e is the exact rounding error of that product
    (Dekker's two-product) plus a lo, good to within |a| times the rounding
    error of a lo.  Also returns hi.
    """
    hi, hh, hl, lo = _g17_tables()["pairs"].take(row, axis=0).T
    p = a * hi
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    e = ah * hh
    e -= p
    e += ah * hl
    e += al * hh
    e += al * hl
    e += a * lo
    return p, e, hi


def _g17(x):
    """The text of format(v, '.17g') for each value v of a float array, as an
    (n, _G17_WIDTH) uint8 array: row i holds the ASCII bytes of v_i in
    order, with NUL bytes between and after them (drop the NULs to get the
    text).

    For 1e-280 <= |v| <= 1e280, with E = floor(log10 |v|) and k = 16 - E,
    the 17 significant digits are the integer D nearest |v| 10^k.  Holding
    10^k as hi + lo, p = fl(|v| hi) is an integer and the exact rounding
    error of that product (Dekker's two-product) plus |v| lo gives the rest
    e to within about 1e-14, so D = p + rint(e) exactly.  Python's format
    writes a value instead when the rounding is a near or exact tie
    (| |e - rint(e)| - 0.5 | <= 1e-6), when D falls outside [1e16, 1e17)
    or reaches 1e16 from below (log10 one off, or a carry to the next
    power of ten), and for nan, inf and values outside the window.  0 and
    -0 are written as the digit 0.  The digits come from a 4-digit table
    and take %g's layout: exponent form iff E < -4 or E >= 17, trailing
    zeros and a bare point dropped, a signed exponent of two or three
    digits.
    """
    tb = _g17_tables()
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    a = np.abs(x)
    zero = a == 0
    aw = np.fmin(np.fmax(a, _G17_LO), _G17_HI)     # nan -> _G17_LO
    fallback = a != aw
    fallback &= ~zero
    aw += zero                                      # 0 -> 1 (LO + 1 == 1)
    row = np.log10(aw)
    np.floor(row, out=row)
    row -= _G17_E0
    row = row.astype(np.intp)
    p, e, _ = _scaled(aw, row)
    r = np.rint(e)
    e -= r
    D = p.astype(np.int64)
    D += r.astype(np.int64)
    fallback |= np.abs(np.abs(e) - 0.5) <= 1e-6
    fallback |= (D - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16
    fallback |= (D == 10 ** 16) & (e < 0)
    # the 17 digits: d0 at byte 7, groups of four after it, NULs at 24-31
    q = D // 10 ** 8
    low = D - q * 10 ** 8
    g0 = q // 10 ** 8
    q -= g0 * 10 ** 8
    g1 = q // 10 ** 4
    g3 = low // 10 ** 4
    groups = (g0, g1, q - g1 * 10 ** 4, g3, low - g3 * 10 ** 4)
    digits = np.zeros((n, 8), np.uint32)
    for j, g in enumerate(groups, 1):
        digits[:, j] = tb["digits"].take(g)
    # trailing zeros of D (at most 16, since d0 > 0)
    zeros = tb["zeros"]
    tz = zeros.take(groups[4]).astype(np.intp)
    rows = np.flatnonzero(tz == 4)
    for g in groups[3:0:-1]:
        if not rows.size:
            break
        z = zeros.take(g[rows])
        tz[rows] += z
        rows = rows[z == 4]
    # digits shown: all but the trailing zeros, and never fewer than the
    # integer part's; the body's bytes add the point when a digit follows it
    keep = np.maximum(17 - tz, tb["whole"].take(row))
    point = tb["point"].take(row)
    cut = keep + (keep > point)
    # byte 6 + j of a line: digit j left of the point (A), the point, digit
    # j - 1 right of it (B), then nothing from byte 6 + cut on
    flat = digits.view(np.uint8).ravel()
    A, B = flat[1:], flat[:-1]
    body = A ^ B
    body &= tb["band"].take(point, axis=0).ravel()[:-1]
    body ^= B
    body[np.arange(6, 32 * n, 32) + point] = 46
    body &= tb["band"].take(cut, axis=0).ravel()[:-1]
    out = tb["text"].take(row, axis=0)
    out.ravel()[:-1] |= body
    out[:, 0] = np.signbit(x) * np.uint8(45)
    out[:, 6] -= zero
    for i in np.flatnonzero(fallback).tolist():
        text = _fmt(x[i]).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out[:, :_G17_WIDTH]


def _text_cells(texts):
    """NUL-padded ASCII/UTF-8 byte rows of the given strings, (n, width)."""
    cells = np.array([t.encode() for t in texts], dtype="S")
    return cells.view(np.uint8).reshape(len(texts), -1)


def _write_lines(fh, cells, u):
    """Write one CSV line per value of the 2-D array u: its cells, then the
    value's %.17g text and a newline.

    Each cell is a (rows, 1, w), (1, cols, w) or (1, 1, w) array of
    NUL-padded text ending in its comma: one per row of u, per column, or
    one for all.  Blocks of at most _WRITE_CELLS values are laid out on one
    canvas, the per-column cells put down once, and written with the NULs
    dropped.
    """
    R, C = u.shape
    rows = max(1, _WRITE_CELLS // C)
    width = sum(c.shape[2] for c in cells)
    canvas = np.zeros((min(rows, R), C, width + _G17_WIDTH + 1), np.uint8)
    canvas[:, :, -1] = 10
    per_row, at = [], 0
    for c in cells:
        if len(c) == 1:
            canvas[:, :, at:at + c.shape[2]] = c
        else:
            per_row.append((at, c))
        at += c.shape[2]
    for r0 in range(0, R, rows):
        block = canvas[:min(rows, R - r0)]
        for at_c, c in per_row:
            block[:, :, at_c:at_c + c.shape[2]] = c[r0:r0 + len(block)]
        block[:, :, width:-1] = _g17(u[r0:r0 + len(block)]).reshape(
            len(block), C, _G17_WIDTH)
        fh.write(block[block != 0].tobytes().decode())


def write_table(path, header, blocks):
    """Write a CSV file: the header line, then for each (cells, u) block of
    blocks one line per value of the 2-D array u (_write_lines).  A cell
    given as a string is one text for every line of its block, its comma
    added."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for cells, u in blocks:
            _write_lines(fh, [_text_cells([c + ","])[None]
                              if isinstance(c, str) else c for c in cells], u)


def _read_u_blocks(path, kind, ids, size, ends):
    """The u column of a dump, split into one block of ``size`` values per
    id; the file must hold exactly ``ids`` (of ``kind``, named in errors),
    each in one contiguous run whose first and last rows hold the grid
    nodes ``ends`` (the text between the id and u).  One chunked scan
    (_scan_runs) checks the layout and parses u; after the layout checks,
    one np.loadtxt call (_read_slow) reads the texts _parse_u cannot settle.
    LF, CRLF and CR end a line, as in a text-mode read."""
    ids = set(ids)
    u = np.empty(len(ids) * size)
    cols, runs, slow = _scan_runs(path, u)
    seen = set()
    for key, *_ in runs:
        if key in seen:
            raise ValidationError(
                f"{path}: rows of {kind} {key!r} are not contiguous")
        if key not in ids:
            raise ValidationError(f"{path}: unknown {kind} {key!r}")
        seen.add(key)
    missing = sorted(ids - seen)
    if missing:
        raise ValidationError(f"{path}: {kind} {missing[0]!r} is missing")
    for key, n, got in runs:
        if n != size:
            raise ValidationError(
                f"{path}: {kind} {key!r} has {n} rows, expected {size}")
        if got != ends:
            raise ValidationError(
                f"{path}: {kind} {key!r} runs from {cols} = {got[0]} to "
                f"{got[1]}, but the grid from {ends[0]} to {ends[1]}")
    if slow:
        _read_slow(path, u, slow)
    return {key: u[j * size:(j + 1) * size]
            for j, (key, *_) in enumerate(runs)}


def _loadtxt(lines):
    return np.loadtxt(lines, delimiter=",", usecols=-1, ndmin=1,
                      comments=None)


def _read_slow(path, u, slow):
    """Set u at the rows of slow, (row, line) pairs, to np.loadtxt's value
    of each line's last cell; a cell it cannot read raises its message,
    which names the row (from 0, after the header) and column in the file."""
    rows, lines = zip(*slow)
    try:
        try:
            u[list(rows)] = _loadtxt(list(lines))
        except ValueError:
            # once more over every row, the others as "0", for the row number
            every = ["0"] * u.size
            for row, line in slow:
                every[row] = line
            _loadtxt(every)
            raise
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e


def _scan_runs(path, u):
    """The header's cells and the runs of equal ids of a CSV file: (id,
    rows, (first row's cells, last row's cells)) per run, in file order.

    A row's id is its text up to the first comma (a row with no comma is
    its own id, newline included), as ``str.partition`` cuts it.  Only the
    first and last row of a run are decoded.  The same pass reads the last
    cell of data row i into u[i] by _parse_u, _READ_ROWS rows at a time
    (rows past the end of u are not read); it returns the (row, line)
    pairs of the rows _parse_u leaves to np.loadtxt as well.
    """
    runs, head, slow, n = [], None, [], 0
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            first = _U_WIDTH        # where the block's first data line starts
            if head is None and len(block) > first:
                first = block.find(b"\n", first) + 1 or len(block)
                head = block[_U_WIDTH:first]
            if len(block) == first:
                continue
            a, start, end = _add_runs(runs, block, first)
            windows = sliding_window_view(a, _U_WIDTH)
            for i in range(0, min(end.size, u.size - n), _READ_ROWS):
                j = min(i + _READ_ROWS, u.size - n, end.size)
                bad = _parse_u(windows, end[i:j], u[n + i:n + j])
                slow += [(n + k, a[start[k]:end[k]].tobytes().decode())
                         for k in (np.flatnonzero(bad) + i).tolist()]
            n += end.size
    return _cells((head or b"").decode()), [
        (key.decode(), n, (_cells(first.decode()), _cells(last.decode())))
        for key, n, first, last in runs], slow


def _line_blocks(fh):
    """A binary file as blocks of whole lines, each behind _U_WIDTH NUL
    bytes (the room _parse_u's windows need), read _CHUNK bytes at a time
    and checked as a text-mode read checks them: the bytes must be UTF-8
    (ValidationError naming the file otherwise), and CRLF and CR end a line
    as LF does.  Only the last block may lack its final newline."""
    tail, last = [], False  # the pieces of a line no chunk has ended yet
    while not last:
        chunk = fh.read(_CHUNK)
        cut = chunk.rfind(b"\n") + 1
        if chunk and not cut:
            tail.append(chunk)
            continue
        block = b"".join([bytes(_U_WIDTH), *tail, memoryview(chunk)[:cut]])
        # drop the chunk: the caller holds the block while this waits
        tail, last, chunk = [chunk[cut:]], not chunk, None
        if not block.isascii():
            try:
                block[_U_WIDTH:].decode()
            except UnicodeDecodeError as e:
                raise ValidationError(f"{fh.name}: {e}") from e
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        yield block


def _add_runs(runs, block, first):
    """Extend runs with the lines of block from the index first on; a first
    line whose id is that of the last run continues it.

    Returns the block as a uint8 array, and where each line starts in it
    and where its text ends: at its newline, or at the 0xff put after a
    last line that lacks one.
    """
    # 0xff, which UTF-8 never holds, ends a last line without its newline
    whole = block.endswith(b"\n")
    a = np.frombuffer(block if whole else block + b"\xff", dtype=np.uint8)
    end = np.flatnonzero(a[first:] == 10) + first
    stop = end + 1          # past each line, without the 0xff
    if not whole:
        end = np.append(end, a.size - 1)
        stop = np.append(stop, a.size - 1)
    start = np.concatenate(([first], end[:-1] + 1))
    # line i + 1 starts a run unless its id equals line i's: walk the two
    # lines byte by byte until they differ or both reach a comma or newline
    new = np.zeros(start.size - 1, dtype=bool)
    pairs, i, j = np.arange(start.size - 1), start[:-1], start[1:]
    while pairs.size:
        x, y = a[i], a[j]
        same = x == y
        new[pairs[~same]] = True
        same &= (x != 44) & (x != 10)
        pairs, i, j = pairs[same], i[same] + 1, j[same] + 1
    firsts = np.concatenate(([0], np.flatnonzero(new) + 1)).tolist()
    lasts = [f - 1 for f in firsts[1:]] + [start.size - 1]
    for f, last in zip(firsts, lasts):
        first = a[start[f]:stop[f]].tobytes()
        key = first.partition(b",")[0]
        row = a[start[last]:stop[last]].tobytes()
        if f == 0 and runs and runs[-1][0] == key:
            runs[-1][1] += last + 1
            runs[-1][3] = row
        else:
            runs.append([key, last - f + 1, first, row])
    return a, start, end


def _parse_u(windows, end, out):
    """Read into out the double of the text that ends at each index of end
    in a byte array, and return the mask of the texts left to np.loadtxt,
    whose out values are 0.  windows[i] is the array's _U_WIDTH bytes from
    i on, and each end is at least _U_WIDTH.

    A text is read when it follows a comma and reads [-]digits[.digits]
    [e(+|-)dd[d]], with a digit in the mantissa and at most 18 significant
    digits: the exponent from the bytes before the end, then the mantissa
    from the _U_WIDTH bytes before the exponent's e, or before the end, as
    an integer D < 10^18 (_mantissas).  The value is D 10^q: D as a + b
    (a = fl(D), b the exact rest), a 10^q as p + e from _scaled, and
    e + b hi its rest to within about 1e-30 relative, so x = fl(p + e) is
    the double nearest D 10^q unless that is within 1e-6 ulp of a tie: a
    half ulp from x, or a quarter below an x that is a power of two.  Ties,
    other texts, and q outside -265..262 go to np.loadtxt.
    """
    W = windows[end - _U_WIDTH]
    slow = np.zeros(end.size, bool)
    ex = _exponents(W, windows, end, slow)
    D, q, neg = _mantissas(W, slow)
    q += ex
    # 10^q on the table, and D 10^q below 1e280 for every D < 10^18
    slow |= (q < 16 + _G17_E0) | (q > 262)
    D *= ~slow
    q *= ~slow
    a = D.astype(np.float64)
    p, e, hi = _scaled(a, 16 - _G17_E0 - q)
    e += (D - a.astype(np.int64)) * hi
    x = np.add(p, e, out=out)
    r = p - x
    r += e
    np.abs(r, out=r)
    half = (x.view(np.uint64) & 0x7FF0000000000000).view(np.float64)
    half *= 2.0 ** -53                  # half an ulp of x
    slow |= np.abs(r - half) < 2e-6 * half
    slow |= ((np.abs(r - 0.5 * half) < 2e-6 * half)
             & (x.view(np.uint64) << 12 == 0))  # x a power of two
    np.negative(x, out=x, where=neg)
    return slow


def _exponents(W, windows, end, slow):
    """The exponents of the rows of W that end in e+dd, e-dd or e(+|-)ddd,
    0 for the others; those rows then take the window that ends at their e,
    and slow marks those whose sign or digits are not ASCII."""
    ex = np.zeros(end.size, np.int64)
    e4 = W[:, -4] == 101
    rows = np.flatnonzero(e4 | (W[:, -5] == 101))
    if rows.size:
        k = 5 - e4[rows]                # bytes from the e to the end
        X = W[rows, -5:].astype(np.int64) - 48
        sign = X[np.arange(rows.size), 6 - k]
        X[:, 2] *= k == 5
        value = X[:, 2] * 100 + X[:, 3] * 10 + X[:, 4]
        ex[rows] = np.where(sign == ord("-") - 48, -value, value)
        slow[rows] = ~(((sign == ord("-") - 48) | (sign == ord("+") - 48))
                       & ((X[:, 2:] >= 0) & (X[:, 2:] < 10)).all(1))
        W[rows] = windows[end[rows] - k - _U_WIDTH]
    return ex


def _mantissas(W, slow):
    """(D, q, negative) of each row of W read as [-]digits[.digits] after a
    comma, the value being D 10^q; slow marks the rows not of that form or
    with D >= 10^18.  W is overwritten.

    The rightmost non-digits are found from a bit mask per row: the point,
    then the sign or the comma.  The digits after them, the integer part
    moved one byte right over the point, make D by SWAR arithmetic, 8
    digits to a uint64.
    """
    n = W.shape[0]
    m = _nondigits(W)
    flat = W.ravel()
    at = np.arange(0, n * _U_WIDTH, _U_WIDTH)
    j1 = _top_bit(m)
    point = flat.take(at + j1) == ord(".")
    j2 = _top_bit(m ^ (point << j1))    # the sign or the comma
    neg = flat.take(at + j2) == ord("-")
    comma = np.maximum(j2 - neg, 0)     # at -1: the text fills the window
    slow |= flat.take(at + comma) != ord(",")
    slow |= j2 + point >= _U_WIDTH - 1  # no digit
    # the digits after j2, the point (or j2 itself) as a 0; L those before
    # the point, which move one byte right
    flat.put(at + j1, ord("0"))
    W -= ord("0")
    tail = _g17_tables()["tail"]
    V = W.view("<u8") & tail.take(j2 + 1, axis=0)
    L = V & ~tail.take(j1, axis=0)
    V ^= L
    V.ravel()[1:] |= L.ravel()[:-1] >> 56  # byte 23 of a row is never in L
    L <<= 8
    V |= L
    V *= 2561                           # 10 * 256 + 1: digit pairs
    V >>= 8
    V &= 0x00FF00FF00FF00FF
    V *= 6553601                        # 100 * 2^16 + 1: groups of four
    V >>= 16
    V &= 0x0000FFFF0000FFFF
    V *= 42949672960001                 # 10^4 * 2^32 + 1: groups of eight
    V >>= 32
    slow |= V[:, 0] >= 100              # D >= 10^18
    D = V[:, 0] * 10 ** 16
    D += V[:, 1] * 10 ** 8
    D += V[:, 2]
    return D.view(np.int64), point * (j1 - (_U_WIDTH - 1)), neg


def _nondigits(W):
    """Bit j of row i set where byte j of W[i] is not an ASCII digit."""
    bits = ((W - np.uint8(48)) >= 10).view("<u8") * np.uint64(
        0x0102040810204080)             # bit j of word w: byte 8w + j
    bits >>= 56
    bits = bits.view(np.int64)
    return bits[:, 0] | bits[:, 1] << 8 | bits[:, 2] << 16


def _top_bit(m):
    """The index of the highest set bit of each int of m (below 2^53), or
    0 where m is 0."""
    return np.maximum((m.astype(np.float64).view(np.int64) >> 52) - 1023, 0)


def _cells(line):
    """The text of a CSV line between its first and last comma."""
    return line.partition(",")[2].rpartition(",")[0]
