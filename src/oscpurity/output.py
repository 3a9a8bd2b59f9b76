"""Every artifact the package writes, formatted in one place.

CSV files go through write_csv, whose numpy formatter prints floats byte for
byte as Python's "%.16e" % v.  The layouts written by more than one command
(trajectories, Markovianity series, log-log slopes) are defined here once, as
are the schema-1 summaries: summarize for one scenario run, emit for stdout,
and write_json for the summary files.
"""

import functools
import json
import os

import numpy as np

from .errors import ConfigError
from .model import classify_regime, normal_mode_sq, perturbativity_gp

#: Version of every summary record.
SCHEMA = 1

#: Float format of CSV output: 17 significant digits.
FMT = "%.16e"

#: sigma entries of the trajectory CSV: the S block, the E block, then the
#: S-E cross block.
_CSV_ENTRIES = (
    (0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3), (0, 2), (0, 3), (1, 2), (1, 3)
)

#: Rows formatted per block by write_csv, which bounds its temporaries.
_CSV_ROWS = 1024

#: Half-width of the bands the formatter leaves to Python's %: around a
#: rounding tie, where its scaled value (error at most ~2^-47) cannot decide.
_TIE = 2.0**-40

#: Powers 10^k of the formatter's table: k = 16 - floor(log10|x|) for
#: 1e-250 <= |x| <= 1e250, with slack for the exponent retry.
_POW10_K = range(-236, 269)


@functools.cache
def _fmt_tables():
    """10^k as double-double hi + lo for k in _POW10_K, from exact integers,
    as (hi, its Veltkamp halves, lo); the digits 0000-9999 as ASCII in
    little-endian uint32 words; and the two words "e+dd" / "e-ddd" of each
    decimal exponent 16 - k."""
    hi, lo = [], []
    for k in _POW10_K:
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den  # int / int is correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    d = np.arange(10000)
    ascii4 = 48 + np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], 1)
    hi = np.array(hi)
    pow10 = (hi, *_split(hi), np.array(lo))
    exps = [b"e%+03d" % (16 - k) for k in _POW10_K]
    exps = np.array(exps, dtype="S8").view("<u4").reshape(-1, 2).T.copy()
    return pow10, (ascii4 << [0, 8, 16, 24]).sum(1).astype("<u4"), exps


def _split(a):
    """Veltkamp split of doubles into 26- and 27-bit halves."""
    c = 134217729.0 * a
    h = c - (c - a)
    return h, a - h


def _scaled(a, e10, pow10):
    """Integer part n and fraction of a * 10^(16 - e10), exact to ~2^-47 by
    Dekker's two-product with the table's high part plus a times its low
    part, and -1, 0 or +1 as it lies below, in or above [1e16, 1e17); within
    _TIE of a bound both decades print the same digits, so it is inside."""
    k = 16 - _POW10_K.start - e10
    hi, hh, hl, lo = (t[k] for t in pow10)
    p = a * hi
    ah, al = _split(a)
    y = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    f = np.floor(y)
    n, frac = p.astype(np.int64) + f.astype(np.int64), y - f
    below = n + (frac > 1.0 - _TIE) < 10**16
    return n, frac, (n - (frac < _TIE) >= 10**17).astype(np.int64) - below


def _fmt_e16(x):
    """'%.16e' fields of a float array as (n, 7) uint32 words, NUL padded:
    [NUL, sign, digit, '.'], 16 digits, ['e', sign, exponent...], plus the
    mask of values the words cannot be trusted for: non-finite, |x| outside
    [1e-250, 1e250] but not zero, or within _TIE of a rounding tie."""
    pow10, ascii4, exps = _fmt_tables()
    a = np.abs(x)
    zero = a == 0.0
    slow = ~((a >= 1e-250) & (a <= 1e250) | zero)
    # A zero is formatted as 1.0 with the leading digit 0: +-0.000...0e+00.
    a[slow | zero] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.int64)
    n, frac, step = _scaled(a, e10, pow10)
    # log10 can be one decade off.  The scaled value decides, not the
    # rounded mantissa, which can hide a value below 1e16.
    redo = np.flatnonzero(step)
    if redo.size:
        e10[redo] += step[redo]
        n[redo], frac[redo], step[redo] = _scaled(a[redo], e10[redo], pow10)
    slow |= (step != 0) | (np.abs(frac - 0.5) < _TIE)
    m = n + (frac > 0.5)
    top = m == 10**17
    m[top] = 10**16
    e10 += top
    lead, m = np.divmod(m, 10**16)
    lead[zero] = 0
    q, r = np.divmod(m, 10**8)
    w = np.empty((len(x), 7), "<u4")
    w[:, 0] = np.where(np.signbit(x), 0x2E002D00, 0x2E000000) | (48 + lead) << 16
    w[:, 1], w[:, 2] = ascii4[q // 10000], ascii4[q % 10000]
    w[:, 3], w[:, 4] = ascii4[r // 10000], ascii4[r % 10000]
    k = 16 - _POW10_K.start - e10
    w[:, 5], w[:, 6] = exps[0][k], exps[1][k]
    return w, slow


def _text(fmt, values):
    """Values formatted by Python's % as a NUL-padded bytes array."""
    return np.array([(fmt % v).encode() for v in values], dtype="S")


def _put_text(b, rows, cols, t):
    """Write a bytes array into the NUL-padded byte fields b[rows, cols]."""
    b[rows, cols, :-1] = 0
    b[rows, cols, : t.itemsize] = t.view(np.uint8).reshape(len(t), t.itemsize)


def _csv_block(columns, formats):
    """CSV rows of equal-length column slices: each column a fixed-width,
    NUL-padded byte field ending in its separator; the NULs are dropped."""
    rows = len(columns[0])
    fast = np.array([j for j, f in enumerate(formats) if f == FMT], dtype=int)
    x = np.empty((rows, fast.size))
    for i, j in enumerate(fast):
        x[:, i] = columns[j]
    words, slow = _fmt_e16(x.ravel())
    texts = {
        j: _text(f, columns[j].tolist()) for j, f in enumerate(formats) if f != FMT
    }
    width = max([27] + [t.itemsize for t in texts.values()])
    buf = np.zeros((rows, len(columns), width // 4 + 1), "<u4")
    buf[:, fast, :7] = words.reshape(rows, fast.size, 7)
    b = buf.view(np.uint8)
    for j, t in texts.items():
        _put_text(b, slice(None), j, t)
    r, c = np.nonzero(slow.reshape(rows, fast.size))
    if r.size:
        _put_text(b, r, fast[c], _text(FMT, x[r, c].tolist()))
    b[:, :, -1] = ord(",")
    b[:, -1, -1] = ord("\n")
    return b[b != 0].tobytes().decode()


def out_dir(path):
    """The file paths of an output directory, checked now and created on
    first use, so that a run which fails before writing leaves none behind.

    Returns:
        out(name): the path of file name in the directory, which out
        creates (with its parents) if it does not exist yet.

    Raises:
        ConfigError: naming path if it is empty, or it or its nearest
            existing parent is not a directory; from out, if the directory
            cannot be created.
    """
    head = path
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if not path or (head and not os.path.isdir(head)):
        raise ConfigError("output directory %r: %r is not a directory" % (path, head))

    def out(name):
        if not os.path.isdir(path):
            try:
                os.makedirs(path, exist_ok=True)
            except OSError as exc:
                raise ConfigError("output directory %r: %s" % (path, exc.strerror))
        return os.path.join(path, name)

    return out


def write_csv(path_or_buf, header, columns, formats=None):
    """Write equal-length columns as CSV rows under a header line, one write
    per block of _CSV_ROWS rows. FMT columns are formatted in numpy, byte for
    byte as Python's "%.16e" % v; other formats, and the non-finite, extreme
    (|x| outside [1e-250, 1e250], zeros aside) or near-tie values, by
    Python's %.

    Args:
        path_or_buf: file path, or an open text stream (left open).
        header: the header line, without its newline.
        columns: one sequence or array per column.
        formats: one %-format per column (default FMT for all).

    Raises:
        ValueError: if the columns differ in length.
    """
    formats = formats or [FMT] * len(columns)
    columns = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError("CSV columns of unequal lengths %s" % sorted(lengths))
    own = isinstance(path_or_buf, str)
    f = open(path_or_buf, "w") if own else path_or_buf
    try:
        f.write(header + "\n")
        for lo in range(0, max(lengths, default=0), _CSV_ROWS):
            f.write(_csv_block([c[lo : lo + _CSV_ROWS] for c in columns], formats))
    finally:
        if own:
            f.close()


def write_trajectory(path_or_buf, traj):
    """Write a Trajectory in the standard CSV layout.

    Header: t,s11,s12,s22,e11,e12,e22,c11,c12,c21,c22,purity_s,xi with
    17-significant-digit floats.
    """
    s = traj.sigma
    write_csv(
        path_or_buf,
        "t,s11,s12,s22,e11,e12,e22,c11,c12,c21,c22,purity_s,xi",
        [traj.t] + [s[:, i, j] for i, j in _CSV_ENTRIES] + [traj.purity_s, traj.xi],
    )


def write_markov_csv(path, series):
    """Write a markov_series result in the standard markov.csv layout."""
    write_csv(
        path,
        "t,purity,lambda_minus,lambda_plus,v_bures,v_bures_fd,cp_flag",
        [
            series["t"],
            series["purity"],
            series["lambda_minus"],
            series["lambda_plus"],
            np.nan_to_num(series["v_bures"]),
            np.nan_to_num(series["v_bures_fd"]),
            series["cp_flag"].astype(float),
        ],
    )


def write_slope_csv(path, res):
    """Write the centered log-log slopes of a deficit series (the
    mid_tau_over_t0, slope and flagged entries of res)."""
    write_csv(
        path,
        "tau_over_t0,slope,flagged",
        [res["mid_tau_over_t0"], res["slope"], res["flagged"].astype(float)],
    )


def summarize(p, gamma_min, gamma_inf, **extra):
    """Schema-1 summary of one scenario run; a purity the run does not
    report is None, written as JSON null.

    omega1_abs = sqrt|omega1^2| at peak coupling comes from the closed form,
    so it reads 0 rather than failing at exactly critical coupling.
    """
    label = classify_regime(min(p.w, 1.0 / p.w), p.psi)
    out = {
        "schema": SCHEMA,
        "gamma_min": gamma_min,
        "gamma_inf": gamma_inf,
        "regime": label.label,
        "omega1_abs": float(np.sqrt(abs(normal_mode_sq(p.xi0, p)[0]))),
        "g_p": perturbativity_gp(p),
        "xi_c": p.xi_c,
    }
    out.update(extra)
    return out


def summarize_purity(p, purity, **extra):
    """summarize with the minimum and the last value of a purity series."""
    return summarize(p, float(np.min(purity)), float(purity[-1]), **extra)


def emit(summary, json_mode):
    """Print a summary on stdout: one JSON line, or sorted key: value lines."""
    if json_mode:
        print(json.dumps(summary, sort_keys=True))
    else:
        for key in sorted(summary):
            print("%s: %s" % (key, summary[key]))


def write_json(path, summary):
    """Write a summary as an indented JSON file with sorted keys."""
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
