"""Tests for the output module: the trajectory CSV layout and the numpy
"%.16e" formatter behind write_csv, against Python's % one value at a time
(tests/numutil.py), and the in-place rewrite of existing files."""

import io
import math
import os
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numutil import write_csv_per_row

from oscpurity import output
from oscpurity.model import IntegratorConfig, ScenarioParams
from oscpurity.transport import integrate


def test_write_trajectory_writes_file(tmp_path):
    # The trajectory layout, byte for byte as the per-row writer formats the
    # same columns.
    p = ScenarioParams.from_psi(1.0, 2.0, 0.9, 1.0, 1.0)
    traj = integrate(p, IntegratorConfig())
    path = tmp_path / "traj.csv"
    output.write_trajectory(str(path), traj)
    s = traj.sigma
    ref = io.StringIO()
    write_csv_per_row(
        ref,
        "t,s11,s12,s22,e11,e12,e22,c11,c12,c21,c22,purity_s,xi",
        [traj.t] + [s[:, i, j] for i, j in output._CSV_ENTRIES] + [traj.purity_s, traj.xi],
    )
    assert path.read_text() == ref.getvalue()


def test_write_csv_matches_per_value_formatting(tmp_path):
    # Several conversion chunks of awkward floats, with the mixed formats of
    # the phase diagram, against one "%.16e" % v call per value.
    rng = np.random.default_rng(5)
    n = 3 * output._CSV_ROWS + 7
    x = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    x[:4] = [np.nan, -0.0, np.inf, 5e-324]
    labels = np.array(["U1", "C2minus"])[rng.integers(0, 2, n)].tolist()
    flags = rng.integers(0, 2, n).astype(bool)
    path = str(tmp_path / "rows.csv")
    formats = ["%.16e", "%s", "%d", "%.16e"]
    output.write_csv(path, "x,label,flag,y", [x, labels, flags, -x], formats)
    ref = "x,label,flag,y\n" + "".join(
        "%s,%s,%d,%s\n" % ("%.16e" % a, b, int(c), "%.16e" % -a)
        for a, b, c in zip(x, labels, flags)
    )
    with open(path) as f:
        assert f.read() == ref


def _csv(tmp_dir, columns, formats=None):
    path = tmp_dir / "h.csv"
    output.write_csv(str(path), "h", columns, formats)
    return path.read_text()


def _csv_per_row(columns, formats=None):
    buf = io.StringIO()
    write_csv_per_row(buf, "h", columns, formats)
    return buf.getvalue()


def _seeded_floats(kind):
    rng = np.random.default_rng(11)
    if kind == "bit_patterns":
        # Every class of double: NaNs, infinities, subnormals, both zeros.
        return rng.integers(0, 2**64, 1 << 18, dtype=np.uint64).view(np.float64)
    if kind == "integers":
        # Integer-valued doubles and their quarters and 1024ths, which hold
        # exact 17-digit ties such as 1234567890123456.75.
        ints = np.concatenate(
            [rng.integers(0, 2**53, 20000), rng.integers(0, 10**6, 20000)]
        ).astype(float)
        ties = [1234567890123456.75, 1234567890123456.25, 9999999999999999.5]
        return np.concatenate([ints, ints / 4.0, -ints / 1024.0, ties])
    if kind == "zeros":
        # Both zeros scattered through blocks of ordinary values.
        x = rng.normal(size=3 * output._CSV_ROWS + 5) * 10.0 ** rng.integers(-20, 20)
        x[rng.random(len(x)) < 0.3] = 0.0
        x[rng.random(len(x)) < 0.2] *= -1.0
        return x
    if kind == "powers_of_ten":
        p = np.array([float("1e%d" % k) for k in range(-300, 301)])
        return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    # Values straddling the formatter's range limits 1e-250 and 1e250.
    edges = []
    for lim in (1e-250, 1e250):
        below, above = [lim], [lim]
        for _ in range(200):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        edges += below + above + list(lim * rng.uniform(0.5, 20.0, 2000))
    return np.concatenate([edges, np.negative(edges)])


@pytest.mark.parametrize(
    "kind", ["bit_patterns", "integers", "zeros", "powers_of_ten", "range_limits"]
)
def test_write_csv_is_byte_identical_to_per_row_writer(kind, tmp_path):
    # Two columns, so blocks, fields and separators are all exercised; the
    # reference is one "%.16e" % v per value.
    x = _seeded_floats(kind)
    columns = [x, x[::-1].copy()]
    assert _csv(tmp_path, columns) == _csv_per_row(columns)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_write_csv_matches_percent_on_any_float(tmp_path_factory, values):
    got = _csv(tmp_path_factory.getbasetemp(), [values])
    assert got == "h\n" + "".join("%.16e\n" % v for v in values)


def _is_17_digit_tie(v):
    """Whether |v| lies exactly halfway between two 17-digit decimals."""
    f = abs(Fraction(v))
    e = math.floor(math.log10(f))
    e += (f >= Fraction(10) ** (e + 1)) - (f < Fraction(10) ** e)
    y = 2 * f * Fraction(10) ** (16 - e)
    return y.denominator == 1 and y.numerator % 2 == 1


def test_formatter_backstops_only_what_it_cannot_prove():
    # Powers of ten and their neighbours are where log10 misjudges the
    # decade; the exponent retry must format them in numpy, leaving Python's
    # % only the values outside [1e-250, 1e250] and the exact ties.  Zeros
    # are formatted in numpy too.
    x = np.concatenate([_seeded_floats("powers_of_ten"), [0.0, -0.0]])
    inside = (np.abs(x) >= 1e-250) & (np.abs(x) <= 1e250)
    expected = ~inside & (x != 0.0)
    expected[inside] = [_is_17_digit_tie(v) for v in x[inside].tolist()]
    _, slow = output._fmt_e16(x)
    assert 0 < expected[inside].sum() < 10
    assert np.array_equal(slow, expected)


def test_write_csv_rejects_ragged_columns(tmp_path):
    path = str(tmp_path / "ragged.csv")
    with pytest.raises(ValueError, match="unequal lengths"):
        output.write_csv(path, "a,b", [np.zeros(3), np.zeros(2)])
    assert not (tmp_path / "ragged.csv").exists()


#: Each writer with a long and a short artifact of its kind.
_WRITERS = {
    "csv": (
        lambda path, n: output.write_csv(
            path, "i,x", [np.arange(n), np.arange(n) / 7.0], ["%d", output.FMT]
        ),
        (3000, 5),
    ),
    "json": (
        lambda path, n: output.write_json(path, {"schema": output.SCHEMA, "x": list(range(n))}),
        (500, 2),
    ),
}


@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_rewrite_over_longer_file_leaves_no_stale_tail(kind, tmp_path):
    # A short artifact written over a long one holds exactly the bytes of a
    # fresh write, in the same inode: the file is rewritten in place and cut
    # at its new end, not truncated to zero first.
    write, (long, short) = _WRITERS[kind]
    fresh, path = tmp_path / "fresh", tmp_path / "out"
    write(str(fresh), short)
    write(str(path), long)
    assert path.stat().st_size > fresh.stat().st_size
    # The old file is held open, so its inode number cannot be reused.
    with open(path, "rb") as held:
        write(str(path), short)
        assert path.stat().st_ino == os.fstat(held.fileno()).st_ino
    assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_rewrite_writes_through_a_symlink(kind, tmp_path):
    # An output path that is a symlink is written through, long then short,
    # and stays a link to the same file.
    write, (long, short) = _WRITERS[kind]
    fresh, target, link = tmp_path / "fresh", tmp_path / "target", tmp_path / "link"
    write(str(fresh), short)
    target.write_bytes(b"old")
    link.symlink_to(target)
    write(str(link), long)
    write(str(link), short)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_rewrite_through_a_link_to_devnull(kind, tmp_path):
    # A file that cannot be truncated, such as a character device, is
    # written without being cut.
    write, (long, short) = _WRITERS[kind]
    link = tmp_path / "link"
    link.symlink_to(os.devnull)
    write(str(link), long)
    write(str(link), short)
    assert link.is_symlink() and os.readlink(link) == os.devnull


@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_rewrite_into_a_fifo(kind, tmp_path):
    # A named pipe, which has no position to cut at, receives exactly the
    # bytes of a fresh write.
    write, (_, short) = _WRITERS[kind]
    fresh, fifo = tmp_path / "fresh", tmp_path / "fifo"
    write(str(fresh), short)
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    write(str(fifo), short)
    reader.join(10)
    assert got == [fresh.read_bytes()]


def test_failed_rewrite_leaves_only_the_new_prefix(tmp_path):
    # A write that fails partway still cuts the file at the bytes written,
    # so no tail of the previous artifact is left behind them.
    path = tmp_path / "out"
    path.write_bytes(b"x" * 100)

    def blocks():
        yield b"new\n"
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        output._rewrite(str(path), b"head\n", blocks())
    assert path.read_bytes() == b"head\nnew\n"
