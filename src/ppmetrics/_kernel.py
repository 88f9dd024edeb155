"""Loader of the compiled matching kernel, ``_kernel.c``.

The first import builds the kernel with the system C compiler (``cc``) into
``$XDG_CACHE_HOME/ppmetrics`` (by default ``~/.cache/ppmetrics``), or, when
that directory cannot be written, into a private per-user directory
``ppmetrics-<uid>`` under ``tempfile.gettempdir()``. The library is named by
the SHA-256 of the source and the compiler flags, so a changed source builds
anew and an import that finds its library compiles nothing. Each build goes
to a temporary name and is renamed into place, so concurrent first imports
leave one whole library. Without a compiler the import fails with an
``ImportError`` that says so.

The three functions below are the only callers of the library, one per
entry: :func:`min_cost_matching` solves one cost matrix, :func:`pairs` a
list of pattern pairs of two stacked collections, and :func:`dbar2` the
exact empirical dbar2 of two stacked collections of one size, solving only
the pattern pairs its optimal pairing needs, or a bound on it that settles
a comparison with a value. They check and pass the arrays and turn a
failure status into an exception.

After a build, the loader deletes the other ``_kernel-*.so`` files of its
directory that are more than a day old, so that the cache does not keep a
library for every source it ever built. A younger one is kept: another
installed version of the package may still be using it.
"""

import ctypes
import glob
import hashlib
import math
import os
import shutil
import stat
import subprocess
import tempfile
import time

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
# -O3 vectorizes the loops of dbar2's bound scan, whose trip counts are the
# pattern sizes: gcc's -O2 vectorizes only loops that need no remainder
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

_STATUS = {
    1: (MemoryError, "the matching kernel is out of memory"),
    2: (OverflowError, "intermediate overflow in fsum"),
    3: (ValueError, "cost matrix is infeasible"),
}


def _cache_dirs():
    """``(directory, shared)`` in the order tried; a directory in a shared
    parent is used only while it is private to this user."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    yield os.path.join(base, "ppmetrics"), False
    yield os.path.join(tempfile.gettempdir(), f"ppmetrics-{os.getuid()}"), True


def _private(directory):
    """Whether ``directory`` is a real directory that only this user can
    write, so that no one else can put a library there."""
    info = os.lstat(directory)
    return (stat.S_ISDIR(info.st_mode) and info.st_uid == os.getuid()
            and not info.st_mode & 0o022)


def _build(path):
    """Compile the kernel to ``path`` through a temporary file beside it."""
    compiler = shutil.which("cc")
    if compiler is None:
        raise ImportError(
            "ppmetrics needs a C compiler: no `cc` was found on PATH to build "
            "its matching kernel, which is compiled once on first import")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run([compiler, *FLAGS, "-o", tmp, SOURCE],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise ImportError(
                f"building the ppmetrics matching kernel with {compiler} failed:\n"
                f"{proc.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _prune(path):
    """Delete the other kernel libraries beside ``path`` last modified more
    than a day ago."""
    directory, stale = glob.escape(os.path.dirname(path)), time.time() - 86400
    for other in glob.glob(os.path.join(directory, "_kernel-*.so")):
        try:
            if other != path and os.stat(other).st_mtime < stale:
                os.unlink(other)
        except OSError:
            pass  # removed meanwhile, or not ours to remove


def _load():
    with open(SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read() + " ".join(FLAGS).encode()).hexdigest()
    name = f"_kernel-{key[:32]}.so"
    candidates = [(os.path.join(directory, name), shared)
                  for directory, shared in _cache_dirs()]
    for path, shared in candidates:
        if os.path.isfile(path) and (not shared or _private(os.path.dirname(path))):
            try:
                return ctypes.CDLL(path)
            except OSError:
                pass  # not loadable from there: build it again below
    problems = []
    for path, shared in candidates:
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            if shared and not _private(directory):
                raise PermissionError("it is not private to this user")
            _build(path)
            _prune(path)
            return ctypes.CDLL(path)
        except OSError as exc:
            problems.append(f"{directory}: {exc}")
    raise ImportError("no directory could hold the ppmetrics matching kernel: "
                      + "; ".join(problems))


def _declare(lib):
    ptr, size, real = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    lib.ppm_min_cost_matching.argtypes = [ptr, size, size, real, ptr, ptr]
    lib.ppm_min_cost_matching.restype = ctypes.c_int
    lib.ppm_pairs.argtypes = [ptr, ptr, ptr, ptr, size, size, size, ptr, ptr, size,
                              real, real, real, ctypes.c_int, ptr, ptr]
    lib.ppm_pairs.restype = ctypes.c_int
    lib.ppm_dbar2.argtypes = [ptr, ptr, ptr, ptr, size, size, real, real, real,
                              ctypes.c_int, real, real, ptr, ptr]
    lib.ppm_dbar2.restype = ctypes.c_int
    return lib


_lib = _declare(_load())


def _check(status):
    if status:
        error, message = _STATUS[status]
        raise error(message)


# The float64 inputs are handed over as ``tobytes()`` copies, which ctypes
# passes as pointers to their buffers: a copy of a pattern costs far less
# than ``ndarray.ctypes``, and it has the layout the kernel reads whatever
# the input's: a cost matrix row by row, and a stack's points coordinate by
# coordinate, so that the kernel reads each pattern where it lies. Before a
# call, every buffer's size is checked against the counts the kernel will
# read it by, and every index against the range it indexes.
# The outputs are numpy arrays passed as ``.ctypes.data``: their lengths vary
# from call to call, and ctypes would build a new array type for each new one.

def _points(x, count, dim, order="C"):
    data = x.tobytes(order)
    if len(data) != 8 * count * dim:
        raise ValueError(f"expected {count} float64 points of dimension {dim}, "
                         f"got an array of shape {x.shape} and type {x.dtype}")
    return data


def _stacks(xs, ys):
    """The points, coordinate-major, and offsets of two stacks, and their
    dimension; a stack's point total, its last offset, is its stride."""
    dim = (xs if len(xs.points) else ys).points.shape[1]
    return (_points(xs.points, xs.offsets[-1], dim, "F"),
            xs.offsets.astype(np.intp).tobytes(),
            _points(ys.points, ys.offsets[-1], dim, "F"),
            ys.offsets.astype(np.intp).tobytes(), dim)


def min_cost_matching(costs, fill):
    """``(total, cols)`` of the m x n float64 matrix ``costs``, m <= n:
    row ``i`` is matched to column ``cols[i]``, and each of the ``n - m``
    columns left over costs ``fill``."""
    m, n = costs.shape
    cols = np.empty(m, dtype=np.intp)
    total = ctypes.c_double()
    _check(_lib.ppm_min_cost_matching(_points(costs, m, n), m, n, fill,
                                      cols.ctypes.data, ctypes.byref(total)))
    return total.value, cols


def pairs(xs, ys, rows, cols, p, c, cap, d1):
    """``(values, match)`` of the pattern pairs ``(rows[t], cols[t])`` of the
    stacked collections ``xs`` and ``ys``. A stack holds float64 ``points``,
    ascending intp ``offsets`` from 0 and the ``counts`` between them, and
    its pattern ``k`` is ``points[offsets[k]:offsets[k + 1]]``. ``values[t]``
    is the distance of pair ``t``, with ``fill = c ** p``. ``match`` holds,
    pair after pair, ``max(m, n)`` rows ``(i, j)``: point ``i`` of the ``xs``
    pattern is paired with point ``j`` of the ``ys`` pattern, and -1 marks a
    point left unmatched. With ``d1`` set, a pair of different counts is not
    paired: its value is ``min(c, cap)`` and its rows are ``(-1, -1)``."""
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    if rows.ndim != 1 or rows.shape != cols.shape:
        raise ValueError(f"rows and cols must be index vectors of one length, "
                         f"got shapes {rows.shape} and {cols.shape}")
    sizes = len(xs.counts), len(ys.counts)
    try:  # refuses an index out of range, a negative one too
        np.ravel_multi_index((rows, cols), sizes)
    except ValueError:
        raise ValueError(f"pattern indices must lie in [0, {sizes[0]}) for rows "
                         f"and [0, {sizes[1]}) for cols") from None
    slots = int(np.maximum(xs.counts[rows], ys.counts[cols]).sum())
    values, match = np.empty(len(rows)), np.empty((slots, 2), dtype=np.intp)
    _check(_lib.ppm_pairs(*_stacks(xs, ys), int(xs.offsets[-1]), int(ys.offsets[-1]),
                          rows.tobytes(), cols.tobytes(), len(rows), p, c, cap, d1,
                          values.ctypes.data, match.ctypes.data))
    return values, match


def dbar2(xs, ys, p, c, cap, d1, below=-math.inf, above=math.inf):
    """``(value, solved)`` of the stacked collections ``xs`` and ``ys`` of
    one size N, with ``p``, ``c``, ``cap`` and ``d1`` as in :func:`pairs`:
    ``value`` is their exact empirical dbar2 and ``solved`` the number of
    pattern pairs it solved. The value can differ from ``min_cost_matching``
    of the N x N matrix of ``pairs`` values over N only in its last bits,
    and only where two pairings tie in real arithmetic: the two may then sum
    different ones, and a tie in ``homogeneity_test``'s count needs equal
    bits. Each pair starts at a lower bound on its distance, or at the
    distance where that needs no solve, and is solved only when an optimal
    pairing over the current entries picks it.

    With a finite ``below`` the call settles a comparison. It first solves
    the pairing of the two collections each sorted by count (stably), and
    it stops as soon as a bound clears a threshold. A returned ``value >
    above`` is a lower bound on dbar2, the mean of an optimal pairing over
    lower bounds, and a returned ``value < below`` an upper bound, the mean
    exact distance of one pairing; both hold to within the rounding of the
    assignment, which a caller's thresholds must leave room for. Any other
    ``value`` is the exact dbar2."""
    size = len(xs.counts)
    if size == 0 or len(ys.counts) != size:
        raise ValueError(f"dbar2 needs two nonempty collections of one size, "
                         f"got sizes {size} and {len(ys.counts)}")
    value, solved = ctypes.c_double(), ctypes.c_ssize_t()
    _check(_lib.ppm_dbar2(*_stacks(xs, ys), size, p, c, cap, d1, below, above,
                          ctypes.byref(value), ctypes.byref(solved)))
    return value.value, solved.value
