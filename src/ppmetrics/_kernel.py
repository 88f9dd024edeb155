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

The functions below are the only callers of the library: they pass the
arrays and turn a failure status into an exception.
"""

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

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
            return ctypes.CDLL(path)
        except OSError as exc:
            problems.append(f"{directory}: {exc}")
    raise ImportError("no directory could hold the ppmetrics matching kernel: "
                      + "; ".join(problems))


def _declare(lib):
    ptr, size, real = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    lib.ppm_min_cost_matching.argtypes = [ptr, size, size, real, ptr, ptr]
    lib.ppm_min_cost_matching.restype = ctypes.c_int
    lib.ppm_pair.argtypes = [ptr, size, ptr, size, size, real, real, real, real, ptr]
    lib.ppm_pair.restype = real
    lib.ppm_matrix.argtypes = [ptr, ptr, size, ptr, ptr, size, size, real, real,
                               real, real, ctypes.c_int, ptr]
    lib.ppm_matrix.restype = ctypes.c_int
    return lib


_lib = _declare(_load())


def _check(status):
    if status:
        error, message = _STATUS[status]
        raise error(message)


# The float64 inputs are handed over as ``tobytes()`` copies, which ctypes
# passes as pointers to their buffers: a copy of a pattern costs far less
# than ``ndarray.ctypes``, and it is C-contiguous whatever the input's
# layout. Before a call, every buffer's size is checked against the counts
# the kernel will read it by. Outputs are ctypes arrays viewed by numpy.

def _points(x, count, dim):
    data = x.tobytes()
    if len(data) != 8 * count * dim:
        raise ValueError(f"expected {count} float64 points of dimension {dim}, "
                         f"got an array of shape {x.shape} and type {x.dtype}")
    return data


def min_cost_matching(costs, fill):
    """``(total, cols)`` of the m x n float64 matrix ``costs``, m <= n:
    row ``i`` is matched to column ``cols[i]``, and each of the ``n - m``
    columns left over costs ``fill``."""
    m, n = costs.shape
    cols = (ctypes.c_ssize_t * m)()
    total = ctypes.c_double()
    _check(_lib.ppm_min_cost_matching(_points(costs, m, n), m, n, fill, cols,
                                      ctypes.byref(total)))
    return total.value, np.frombuffer(cols, dtype=np.intp)


def pair(a, b, p, c, cap, fill):
    """``(value, match)`` of the float64 patterns ``a`` and ``b``, ``len(a)
    <= len(b)``, with point ``k`` of ``a`` matched to point ``match[k]`` of
    ``b``; ``fill`` is ``c ** p``."""
    m, (n, dim) = len(a), b.shape
    match = (ctypes.c_ssize_t * m)()
    value = _lib.ppm_pair(_points(a, m, dim), m, _points(b, n, dim), n, dim,
                          p, c, cap, fill, match)
    if value < 0:
        _check(int(-value))
    return value, np.frombuffer(match, dtype=np.intp)


def matrix(xs, x_offsets, ys, y_offsets, dim, p, c, cap, fill, d1):
    """Values of every pair of patterns of two stacked collections: pattern
    ``k`` of the first is ``xs[x_offsets[k]:x_offsets[k + 1]]``, and
    likewise for the second; the offsets are ascending intp from 0."""
    out = np.empty((len(x_offsets) - 1, len(y_offsets) - 1))
    _check(_lib.ppm_matrix(
        _points(xs, x_offsets[-1], dim), x_offsets.astype(np.intp).tobytes(),
        out.shape[0], _points(ys, y_offsets[-1], dim),
        y_offsets.astype(np.intp).tobytes(), out.shape[1], dim, p, c, cap, fill,
        d1, out.ctypes.data))
    return out
