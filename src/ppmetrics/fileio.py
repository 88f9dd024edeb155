"""Pattern text files and the machine-readable result document.

Pattern files hold one point per line (whitespace- or comma-separated
decimal coordinates), ``#`` comment lines, and blank lines separating
patterns in multi-pattern files. An empty pattern is written as the
directive line ``# empty`` so that it survives a round trip. Result
documents are JSON objects with floats rendered at 17 significant digits,
which round-trips doubles losslessly.
"""

import json
import math

import numpy as np

from .errors import PatternFileError
from .geometry import as_pattern

__all__ = [
    "read_patterns",
    "read_single_pattern",
    "write_patterns",
    "format_patterns",
    "dumps_result",
]

EMPTY_DIRECTIVE = "# empty"


def _parse_line(line, lineno):
    parts = line.replace(",", " ").split()
    try:
        coords = [float(tok) for tok in parts]
    except ValueError:
        raise PatternFileError(f"cannot parse coordinates from {line!r}", lineno)
    if not coords:
        raise PatternFileError(f"no coordinates in {line!r}", lineno)
    if not all(math.isfinite(v) for v in coords):
        raise PatternFileError(f"non-finite coordinate in {line!r}", lineno)
    return coords


def parse_patterns(text):
    """Parse multi-pattern text into a list of ``(m, D)`` arrays."""
    patterns = []
    current = []
    current_is_empty = False
    dim = None

    def flush(lineno):
        nonlocal current, current_is_empty
        if current and current_is_empty:
            raise PatternFileError(
                "a pattern block mixes points with the empty directive", lineno
            )
        if current:
            patterns.append(current)
        elif current_is_empty:
            patterns.append([])
        current = []
        current_is_empty = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            flush(lineno)
            continue
        if line.startswith("#"):
            if line == EMPTY_DIRECTIVE:
                current_is_empty = True
            continue
        coords = _parse_line(line, lineno)
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise PatternFileError(
                f"point has {len(coords)} coordinates, expected {dim}", lineno
            )
        current.append(coords)
    flush(None)
    if not patterns:
        raise PatternFileError("file contains no pattern")
    dim = dim if dim is not None else 1
    return [as_pattern(p, dim=dim) if p else np.empty((0, dim)) for p in patterns]


def read_patterns(path):
    """Read all patterns from a text file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PatternFileError(f"cannot read {path}: {exc}")
    return parse_patterns(text)


def read_single_pattern(path):
    """Read a file that must contain exactly one pattern."""
    pats = read_patterns(path)
    if len(pats) != 1:
        raise PatternFileError(
            f"{path} contains {len(pats)} patterns, expected exactly 1"
        )
    return pats[0]


def format_patterns(patterns):
    """Render patterns as multi-pattern text (blank-line separated)."""
    blocks = []
    for pat in patterns:
        pat = np.asarray(pat)
        if len(pat) == 0:
            blocks.append(EMPTY_DIRECTIVE)
        else:
            blocks.append(
                "\n".join(" ".join(_fmt_float(v) for v in row) for row in pat)
            )
    return "\n\n".join(blocks) + "\n"


def write_patterns(path, patterns):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_patterns(patterns))


def _fmt_float(x):
    # 17 significant digits round-trip every finite double
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot write the non-finite value {x}")
    return format(x, ".17g")


def _write_json(obj, out, indent):
    # hand-rolled writer so floats render at 17 significant digits
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.append(pad + "  " + json.dumps(str(key)) + ": ")
            _write_json(val, out, indent + 2)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(seq):
            out.append(pad + "  ")
            _write_json(val, out, indent + 2)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (np.integer, int)):
        out.append(str(int(obj)))
    elif isinstance(obj, (np.floating, float)):
        out.append(_fmt_float(obj))
    else:
        out.append(json.dumps(obj))


def dumps_result(document):
    """Serialize a result document to JSON with lossless float rendering."""
    out = []
    _write_json(document, out, 0)
    return "".join(out) + "\n"
