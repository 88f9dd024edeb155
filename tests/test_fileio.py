import json

import numpy as np
import pytest

from ppmetrics.errors import PatternFileError
from ppmetrics.fileio import (
    dumps_result,
    format_patterns,
    parse_patterns,
    read_patterns,
    read_single_pattern,
    write_patterns,
)


def test_parse_single_pattern_whitespace_and_commas():
    text = "0.1 0.2\n0.3,0.4\n# a comment\n0.5\t0.6\n"
    (pat,) = parse_patterns(text)
    assert pat.tolist() == [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]


def test_parse_multi_pattern_blank_line_separated():
    text = "0.1 0.2\n\n0.3 0.4\n0.5 0.6\n\n\n0.7 0.8\n"
    pats = parse_patterns(text)
    assert [len(p) for p in pats] == [1, 2, 1]


def test_parse_empty_directive_round_trip():
    pats = [np.array([[0.1, 0.2]]), np.empty((0, 2)), np.array([[0.5, 0.5]])]
    text = format_patterns(pats)
    back = parse_patterns(text)
    assert [len(p) for p in back] == [1, 0, 1]
    assert back[1].shape == (0, 2)


def test_parse_reports_line_numbers():
    with pytest.raises(PatternFileError, match="line 2"):
        parse_patterns("0.1 0.2\n0.3 oops\n")


def test_parse_rejects_inconsistent_dimension():
    with pytest.raises(PatternFileError, match="line 2"):
        parse_patterns("0.1 0.2\n0.3 0.4 0.5\n")


@pytest.mark.parametrize("text, line", [(",\n", 1), (" , ,\n", 1),
                                        ("0.1 0.2\n,\n", 2), ("0.1\n\n,\n", 3)])
def test_parse_rejects_line_without_coordinates(text, line):
    # a line of separators alone is no point of dimension 0
    with pytest.raises(PatternFileError, match=f"line {line}: no coordinates"):
        parse_patterns(text)


def test_parse_rejects_empty_file():
    with pytest.raises(PatternFileError):
        parse_patterns("# only a comment\n")


def test_round_trip_through_disk(tmp_path):
    gen = np.random.default_rng(0)
    pats = [gen.random((4, 2)), gen.random((2, 2))]
    path = tmp_path / "pats.txt"
    write_patterns(path, pats)
    back = read_patterns(path)
    for a, b in zip(pats, back):
        assert np.array_equal(a, b)  # 17 significant digits are lossless


def test_read_single_pattern_rejects_multi(tmp_path):
    path = tmp_path / "two.txt"
    write_patterns(path, [np.zeros((1, 2)), np.ones((1, 2))])
    with pytest.raises(PatternFileError, match="expected exactly 1"):
        read_single_pattern(path)


def test_missing_file_is_pattern_error():
    with pytest.raises(PatternFileError):
        read_patterns("/nonexistent/nowhere.txt")


def test_dumps_result_lossless_floats():
    doc = {
        "command": "dist",
        "parameters": {"cutoff": 2.0 / 3.0},
        "seed": None,
        "value": 0.1 + 0.2,
        "vector": np.array([1.0 / 3.0, 1e-17, 123456.789]),
        "flag": True,
        "count": np.int64(7),
        "wall_time_s": 0.25,
    }
    text = dumps_result(doc)
    back = json.loads(text)
    assert back["value"] == 0.1 + 0.2
    assert back["parameters"]["cutoff"] == 2.0 / 3.0
    assert back["vector"] == [1.0 / 3.0, 1e-17, 123456.789]
    assert back["flag"] is True and back["count"] == 7
    assert back["seed"] is None
    # floats are rendered at 17 significant digits
    assert "0.66666666666666663" in text


def test_dumps_result_rejects_nonfinite():
    with pytest.raises(ValueError):
        dumps_result({"value": float("nan")})
