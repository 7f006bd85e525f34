from __future__ import annotations

from fractions import Fraction

import pytest

from cachewright.converse import (
    case1_certificate,
    case2_certificate,
    check_certificate,
    parse_certificate,
    serialize_certificate,
)
from cachewright.converse.entropy import (index_of, kind_of, parse_varset, var, varset_token,
                                          wvar, xvar, zvar)
from cachewright.errors import CachewrightError, ConfigMismatch


def test_round_trip_case1():
    cert = case1_certificate(3, 4)
    text = serialize_certificate(cert)
    back = parse_certificate(text)
    assert back == cert
    assert check_certificate(back).ok


def test_round_trip_case2():
    cert = case2_certificate(2, 5)
    back = parse_certificate(serialize_certificate(cert))
    assert back == cert
    assert check_certificate(back).ok


def test_text_format_shape():
    cert = case1_certificate(3, 4)
    lines = serialize_certificate(cert).strip().split("\n")
    assert lines[0] == "NK 3 4 CASE 1"
    assert lines[1] == "D 1 1 2 3 1"
    assert lines[5].startswith("AX ")
    assert " MUL " in lines[5]
    assert lines[-1] == "TARGET 4/1 M + 8/1 R >= 11/1"
    assert all("\t" not in line for line in lines)


def test_fractional_multipliers_survive():
    cert = case2_certificate(2, 5)
    text = serialize_certificate(cert)
    assert " MUL 1/2" in text  # the |T|/N bookkeeping weight
    back = parse_certificate(text)
    mults = {m for _, m in back.axioms}
    assert Fraction(1, 2) in mults


def test_parse_rejects_garbage():
    with pytest.raises(ConfigMismatch):
        parse_certificate("HELLO 1 2\n")
    with pytest.raises(ConfigMismatch):
        parse_certificate("NK 2 2 CASE 1\nD 1 1 2\n")  # no target


def test_lf_only():
    text = serialize_certificate(case1_certificate(2, 3))
    assert "\r" not in text
    assert text.endswith("\n")


@pytest.mark.parametrize("text, line", [
    ("NK 2\n", 1),
    ("NK 2 2 CASE 1\nAX\n", 2),
    ("NK 2 2 CASE 1\nTARGET 1/1\n", 2),
    ("NK a 4 CASE 1\n", 1),
    ("NK 2 2 CASE 1\nD 1 1 2\nAX FOO W1 MUL 1/1\n", 3),
    ("NK 2 2 CASE 1\nTARGET 1 M + 1/1 R >= 1/1\n", 2),
    ("NK 2 2 CASE 1\nD 1 x\n", 2),
    ("NK 2 2 CASE 1\nD 1 1 2\nAX CACHE 1 MUL 1/0\n", 3),
    ("NK 2 2 CASE 1\nD 2 1 2\nD 1 2 1\nTARGET 1/1 M + 1/1 R >= 1/1\n", 2),
])
def test_parse_names_the_malformed_line(text, line):
    with pytest.raises(CachewrightError, match=rf"^line {line}: "):
        parse_certificate(text)



# H(W_1) >= 0 and H(W_1) = 1 prove 0 >= -1, which dominates M >= -1
_VALID = ["NK 2 2 CASE 1", "D 1 1 2", "D 2 2 1", "AX MONO W1 - MUL 1/1",
          "AX FILEIND W1 MUL -1/1", "TARGET 1/1 M + 0/1 R >= -1/1"]


@pytest.mark.parametrize("how, line, text", [
    ("replace", 4, "AX SUBMOD Z1 X1 W1 MUL 1/1"),     # one field too many
    ("replace", 4, "AX CACHE 1 7 MUL 1/1"),
    ("replace", 5, "AX FILESYM 1 2 1 2 MUL 1/1"),
    ("replace", 1, "NK 2 2 FOO 1 BAR"),               # wrong keyword, trailing field
    ("replace", 1, "NK 2 2 CASE 1 9"),
    ("replace", 6, "TARGET 1/1 Q + 0/1 Q >= 0/1 trailing"),
    ("replace", 6, "TARGET 1/1 M - 0/1 R >= -1/1"),
    ("insert", 3, "NK 2 2 CASE 2"),                   # a second header
    ("insert", 7, "TARGET 9/1 M + 0/1 R >= 0/1"),     # a second target
    ("replace", 4, "AX CACHE 0_1 MUL 1_0/2"),         # read as CACHE 1 MUL 5/1
    ("replace", 4, "AX CACHE 1 MUL 1_0/2"),
    ("replace", 4, "AX MONO W1,W01 - MUL 1/1"),       # read as MONO W1 -
    ("replace", 4, "AX MONO W\u0661 - MUL 1/1"),      # a non-ASCII digit one
    ("replace", 4, "AX CACHE +1 MUL 1/1"),
    ("replace", 4, "AX CACHE 02 MUL 1/1"),
    ("replace", 4, "AX RATE 1 MUL +1/1"),
    ("replace", 4, "AX RATE 1 MUL 1/-1"),             # a sign on the denominator
    ("replace", 4, "AX PERMSYM 2,01 - MUL 1/1"),
    ("replace", 4, "AX FILESYM 01 2 1 MUL 1/1"),
    ("replace", 5, "AX FILEIND W1,W1 MUL -1/1"),      # a variable named twice
    ("replace", 1, "NK +2 2 CASE 1"),
    ("replace", 1, "NK 2 2 CASE 01"),
    ("replace", 2, "D 01 1 2"),
    ("replace", 2, "D 1 1 02"),
    ("replace", 2, "D 1 1 2 2"),                      # K = 2 files per demand
    ("replace", 2, "D 1 1"),
    ("replace", 2, "D 1 1 3"),                        # a file outside [1, N]
    ("replace", 2, "D 1 0 2"),
    ("insert", 1, "D 1 1 2"),                         # a demand before the header
    ("replace", 4, "AX MONO W4294967296 - MUL 1/1"),  # an index of 2**32
])
def test_parse_refuses_lines_that_say_something_else(how, line, text):
    assert check_certificate(parse_certificate("\n".join(_VALID) + "\n")).ok
    lines = list(_VALID)
    lines[line - 1:line - 1 + (how == "replace")] = [text]
    with pytest.raises(ConfigMismatch, match=rf"^line {line}: "):
        parse_certificate("\n".join(lines) + "\n")


@pytest.mark.parametrize("token", ["W01", "Q1", "W1,W1"])
def test_a_malformed_variable_is_refused_every_time_it_is_read(token):
    # variable tokens are parsed through a memo; it must never hold a failure
    # as a success, so each reading of the token raises again
    parse_certificate("\n".join(_VALID) + "\n")   # W1 is now in the memo
    lines = list(_VALID)
    lines[3:4] = [f"AX MONO {token} - MUL 1/1"] * 2
    messages = set()
    for _ in range(2):
        with pytest.raises(ConfigMismatch, match=r"^line 4: ") as info:
            parse_certificate("\n".join(lines) + "\n")
        messages.add(str(info.value))
    lines[3] = _VALID[3]
    with pytest.raises(ConfigMismatch, match=r"^line 5: ") as info:
        parse_certificate("\n".join(lines) + "\n")
    assert len(messages) == 1
    assert str(info.value).replace("line 5: ", "line 4: ") == messages.pop()


def test_a_variable_set_lists_files_then_caches_then_broadcasts_by_index():
    vs = frozenset([xvar(12), zvar(2), wvar(10), xvar(3), wvar(2), zvar(1), xvar(0)])
    assert varset_token(vs) == "W2,W10,Z1,Z2,X0,X3,X12"
    assert parse_varset(varset_token(vs)) == vs
    for kinds in ([xvar(2), xvar(1)], [zvar(3), xvar(1)], [xvar(1), wvar(5)], [zvar(7), wvar(8)]):
        assert varset_token(frozenset(kinds)) == ",".join(
            f"{kind_of(v)}{index_of(v)}"
            for v in sorted(kinds, key=lambda v: ("WZX".index(kind_of(v)), index_of(v))))
    assert varset_token(frozenset()) == "-"


def test_an_axiom_line_without_a_multiplier_is_refused():
    with pytest.raises(ConfigMismatch, match="^line 2: axiom line lacks a multiplier in "):
        parse_certificate("NK 2 2 CASE 1\nAX CACHE 1 1/1\n")


def test_blank_lines_are_skipped():
    cert = case1_certificate(3, 4)
    text = serialize_certificate(cert).replace("\n", "\n\n   \n")
    assert parse_certificate("\n" + text) == cert


_MIXED = [var(kind, idx) for kind in "XZW" for idx in (2**32 - 1, 12, 3, 0, 1)]


def test_variables_sort_by_kind_files_caches_broadcasts_then_by_index():
    order = {"W": 0, "Z": 1, "X": 2}
    reference = sorted(_MIXED, key=lambda v: (order[kind_of(v)], index_of(v)))
    assert sorted(_MIXED) == reference
    assert [var(kind_of(v), index_of(v)) for v in _MIXED] == _MIXED
    assert [f"{kind_of(v)}{index_of(v)}" for v in reference][:3] == ["W0", "W1", "W3"]


@pytest.mark.parametrize("kind, idx", [("Q", 1), ("W", -1), ("W", 2**32), ("", 1), ("WZ", 1)])
def test_a_variable_outside_the_kinds_or_the_index_range_is_refused(kind, idx):
    with pytest.raises(ValueError, match=r"^no variable .*: kinds W, Z, X, index below 2\*\*32$"):
        var(kind, idx)
