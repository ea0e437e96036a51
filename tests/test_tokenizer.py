"""The regex tokenizer against the character loop it replaced.

`reference_tokenize` is that loop, kept verbatim apart from names: one
character at a time, with a running line and column. On any text the
tokenizer must give the same token texts, each at the same line and
column, and where the loop fails, the same error at the same place.
Constants that `int()` refuses ('²', '012') are tokens to both; the
parser rejects them (tests/test_program.py).
"""

from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskcheck import ParseError
from maskcheck.domain import OPS
from maskcheck.program import _PUNCTUATION, _tokenize, _where


@dataclass
class Token:
    kind: str       # ident | num | sym | eof
    text: str
    line: int
    col: int


def reference_tokenize(text: str) -> list[Token]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            if text[i:i + 2].lower() == "0x":
                j = i + 2
                while j < n and text[j] in "0123456789abcdefABCDEF":
                    j += 1
                if j == i + 2:
                    raise ParseError("malformed hex constant", line, col)
            else:
                while j < n and text[j].isdigit():
                    j += 1
            toks.append(Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        sym = text[i:i + 2] if text[i:i + 2] in OPS else ch
        if sym in OPS or sym in _PUNCTUATION:
            toks.append(Token("sym", sym, line, col))
            i += len(sym)
            col += len(sym)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


def agree(text: str) -> None:
    try:
        want = reference_tokenize(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            _tokenize(text)
        assert (str(got.value), got.value.line, got.value.col) == \
            (str(err), err.line, err.col)
        return
    got = _tokenize(text)
    assert got == [t.text for t in want]
    assert [_where(text, i) for i in range(len(got))] == \
        [(t.line, t.col) for t in want]


PIECES = (["²", "٣", "½", "Ⅻ", "é", "λ", "_", "a", "k1", "0", "7", "00",
           "012", "0x", "0X1f", "0xg", "#", "# note", "\n", "\r", "\t", " ",
           "\xa0", "\x0b", "<", ">", "$", "!"]
          + list(OPS) + list(_PUNCTUATION))
TEXTS = st.lists(
    st.one_of(st.sampled_from(PIECES),
              st.characters(categories=("Lu", "Ll", "Lo", "Nd", "No", "Nl",
                                        "Zs", "Po", "Sm"))),
    max_size=24).map("".join)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(text=TEXTS)
@example(text="fn F(k: secret) { x = k ^ ²; return x; }")
@example(text="x = 1² ^ ²a ^ a² ^ ٣٣ ^ 0٣ ^ ½a;")
@example(text="return x;  # last line, no newline")
@example(text="x = k;\r\n\t# comment\n}#")
@example(text="a <<< b >> c < d")
@example(text="0x 1")
@example(text="k = 0X1fg0x")
def test_tokenizer_matches_the_character_loop(text):
    agree(text)


def test_corpus_like_text_matches():
    text = ("fn Cube(k: secret, r0: random) {  # header\n"
            "\tx = (k ^ 0x1F) @ ~r0;\r\n  y = x << 3 >> 1;\n"
            "  return x, y;\n}  # trailing")
    agree(text)
    assert _tokenize(text)[-1] == ""
    assert _where(text, len(_tokenize(text)) - 1) == (5, 4)
