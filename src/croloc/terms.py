"""The tokenizer: a text's index terms. It imports no numpy, so that a
process forked to tokenize part of a tree never holds it (see
``croloc.corpus.fan_out``); ``croloc.index`` re-exports its names.
"""
from __future__ import annotations

import re
from importlib import resources

# The tokenizer drops these words and tokens shorter than MIN_TOKEN_LENGTH.
STOPWORDS = frozenset(
    resources.files("croloc.data").joinpath("stopwords_en.txt").read_text("utf-8").split())
MIN_TOKEN_LENGTH = 2


# Words are maximal alphanumeric runs: [^\W_] is exactly str.isalnum().
_WORD = re.compile(r"[^\W_]+")
# Pieces of a word where ASCII meets non-ASCII, so that glossary output glued
# directly against Japanese text still separates into clean tokens.
_SCRIPT_PIECE = re.compile(r"[\x00-\x7f]+|[^\x00-\x7f]+")
# Fragments of an ASCII piece at camelCase and letter/digit boundaries; an
# acronym run keeps its tail capital with the following word
# (HTTPServer -> HTTP, Server).
_ASCII_FRAGMENT = re.compile(r"[0-9]+|[A-Z]?[a-z]+|[A-Z]+(?![a-z])")

# The tokens of each word met so far, one memo per stemming setting
# (``_MEMOS[stemming]``). A memo that reaches _MEMO_SIZE words is emptied.
_MEMOS: tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]] = ({}, {})
_MEMO_SIZE = 1 << 16


def _word_tokens(word: str, stemming: bool) -> tuple[str, ...]:
    """Tokens of one alphanumeric word; they depend on nothing else."""
    raw: list[str] = []
    for piece in _SCRIPT_PIECE.findall(word):
        if piece.isascii():
            fragments = _ASCII_FRAGMENT.findall(piece)
            subs = [f for f in fragments if not f.isdigit()]
            if len(subs) >= 2 and len(subs) == len(fragments):
                raw.append(piece)
            raw.extend(subs)
        else:
            raw.append(piece)
    out: list[str] = []
    for token in raw:
        token = token.lower()
        if token in STOPWORDS or len(token) < MIN_TOKEN_LENGTH:
            continue
        if stemming:
            # Imported here, so that an index built without stemming does
            # not load the stemmer.
            from .porter import stem as porter_stem

            token = porter_stem(token)
        out.append(token)
    return tuple(out)


def tokenize(text: str, stemming: bool = False) -> list[str]:
    """Token stream of a text: identifier-aware, lowercased, stopped, and
    optionally stemmed.

    Words are maximal alphanumeric runs (underscore separates). Each word is
    split at script boundaries; ASCII pieces additionally split at camelCase
    and letter/digit boundaries, with pure-digit fragments dropped. A piece
    that splits into two or more fragments and contains no digit also emits
    itself whole, before its fragments. Stemming, when enabled, runs last.
    """
    memo = _MEMOS[stemming]
    tokens: list[str] = []
    for word in _WORD.findall(text):
        found = memo.get(word)
        if found is None:
            if len(memo) >= _MEMO_SIZE:
                memo.clear()
            found = memo[word] = _word_tokens(word, stemming)
        tokens += found
    return tokens


def clear_memo() -> None:
    """Empty the word memos."""
    for memo in _MEMOS:
        memo.clear()
