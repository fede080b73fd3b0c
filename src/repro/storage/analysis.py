"""Text analysis: tokenizer and analyzer for full-text fields.

A small standard analyzer in the Lucene mould: lowercase, split on
non-alphanumerics, drop a short English stopword list, keep CJK characters
as single-character tokens (Taobao auction titles mix scripts).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"[0-9a-z]+|[一-鿿]", re.UNICODE)

DEFAULT_STOPWORDS = frozenset(
    "a an and are as at be by for from has in is it of on or that the to was with".split()
)


def tokenize(text: str) -> list[str]:
    """Lowercase and split *text* into index tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class StandardAnalyzer:
    """Tokenizer + stopword filter.

    Attributes:
        stopwords: tokens to drop (empty set disables filtering).
    """

    stopwords: frozenset = DEFAULT_STOPWORDS

    def analyze(self, text: str) -> list[str]:
        """Return the index terms of *text* in order (duplicates kept so
        positional/frequency features can be layered later)."""
        stopwords = self.stopwords
        return [token for token in _TOKEN_RE.findall(text.lower()) if token not in stopwords]
