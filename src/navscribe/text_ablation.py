"""Part-of-speech driven instruction ablations.

A lexicon file maps tokens, each a single word as ``tokenize`` yields it
(lowercase, no punctuation), to one of three tags (noun, adjective,
other), one ``token<TAB>tag`` pair per line. Ablation tokenizes exactly like
the supervision exporter, drops tokens whose tag matches the mode, and joins
the survivors with single spaces. Unknown tokens count as ``other`` and are
never dropped except by mode ``all``. Direction words are deliberately
tagged ``other`` in the bundled lexicon so ablations never strip them.

A lexicon is read once into a read-only ``PosLexicon`` mapping, which also
holds, for each mode but ``all``, the set of tokens that mode drops, so
ablating an instruction tests its tokens against one set at C level.
"""
from __future__ import annotations

from collections.abc import Iterator, Mapping
from enum import Enum
from importlib import resources
from itertools import filterfalse, repeat
from operator import attrgetter

from .jsonio import from_columns
from .scene_metadata import LineError as LexiconError  # the lexicon reader's name for it
from .scene_metadata import numbered_lines
from .supervision_export import DatasetRecord, tokenize

VALID_TAGS = frozenset({"noun", "adjective", "other"})

DEFAULT_LEXICON_RESOURCE = "default_lexicon.tsv"


class AblationMode(Enum):
    NOUNS = "nouns"
    ADJECTIVES = "adjectives"
    NOUNS_ADJECTIVES = "nouns_adjectives"
    ALL = "all"


_DROPPED_TAGS = {
    AblationMode.NOUNS: frozenset({"noun"}),
    AblationMode.ADJECTIVES: frozenset({"adjective"}),
    AblationMode.NOUNS_ADJECTIVES: frozenset({"noun", "adjective"}),
}


class PosLexicon(Mapping[str, str]):
    """A read-only token -> tag mapping, with the tokens each mode drops.

    The drop sets are computed once here; being read-only, the mapping can
    never disagree with them.
    """

    __slots__ = ("_tags", "_drops")

    def __init__(self, tags: Mapping[str, str]) -> None:
        self._tags = dict(tags)
        self._drops = {mode: frozenset(t for t, tag in self._tags.items() if tag in dropped)
                       for mode, dropped in _DROPPED_TAGS.items()}

    def __getitem__(self, token: str) -> str:
        return self._tags[token]

    def __iter__(self) -> Iterator[str]:
        return iter(self._tags)

    def __len__(self) -> int:
        return len(self._tags)

    def __repr__(self) -> str:
        return f"PosLexicon({self._tags!r})"


def load_lexicon(text: str) -> PosLexicon:
    """Parse lexicon text; duplicate tokens and unknown tags are errors."""
    lexicon: dict[str, str] = {}
    for line_no, raw in numbered_lines(text):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            raise LexiconError(f"expected 'token<TAB>tag', found {raw!r}", line_no)
        token, tag = parts[0].strip(), parts[1].strip()
        if not token:
            raise LexiconError("empty token", line_no)
        # An entry instructions can never match; isprintable also refuses a
        # byte-order mark or U+200B, which tokenize keeps inside a word.
        if tokenize(token) != [token] or not token.isprintable():
            raise LexiconError("token must be one lowercase word without punctuation, "
                               f"found {token!r}", line_no)
        if tag not in VALID_TAGS:
            raise LexiconError(f"unknown tag {tag!r} for token {token!r}", line_no)
        if token in lexicon:
            raise LexiconError(f"duplicate token {token!r}", line_no)
        lexicon[token] = tag
    return PosLexicon(lexicon)


def load_default_lexicon() -> PosLexicon:
    """The lexicon bundled with the package."""
    resource = resources.files("navscribe").joinpath("data").joinpath(DEFAULT_LEXICON_RESOURCE)
    return load_lexicon(resource.read_text("utf-8"))


def ablate(instruction: str, mode: AblationMode, lexicon: PosLexicon) -> str:
    """Drop the mode's word classes from an instruction."""
    if mode is AblationMode.ALL:
        return ""
    # An unknown token is in no drop set, so it stays.
    return " ".join(filterfalse(lexicon._drops[mode].__contains__, tokenize(instruction)))


def ablate_dataset(records: list[DatasetRecord], mode: AblationMode,
                   lexicon: PosLexicon) -> list[DatasetRecord]:
    """The records with every instruction ablated, all else kept."""
    def column(name: str) -> Iterator:
        return map(attrgetter(name), records)

    ablated = (tuple(map(ablate, texts, repeat(mode), repeat(lexicon)))
               for texts in column("instructions"))
    # DatasetRecord's fields in order, as its constructor takes them.
    return from_columns(DatasetRecord, [column("path_id"), column("scan"), column("heading"),
                                        column("path"), ablated, column("distance")], len(records))
