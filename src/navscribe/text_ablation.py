"""Part-of-speech driven instruction ablations.

A lexicon file maps tokens, each a single word as ``tokenize`` yields it
(lowercase, no punctuation), to one of three tags (noun, adjective,
other), one ``token<TAB>tag`` pair per line. Ablation tokenizes exactly like
the supervision exporter, drops tokens whose tag matches the mode, and joins
the survivors with single spaces. Unknown tokens count as ``other`` and are
never dropped except by mode ``all``. Direction words are deliberately
tagged ``other`` in the bundled lexicon so ablations never strip them.
"""
from __future__ import annotations

from enum import Enum
from importlib import resources

from .scene_metadata import LineError as LexiconError  # the lexicon reader's name for it
from .scene_metadata import numbered_lines
from .supervision_export import tokenize

# token -> tag; tags are the strings below
PosLexicon = dict[str, str]

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


def load_lexicon(text: str) -> PosLexicon:
    """Parse lexicon text; duplicate tokens and unknown tags are errors."""
    lexicon: PosLexicon = {}
    for line_no, raw in numbered_lines(text):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            raise LexiconError(f"expected 'token<TAB>tag', found {raw!r}", line_no)
        token, tag = parts[0].strip(), parts[1].strip()
        if not token:
            raise LexiconError("empty token", line_no)
        if tokenize(token) != [token]:  # an entry instructions can never match
            raise LexiconError("token must be one lowercase word without punctuation, "
                               f"found {token!r}", line_no)
        if tag not in VALID_TAGS:
            raise LexiconError(f"unknown tag {tag!r} for token {token!r}", line_no)
        if token in lexicon:
            raise LexiconError(f"duplicate token {token!r}", line_no)
        lexicon[token] = tag
    return lexicon


def load_default_lexicon() -> PosLexicon:
    """The lexicon bundled with the package."""
    resource = resources.files("navscribe").joinpath("data").joinpath(DEFAULT_LEXICON_RESOURCE)
    return load_lexicon(resource.read_text("utf-8"))


def ablate(instruction: str, mode: AblationMode, lexicon: PosLexicon) -> str:
    """Drop the mode's word classes from an instruction."""
    if mode is AblationMode.ALL:
        return ""
    dropped = _DROPPED_TAGS[mode]
    # An unknown token gives None, which is never a dropped tag.
    return " ".join([t for t in tokenize(instruction) if lexicon.get(t) not in dropped])
