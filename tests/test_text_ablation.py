"""Lexicon parsing and word-class ablation."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navscribe.supervision_export import PUNCTUATION, tokenize
from navscribe.text_ablation import (_DROPPED_TAGS, AblationMode, LexiconError, ablate,
                                     load_default_lexicon, load_lexicon)

SMALL = load_lexicon(
    "sofa\tnoun\n"
    "piano\tnoun\n"
    "stairs\tnoun\n"
    "red\tadjective\n"
    "left\tother\n"
    "walk\tother\n"
)


class TestLoadLexicon:
    def test_parses_tags(self):
        assert SMALL["sofa"] == "noun"
        assert SMALL["red"] == "adjective"
        assert SMALL["left"] == "other"

    def test_read_only_and_equal_to_its_source(self):
        # Drop sets are computed at load, so an edit would leave them stale.
        lex = load_lexicon("sofa\tnoun\nred\tadjective\n")
        with pytest.raises(TypeError):
            lex["sofa"] = "other"
        with pytest.raises(TypeError):
            del lex["red"]
        assert lex == {"sofa": "noun", "red": "adjective"}
        assert {"sofa": "noun", "red": "adjective"} == lex
        assert lex != {"sofa": "noun"}

    def test_blank_lines_skipped(self):
        assert load_lexicon("\n\nsofa\tnoun\n\n") == {"sofa": "noun"}

    def test_missing_tab_names_line(self):
        with pytest.raises(LexiconError, match="line 2:") as err:
            load_lexicon("sofa\tnoun\nbroken line\n")
        assert err.value.line_number == 2

    def test_unknown_tag(self):
        with pytest.raises(LexiconError, match="unknown tag 'verb'") as err:
            load_lexicon("walk\tverb\n")
        assert err.value.line_number == 1

    def test_duplicate_token(self):
        with pytest.raises(LexiconError, match="duplicate token 'sofa'") as err:
            load_lexicon("sofa\tnoun\nsofa\tnoun\n")
        assert err.value.line_number == 2

    def test_lines_end_at_newline_only(self):
        # str.splitlines would also break at U+0085 and report line 3.
        with pytest.raises(LexiconError, match="expected 'token<TAB>tag'") as err:
            load_lexicon("sofa\tnoun\x85chair\tnoun\nsofa\tnoun\n")
        assert err.value.line_number == 1
        with pytest.raises(LexiconError) as err:
            load_lexicon("sofa\tnoun\r\nbroken\r\n")
        assert str(err.value) == "line 2: expected 'token<TAB>tag', found 'broken'"

    def test_uppercase_token_rejected(self):
        with pytest.raises(LexiconError, match="lowercase"):
            load_lexicon("Sofa\tnoun\n")

    def test_empty_token_rejected(self):
        with pytest.raises(LexiconError, match="empty token"):
            load_lexicon(" \tnoun\n")

    @pytest.mark.parametrize("token", ["sofa.", "coffee table", "it's", "coffee\xa0table",
                                       "\ufeffsofa", "so\u200bfa"])
    def test_token_that_tokenizes_otherwise_rejected(self, token):
        # No instruction token can equal it, so the entry could never match.
        with pytest.raises(LexiconError, match="one lowercase word") as err:
            load_lexicon(f"red\tadjective\n{token}\tnoun\n")
        assert err.value.line_number == 2


class TestDefaultLexicon:
    def test_size_and_spot_checks(self):
        lex = load_default_lexicon()
        assert len(lex) == 790
        # Direction and template words must never be droppable.
        for word in ("turn", "left", "right", "around", "straight", "walk",
                     "go", "up", "down", "stop", "toward", "the", "there",
                     "at", "of"):
            assert lex[word] == "other", word
        assert lex["stairs"] == "noun"
        assert lex["sofa"] == "noun"
        assert lex["wooden"] == "adjective"

    def test_covers_bundled_categories(self):
        from scenes import all_scenes
        from navscribe.scene_metadata import parse_house

        lex = load_default_lexicon()
        for fixture in all_scenes():
            scene = parse_house(fixture.house_text)
            for cat in scene.categories:
                for token in cat.name.split():
                    assert token in lex, f"{token!r} missing from lexicon"


INSTRUCTION = "Turn left, walk straight toward the red sofa. Stop there."


class TestAblate:
    def test_nouns_keeps_directions(self):
        out = ablate(INSTRUCTION, AblationMode.NOUNS, SMALL)
        assert out == "turn left walk straight toward the red stop there"

    def test_adjectives(self):
        out = ablate(INSTRUCTION, AblationMode.ADJECTIVES, SMALL)
        assert out == "turn left walk straight toward the sofa stop there"

    def test_nouns_adjectives(self):
        out = ablate(INSTRUCTION, AblationMode.NOUNS_ADJECTIVES, SMALL)
        assert out == "turn left walk straight toward the stop there"

    def test_all_is_empty(self):
        assert ablate(INSTRUCTION, AblationMode.ALL, SMALL) == ""

    def test_unknown_words_survive(self):
        out = ablate("Meander behind the sofa.", AblationMode.NOUNS, SMALL)
        assert out == "meander behind the"

    def test_empty_instruction(self):
        assert ablate("", AblationMode.NOUNS, SMALL) == ""


@st.composite
def _instructions(draw):
    words = draw(st.lists(
        st.sampled_from(["sofa", "piano", "red", "left", "walk", "zzz"]),
        min_size=0, max_size=12))
    return " ".join(words)


class TestAblateProperties:
    @given(_instructions(), st.sampled_from(list(AblationMode)))
    def test_idempotent(self, text, mode):
        once = ablate(text, mode, SMALL)
        assert ablate(once, mode, SMALL) == once

    @given(_instructions(), st.sampled_from(list(AblationMode)))
    def test_output_is_subsequence(self, text, mode):
        source = tokenize(text)
        out = tokenize(ablate(text, mode, SMALL))
        it = iter(source)
        assert all(tok in it for tok in out)

    @given(_instructions())
    def test_modes_nest(self, text):
        nouns = set(tokenize(ablate(text, AblationMode.NOUNS, SMALL)))
        both = tokenize(ablate(text, AblationMode.NOUNS_ADJECTIVES, SMALL))
        assert all(tok in nouns for tok in both)


def _per_token_rule(text, mode, lexicon):
    """The reference rule, token by token: a token goes when the lexicon
    tags it with one of the mode's dropped tags."""
    if mode is AblationMode.ALL:
        return ""
    dropped = _DROPPED_TAGS[mode]
    return " ".join([t for t in tokenize(text) if lexicon.get(t) not in dropped])


# Beside plain letters, some whose case maps are not one to one: "\xdf"
# uppercases to "SS", "\u0131" to "I"; in texts, "\u0130" lowercases to
# "i\u0307" and "\u212a" (Kelvin sign) to "k".
_LETTERS = ["a", "e", "i", "k", "s", "\xe9", "\xdf", "\u0131", "i\u0307"]
_ODD = [*PUNCTUATION, "\x1c", "\x1d", "\x1e", "\x1f", "\u212a", "\u0130", " ", "\t", "\n"]
_WORDS = st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=4).map("".join)
_DEFAULT = load_default_lexicon()


@st.composite
def _lexicon_and_text(draw):
    if draw(st.booleans()):
        lexicon = _DEFAULT
    else:
        entries = draw(st.dictionaries(_WORDS, st.sampled_from(["noun", "adjective", "other"]),
                                       max_size=8))
        lexicon = load_lexicon("".join(f"{t}\t{tag}\n" for t, tag in entries.items()))
    words = st.one_of(st.sampled_from(sorted(lexicon)), _WORDS) if lexicon else _WORDS
    pieces = []
    for _ in range(draw(st.integers(0, 20))):
        if draw(st.booleans()):
            word = draw(words)
            pieces.append("".join(c.upper() if draw(st.booleans()) else c for c in word))
        else:
            pieces.append(draw(st.sampled_from(_ODD)))
    return lexicon, "".join(pieces)


@settings(max_examples=600)
@given(_lexicon_and_text(), st.sampled_from(list(AblationMode)))
def test_compiled_filter_equals_per_token_rule(lexicon_text, mode):
    lexicon, text = lexicon_text
    assert ablate(text, mode, lexicon) == _per_token_rule(text, mode, lexicon)
