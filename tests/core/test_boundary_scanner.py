"""Split invariance of the document boundary scanner.

The scanner sees a concatenated document stream cut at arbitrary offsets
by the network.  Wherever the cuts fall, the pieces it returns must
reassemble into the same documents as one unsplit feed — including when a
``>`` hides inside a quoted attribute value, a comment, a CDATA section, a
processing instruction or a DOCTYPE internal subset.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.docstream import DocumentBoundaryScanner

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_QUOTED = st.sampled_from(['"a>b"', "'>'", '"x/>"', "'q\"r>'", '"/"', "''"])
_PROLOG = st.sampled_from(
    [
        '<?xml version="1.0"?>',
        "<!-- a > b -->",
        '<!DOCTYPE r [<!ENTITY e "v>w"><!ELEMENT r ANY>]>',
        "<!DOCTYPE r>",
        "<?pi x > y?>",
        "\n",
    ]
)
_MISC = st.sampled_from(
    [
        "<![CDATA[ <x> ]] > ]]>",
        "<!-- -> -- > -->",
        "<?p a>b ?>",
        "text > more",
        "&amp;",
    ]
)


@st.composite
def _element(draw, depth: int = 0) -> str:
    name = draw(st.sampled_from(["r", "a", "bb"]))
    attributes = "".join(
        f" k{index}={value}"
        for index, value in enumerate(draw(st.lists(_QUOTED, max_size=2)))
    )
    if draw(st.booleans()):
        return f"<{name}{attributes}/>"
    children = draw(
        st.lists(
            _MISC | (_element(depth + 1) if depth < 2 else _MISC), max_size=3
        )
    )
    return f"<{name}{attributes}>{''.join(children)}</{name}>"


@st.composite
def _document(draw) -> str:
    prolog = "".join(draw(st.lists(_PROLOG, max_size=2))).lstrip()
    return prolog + draw(_element())


def _documents(chunks):
    """Feed ``chunks``; reassemble the pieces into (text, completed) units."""
    scanner = DocumentBoundaryScanner()
    units = []
    pending = ""
    for chunk in chunks:
        for segment, completed in scanner.feed(chunk):
            pending += segment
            if completed:
                units.append((pending, True))
                pending = ""
    pending += scanner.finish()
    if pending:
        units.append((pending, False))
    return units


@SETTINGS
@given(
    documents=st.lists(_document(), min_size=1, max_size=3),
    separators=st.lists(st.sampled_from(["", " ", "\n", "\r\n\t"]), min_size=3, max_size=3),
)
def test_every_split_offset_reassembles_like_one_feed(documents, separators):
    stream = "".join(doc + sep for doc, sep in zip(documents, separators))
    whole = _documents([stream])
    assert whole == [(doc, True) for doc in documents]
    for offset in range(len(stream) + 1):
        assert _documents([stream[:offset], stream[offset:]]) == whole


@SETTINGS
@given(documents=st.lists(_document(), min_size=1, max_size=2))
def test_one_character_feeds_reassemble_like_one_feed(documents):
    stream = "".join(documents)
    assert _documents(list(stream)) == _documents([stream])
