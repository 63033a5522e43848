"""Parse-once HTTP requests agree with ``urllib.parse`` (the oracle).

:class:`~repro.netsim.http.HttpRequest` parses its URL once — through a
fast path for plain URLs — and :func:`~repro.netsim.http.encode_query`
hands query pairs to requests so they are never parsed back.  Both must
be indistinguishable from ``urlparse``/``parse_qsl`` on the same string.
"""

from urllib.parse import parse_qsl, urlencode, urlparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.http import HttpRequest, encode_query, parse_url

# Text without lone surrogates (urlencode cannot encode those).
_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
_label = st.text("abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=10)
# Characters that change how a URL splits or decodes.
_url_chars = st.sampled_from(
    list("abcXYZ019-_.~=+&;/?#%:@!$',*") + ["%2B", "%20", "%3D", "%26", "%zz"]
)
_chunk = st.lists(_url_chars, max_size=8).map("".join)


@st.composite
def http_urls(draw):
    scheme = draw(st.sampled_from(["http", "https", "HTTPS", "Http"]))
    host = ".".join(draw(st.lists(_label, min_size=1, max_size=3)))
    port = draw(st.one_of(st.just(""), st.integers(1, 65535).map(lambda p: f":{p}")))
    segments = draw(st.lists(_chunk, max_size=3))
    path = "".join(f"/{segment}" for segment in segments)
    params = draw(st.one_of(st.just(""), _chunk.map(lambda p: f";{p}")))
    keys = draw(st.lists(st.sampled_from(["uid", "x", "a+b", "k%20", ""]), max_size=5))
    values = draw(st.lists(_chunk, min_size=len(keys), max_size=len(keys)))
    pairs = [f"{key}={value}" for key, value in zip(keys, values)]
    # Repeated keys (uid=a&uid=b), bare keys and empty queries all occur.
    query = draw(st.one_of(st.just(None), st.just(""), st.just("&".join(pairs))))
    fragment = draw(st.one_of(st.just(None), _chunk))
    noise = draw(st.sampled_from(["", "", "", "\t", "é", "[", " "]))
    url = f"{scheme}://{host}{port}{path}{params}"
    if query is not None:
        url += f"?{query}"
    if fragment is not None:
        url += f"#{fragment}"
    cut = draw(st.integers(0, len(url)))
    return url[:cut] + noise + url[cut:]


def _oracle_valid(url):
    try:
        parsed = urlparse(url)
    except ValueError:
        return None
    if parsed.scheme not in {"http", "https"} or not parsed.netloc:
        return None
    return parsed


class TestParseUrlMatchesUrlparse:
    @settings(max_examples=400, deadline=None)
    @given(http_urls())
    def test_http_urls(self, url):
        try:
            expected = urlparse(url)
        except ValueError:
            with pytest.raises(ValueError):
                parse_url(url)
            return
        assert parse_url(url) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_arbitrary_text(self, url):
        try:
            expected = urlparse(url)
        except ValueError:
            with pytest.raises(ValueError):
                parse_url(url)
            return
        assert parse_url(url) == expected


class TestRequestMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(http_urls())
    def test_parts_equal_urllib(self, url):
        parsed = _oracle_valid(url)
        if parsed is None:
            with pytest.raises(ValueError):
                HttpRequest("GET", url)
            return
        request = HttpRequest("GET", url)
        pairs = parse_qsl(parsed.query)
        assert request.host == parsed.netloc.split(":")[0]
        assert request.path == (parsed.path or "/")
        assert request.is_https == (parsed.scheme == "https")
        assert request.query_pairs == pairs
        assert request.query_values("uid") == [v for k, v in pairs if k == "uid"]
        assert request.to_payload()["query"] == dict(pairs)


class TestBuilderPairs:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(_text, st.one_of(_text, st.integers()), max_size=6))
    def test_handed_over_pairs_equal_parse_qsl(self, params):
        encoded = encode_query(params)
        assert encoded.text == urlencode(params)  # urlencode stays the renderer
        url = f"https://bid.example.com/bid?{encoded.text}"
        oracle = parse_qsl(urlparse(url).query)
        assert list(encoded.pairs) == oracle
        request = HttpRequest("GET", url, encoded_query=encoded)
        assert request.query_pairs == oracle
        assert request.to_payload()["query"] == dict(oracle)

    @pytest.mark.parametrize(
        "params", [{"uid": b"x"}, {b"uid": "x"}, {"cpm": 1.5}, {"ids": ["a", "b"]}]
    )
    def test_other_types_rejected(self, params):
        # urlencode renders b"x" as "x" while str(b"x") is "b'x'".
        with pytest.raises(TypeError):
            encode_query(params)

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(_text, _text, max_size=4),
        st.dictionaries(_text, _text, max_size=4),
    )
    def test_pairs_of_another_query_rejected(self, rendered, handed):
        url = f"https://bid.example.com/bid?{urlencode(rendered)}"
        encoded = encode_query(handed)
        if encoded.text == urlencode(rendered):
            assert HttpRequest("GET", url, encoded_query=encoded).query_pairs == list(
                encoded.pairs
            )
        else:
            with pytest.raises(ValueError):
                HttpRequest("GET", url, encoded_query=encoded)
