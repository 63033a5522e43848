"""HTTP message models.

Application traffic in the simulation is HTTP(-over-TLS).  These models are
what a device hands to the router; whether an observer sees the parsed
message or only ciphertext metadata is decided by the vantage point
(:mod:`repro.netsim.router`).

Parse-once contract: an :class:`HttpRequest` parses its URL exactly once,
in the validation step of its constructor (:func:`parse_url`, which
returns what ``urlparse`` does), and keeps the result.  ``host``,
``path``, ``is_https``, ``query_pairs``, ``query_values`` and
``to_payload`` all read those stored parts; the query string itself is
split into pairs at most once per request, and not at all when the
builder hands over the :class:`EncodedQuery` that :func:`encode_query`
rendered into the URL.  ``urlencode`` stays the one renderer of query
strings, so every URL a request log or export records is the string it
always was.
"""

from __future__ import annotations

import re
from collections import abc
from dataclasses import InitVar, dataclass, field
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple
from urllib.parse import ParseResult, parse_qsl, urlencode, urlparse

__all__ = [
    "EncodedQuery",
    "HttpRequest",
    "HttpResponse",
    "encode_query",
    "estimate_size",
    "netloc_host",
    "parse_url",
]

#: ``(key, value)`` query parameters in URL order, as ``parse_qsl`` reads them.
QueryPairs = Tuple[Tuple[str, str], ...]

_METHODS = frozenset({"GET", "POST", "PUT", "DELETE", "HEAD"})
_SCHEMES = frozenset({"http", "https"})

#: The shape of nearly every simulated URL: an ASCII string with a
#: lowercase http(s) scheme, no tab/CR/LF (which ``urlsplit`` deletes)
#: and no IPv6 brackets in the authority (which it validates).  For such
#: a string these groups are exactly the parts ``urlsplit`` returns.
_PLAIN_URL = re.compile(
    r"(https?)://([^/?#\[\]\t\r\n]*)(/[^?#\t\r\n]*)?"
    r"(?:\?([^#\t\r\n]*))?(?:#([^\t\r\n]*))?"
)


def parse_url(url: str) -> ParseResult:
    """``urlparse(url)``, without its generic overhead for plain URLs.

    ``urlparse`` is the largest single cost of a crawl (one call per
    browser hop), and the regex path is several times faster.
    """
    match = _PLAIN_URL.fullmatch(url) if url.isascii() else None
    if match is None:
        return urlparse(url)
    scheme, netloc, path, query, fragment = match.groups("")
    params = ""
    if ";" in path:
        # As urlparse: ``;params`` split off the last path segment only.
        cut = path.find(";", path.rfind("/"))
        if cut >= 0:
            path, params = path[:cut], path[cut + 1 :]
    return ParseResult(scheme, netloc, path, params, query, fragment)


def netloc_host(netloc: str) -> str:
    """The host of a URL authority: ``netloc`` without its ``:port``.

    The one host rule of the simulation — request routing, cookie jars
    and sync attribution all key parties by it.
    """
    return netloc.split(":")[0]


class EncodedQuery(NamedTuple):
    """A rendered query string and the pairs ``parse_qsl`` reads back from it."""

    text: str
    pairs: QueryPairs


def encode_query(params: Mapping[str, Any]) -> EncodedQuery:
    """Render ``params`` as a query string, keeping the pairs it encodes.

    ``text`` is ``urlencode(params)``; ``pairs`` are ``(key, str(value))``
    in order, with empty values dropped as ``parse_qsl`` drops them.  Keys
    and values must be ``str`` or ``int``: for those the pairs are exactly
    what ``parse_qsl(text)`` returns.  Anything else (``bytes`` above all,
    which ``urlencode`` renders differently from ``str``) raises
    ``TypeError``.
    """
    pairs = []
    for key, value in params.items():
        for item in (key, value):
            if not isinstance(item, (str, int)):
                raise TypeError(
                    f"encode_query takes str or int keys and values, not {item!r}"
                )
        text = str(value)
        if text:
            pairs.append((str(key), text))
    return EncodedQuery(urlencode(params), tuple(pairs))


@dataclass(frozen=True)
class HttpRequest:
    """An HTTP request issued by a device or browser.

    ``body`` carries the parsed application payload (e.g. the data types a
    skill uploads); ``cookies`` carry client-side identifiers, which is what
    cookie-sync detection inspects.  ``encoded_query`` optionally hands over
    the :func:`encode_query` result the builder rendered into ``url``; it
    must be that URL's query verbatim (``ValueError`` otherwise).  Without
    it the pairs are parsed on first use.
    """

    method: str
    url: str
    headers: Mapping[str, str] = field(default_factory=dict)
    cookies: Mapping[str, str] = field(default_factory=dict)
    body: Mapping[str, Any] = field(default_factory=dict)
    encoded_query: InitVar[Optional[EncodedQuery]] = None

    def __post_init__(self, encoded_query: Optional[EncodedQuery]) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unsupported HTTP method: {self.method}")
        parsed = parse_url(self.url)
        if parsed.scheme not in _SCHEMES or not parsed.netloc:
            raise ValueError(f"invalid URL: {self.url}")
        pairs = None
        if encoded_query is not None:
            if encoded_query.text != parsed.query:
                raise ValueError(
                    f"encoded query {encoded_query.text!r} is not the query of {self.url}"
                )
            pairs = encoded_query.pairs
        # Frozen: the parse is stored once, behind the public fields.
        object.__setattr__(self, "_parsed", parsed)
        object.__setattr__(self, "_host", netloc_host(parsed.netloc))
        object.__setattr__(self, "_pairs", pairs)

    @property
    def host(self) -> str:
        return self._host

    @property
    def path(self) -> str:
        return self._parsed.path or "/"

    @property
    def is_https(self) -> bool:
        return self._parsed.scheme == "https"

    def _query_pairs(self) -> QueryPairs:
        pairs = self._pairs
        if pairs is None:
            pairs = tuple(parse_qsl(self._parsed.query))
            object.__setattr__(self, "_pairs", pairs)
        return pairs

    @property
    def query_pairs(self) -> List[Tuple[str, str]]:
        """All query parameters in URL order, duplicates preserved.

        ``uid=a&uid=b`` carries *two* IDs; a caller that wants a mapping
        builds ``dict(request.query_pairs)`` and so chooses last-wins
        explicitly.
        """
        return list(self._query_pairs())

    def query_values(self, key: str) -> List[str]:
        """Every value carried for ``key``, in URL order."""
        return [value for name, value in self._query_pairs() if name == key]

    def with_query(self, **params: str) -> "HttpRequest":
        """Return a copy with extra query parameters merged in."""
        merged = dict(self._query_pairs())
        merged.update(params)
        encoded = encode_query(merged)
        return HttpRequest(
            method=self.method,
            url=self._parsed._replace(query=encoded.text).geturl(),
            headers=self.headers,
            cookies=self.cookies,
            body=self.body,
            encoded_query=encoded,
        )

    def to_payload(self) -> Dict[str, Any]:
        """Serialize into a packet payload mapping."""
        return {
            "kind": "http-request",
            "method": self.method,
            "url": self.url,
            "host": self.host,
            "path": self.path,
            # A mapping: the last value wins for a repeated key.
            "query": dict(self._query_pairs()),
            "headers": dict(self.headers),
            "cookies": dict(self.cookies),
            "body": dict(self.body),
        }


@dataclass(frozen=True)
class HttpResponse:
    """An HTTP response delivered back to the client."""

    status: int
    headers: Mapping[str, str] = field(default_factory=dict)
    set_cookies: Mapping[str, str] = field(default_factory=dict)
    body: Mapping[str, Any] = field(default_factory=dict)
    #: Follow-up URL for 3xx responses — how cookie-sync redirect chains run.
    redirect_url: Optional[str] = None

    def __post_init__(self) -> None:
        if not 100 <= self.status <= 599:
            raise ValueError(f"invalid HTTP status: {self.status}")
        if self.redirect_url is not None and not 300 <= self.status <= 399:
            raise ValueError("redirect_url requires a 3xx status")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": "http-response",
            "status": self.status,
            "headers": dict(self.headers),
            "set_cookies": dict(self.set_cookies),
            "body": dict(self.body),
            "redirect_url": self.redirect_url,
        }


def estimate_size(payload: Mapping[str, Any]) -> int:
    """Rough wire size (bytes) of a parsed message, for flow statistics."""
    return 64 + _measure(payload)  # 64 ≈ framing overhead


def _measure(value: Any) -> int:
    # Dispatch on the exact type first: payloads are plain dicts, lists
    # and strs, and ``type(...) is`` costs a fraction of an ``isinstance``
    # against an ABC.  Any other type takes the generic rule: a mapping
    # when ``issubclass(type(value), Mapping)`` (exactly what
    # ``isinstance(value, typing.Mapping)`` computes), then any list or
    # tuple, else the length of ``str(value)``.
    kind = type(value)
    if kind is str:
        return len(value)
    if kind is not dict and kind is not list and kind is not tuple:
        if issubclass(kind, abc.Mapping):
            kind = dict
        elif isinstance(value, (list, tuple)):
            kind = list
        else:
            return len(str(value))
    # Plain loops with str leaves inlined: no generator frame per node.
    total = 0
    if kind is dict:
        for key, item in value.items():
            total += len(str(key)) + 4
            total += len(item) if type(item) is str else _measure(item)
    else:
        for item in value:
            total += 2 + (len(item) if type(item) is str else _measure(item))
    return total
