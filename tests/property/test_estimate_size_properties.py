"""``estimate_size`` agrees with the generic recursive walker it replaced.

:func:`~repro.netsim.http.estimate_size` dispatches on the exact type of
each node and falls back to ABC checks only for other types.  The oracle
below is the earlier walker, frozen: ``isinstance`` against
``typing.Mapping`` first, then ``(list, tuple)``, else ``len(str(...))``.
Every payload shape — mapping and sequence subclasses, read-only
mappings, namedtuples, non-str keys and scalars of every kind — must
size the same under both.
"""

import typing
from collections import OrderedDict, namedtuple
from types import MappingProxyType

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.http import estimate_size

Pair = namedtuple("Pair", "left right")


class TaggedDict(dict):
    pass


class TaggedTuple(tuple):
    pass


class TaggedStr(str):
    def __str__(self):
        return f"<{super().__str__()}>"


def oracle_size(payload):
    def measure(value):
        if isinstance(value, typing.Mapping):
            return sum(len(str(k)) + measure(v) + 4 for k, v in value.items())
        if isinstance(value, (list, tuple)):
            return sum(measure(v) + 2 for v in value)
        return len(str(value))

    return 64 + measure(payload)


_scalars = st.one_of(
    st.text(max_size=12),
    st.text(max_size=6).map(TaggedStr),
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.binary(max_size=8),
)
_keys = st.one_of(
    st.text(max_size=8),
    st.integers(-1000, 1000),
    st.booleans(),
    st.none(),
    st.tuples(st.integers(0, 9), st.text(max_size=3)),
)


def _containers(children):
    dicts = st.dictionaries(_keys, children, max_size=4)
    return st.one_of(
        dicts,
        dicts.map(OrderedDict),
        dicts.map(TaggedDict),
        dicts.map(MappingProxyType),
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(TaggedTuple),
        st.tuples(children, children).map(lambda pair: Pair(*pair)),
    )


_values = st.recursive(_scalars, _containers, max_leaves=25)
_payloads = st.one_of(
    st.dictionaries(_keys, _values, max_size=6),
    st.dictionaries(_keys, _values, max_size=6).map(MappingProxyType),
    st.dictionaries(_keys, _values, max_size=6).map(OrderedDict),
)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_estimate_size_matches_oracle(payload):
    assert estimate_size(payload) == oracle_size(payload)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_any_node_sizes_like_the_oracle(value):
    # estimate_size is typed for mappings but walks any node the same way.
    assert estimate_size(value) == oracle_size(value)


def test_packet_payload_shapes():
    payloads = [
        {"kind": "dns-query", "domain": "api.amazon.com"},
        {"kind": "dns-response", "answers": []},
        {"kind": "dns-response", "answers": [{"domain": "a.b", "ip": "1.2.3.4", "ttl": 60}]},
        {"kind": "http-response", "status": 503, "redirect_url": None, "body": {"ok": True}},
        {1: 2.5, None: b"x", (1, "a"): [True, None]},
    ]
    for payload in payloads:
        assert estimate_size(payload) == oracle_size(payload)
