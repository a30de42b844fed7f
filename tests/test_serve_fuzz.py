"""Generated request bodies against ``/v1/estimate`` and ``/v1/simulate``.

Every body goes through :meth:`EstimationService.dispatch` on one
started ``arpa`` service: wrong types, negative and non-finite numbers,
``k <= 1``, huge ``depth``, unknown topologies and algorithms, JSON that
is not an object, and truncated or empty bytes.  Whatever arrives, the
answer must be a 200 or a 4xx whose body is strict JSON (no ``NaN``),
never a 500.  Group sizes stay small enough that an exact simulation on
``arpa`` finishes in milliseconds.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import EstimationService, ServiceConfig

#: Anything a JSON field can hold, most of it wrong for every field.
_JUNK = (
    st.none()
    | st.booleans()
    | st.integers(-3, 250)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([10**400, -(10**400), 1e308])
    | st.text(max_size=5)
)


def _objects(required, optional):
    """Well-typed objects, often with one field dropped or made junk.

    Spoiling at most one field per body drives each validation branch
    in turn, and the unspoiled bodies reach the table, the simulator
    and the closed forms.
    """

    @st.composite
    def build(draw):
        payload = {key: draw(value) for key, value in required.items()}
        for key, value in optional.items():
            if draw(st.booleans()):
                payload[key] = draw(value)
        spoiled = draw(st.sampled_from([None, None, *required, *optional]))
        if spoiled is not None:
            if draw(st.booleans()):
                payload.pop(spoiled, None)
            else:
                payload[spoiled] = draw(_JUNK)
        return payload

    return build()


_TOPOLOGY = st.sampled_from(["arpa", "arpa", "ARPA", "atlantis"])
_ALGORITHM = st.sampled_from(["spt", "steiner-tm", "dst-approx", "kdisjoint", "nope"])
_ESTIMATE = _objects(
    {
        "k": st.floats(1.01, 8.0)
        | st.integers(2, 8)
        | st.sampled_from([-1, 0, 1, 1.0, 0.5]),
        "depth": st.integers(1, 12) | st.sampled_from([0, -2, 3000, 10**6]),
    },
    {
        "n": st.floats(0.0, 1e4) | st.integers(-2, 10**4),
        "m": st.floats(0.0, 1e4) | st.integers(-2, 10**4),
        "receivers": st.sampled_from(["leaf", "throughout", "root"]),
        "form": st.sampled_from(["exact", "asymptotic", "guess"]),
        "algorithm": _ALGORITHM,
        "topology": _TOPOLOGY,
    },
)
_SIMULATE = _objects(
    {"topology": _TOPOLOGY, "m": st.integers(1, 46) | st.integers(-2, 250)},
    {
        "mode": st.sampled_from(["distinct", "replacement", "bogus"]),
        "exact": st.booleans(),
        "deadline_ms": st.sampled_from([0, -1, 1, 50, 5000]),
        "algorithm": _ALGORITHM,
    },
)
_NOT_AN_OBJECT = st.one_of(
    st.lists(st.integers(), max_size=3),
    st.integers(),
    st.text(max_size=5),
    st.none(),
)


def _encode(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


@st.composite
def _bodies(draw):
    """``(path, body bytes)``: objects, non-objects, truncated, empty."""
    path = draw(st.sampled_from(["/v1/estimate", "/v1/simulate"]))
    objects = _ESTIMATE if path == "/v1/estimate" else _SIMULATE
    kind = draw(
        st.sampled_from(["object"] * 6 + ["not-object", "truncated", "empty"])
    )
    if kind == "empty":
        return path, b""
    if kind == "not-object":
        return path, _encode(draw(_NOT_AN_OBJECT))
    body = _encode(draw(objects))
    if kind == "truncated":
        body = body[: draw(st.integers(0, max(0, len(body) - 1)))]
    return path, body


def _strict(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.fixture(scope="module")
def arpa_service():
    loop = asyncio.new_event_loop()
    service = EstimationService(
        ServiceConfig(
            topologies=("arpa",),
            num_sources=2,
            num_receiver_sets=2,
            executor_threads=2,
        )
    )
    loop.run_until_complete(service.startup())
    yield loop, service

    async def drain():
        while len(service._flight):
            await asyncio.sleep(0.01)
        await service.shutdown()

    loop.run_until_complete(drain())
    loop.close()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(request=_bodies())
def test_generated_bodies_never_answer_500(arpa_service, request):
    loop, service = arpa_service
    path, body = request
    response = loop.run_until_complete(service.dispatch("POST", path, body))
    assert response.status == 200 or 400 <= response.status < 500, (
        path, body, response.status, response.body,
    )
    answer = json.loads(response.body, parse_constant=_strict)
    assert isinstance(answer, dict)
    if response.status != 200:
        assert isinstance(answer.get("error"), str)
