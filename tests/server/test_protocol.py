"""Request parsing, canonicalisation, and content-addressed keys."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.server.protocol import (EvalRequest, ProtocolError, etag_for,
                                   parse_request, request_key)


def test_defaults():
    request = parse_request({})
    assert request.fu == "ialu"
    assert request.workloads  # the integer suite
    assert "original" in request.policies
    assert request.swap_modes == ("none", "hw")
    assert request.stats == "measured"
    assert not request.synthetic


def test_synthetic_takes_no_workloads():
    request = parse_request({"synthetic": True})
    assert request.workloads == ()
    with pytest.raises(ProtocolError, match="no 'workloads'"):
        parse_request({"synthetic": True, "workloads": ["li"]})


def test_synthetic_rejects_compiler_modes():
    with pytest.raises(ProtocolError, match="compiler"):
        parse_request({"synthetic": True,
                       "swap_modes": ["none", "compiler"]})


def test_baseline_policy_always_present():
    request = parse_request({"policies": ["lut-4"]})
    assert "original" in request.policies


@pytest.mark.parametrize("payload,fragment", [
    ([], "JSON object"),
    ({"bogus_field": 1}, "unknown request field"),
    ({"fu": "gpu"}, "'fu' must be"),
    ({"policies": []}, "non-empty"),
    ({"policies": ["definitely-not-a-policy"]}, "unknown policy kind"),
    ({"swap_modes": ["sideways"]}, "unknown swap mode"),
    ({"workloads": ["no-such-kernel"]}, "unknown workload"),
    ({"scale": 0}, "'scale'"),
    ({"cycles": 0}, "'cycles'"),
    ({"stats": "vibes"}, "'stats'"),
    ({"engine": "turbo"}, "'engine'"),
    ({"engine": "auto"}, "'engine' must be one of batch, object"),
    ({"delay_ms": -5}, "'delay_ms'"),
    ({"config": {"telemetry": 1}}, "unknown config override"),
    ({"config": {"rob_entries": "many"}}, "must be an int"),
], ids=lambda v: str(v)[:40])
def test_rejects(payload, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        parse_request(payload)


def test_config_override_reaches_machine_config():
    request = parse_request({"config": {"rob_entries": 32}})
    assert request.machine_config().rob_entries == 32


def test_payload_round_trip():
    request = parse_request({"workloads": ["li"], "policies": ["lut-4"],
                             "config": {"rob_entries": 32}})
    assert EvalRequest.from_payload(request.to_payload()) == request


POLICY_SETS = st.lists(
    st.sampled_from(["original", "lut-4", "lut-2", "full-ham", "1bit-ham"]),
    min_size=1, max_size=5, unique=True)
WORKLOAD_SETS = st.lists(
    st.sampled_from(["li", "compress", "go", "ijpeg"]),
    min_size=1, max_size=4, unique=True)


@settings(max_examples=40, deadline=None)
@given(policies=POLICY_SETS, workloads=WORKLOAD_SETS,
       data=st.data())
def test_key_invariant_under_permutation(policies, workloads, data):
    """Reordered (even duplicated) policy/workload lists name the same
    evaluation, so they must produce the same key and ETag."""
    shuffled_p = data.draw(st.permutations(policies))
    shuffled_w = data.draw(st.permutations(workloads))
    a = parse_request({"policies": policies, "workloads": workloads})
    b = parse_request({"policies": list(shuffled_p) + [policies[0]],
                       "workloads": list(shuffled_w) + [workloads[0]]})
    assert a == b
    fingerprints = ["f" * 64] * len(a.workloads)
    assert request_key(a, fingerprints) == request_key(b, fingerprints)


def test_key_sensitive_to_content():
    base = parse_request({"synthetic": True})
    assert request_key(base, []) != request_key(
        parse_request({"synthetic": True, "seed": 1}), [])
    assert request_key(base, []) != request_key(
        parse_request({"synthetic": True, "cycles": 999}), [])
    real = parse_request({"workloads": ["li"]})
    assert request_key(real, ["a" * 64]) != request_key(real, ["b" * 64])


def test_engine_and_delay_excluded_from_key():
    """All engines are bit-identical and delay_ms is a test knob, so
    neither may split the cache."""
    a = parse_request({"synthetic": True, "engine": "object"})
    b = parse_request({"synthetic": True, "engine": "batch"})
    c = parse_request({"synthetic": True, "delay_ms": 50})
    assert request_key(a, []) == request_key(b, []) == request_key(c, [])


def test_etag_is_quoted_key():
    key = request_key(parse_request({"synthetic": True}), [])
    assert etag_for(key) == f'"{key}"'
