"""Canonical encoding, request digests, and request validation."""

import json

import pytest

from repro.api import load
from repro.errors import ModelError, ReproError
from repro.serve.encoding import (
    bundle_from_payload,
    bundle_to_payload,
    canonical_bytes,
    canonical_json,
    canonical_system,
    parse_analyze_request,
    parse_explore_request,
    parse_simulate_request,
    request_digest,
)
from tests.malformed_systems import MALFORMED_SYSTEMS


class TestCanonicalJson:
    def test_sorted_and_minimal(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_key_order_irrelevant(self):
        assert canonical_bytes({"x": 1, "y": 2}) == canonical_bytes(
            {"y": 2, "x": 1}
        )

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"v": float("nan")})


class TestRequestDigest:
    def test_stable_across_dict_order(self):
        a = request_digest("analyze", {"p": 1, "q": 2})
        b = request_digest("analyze", {"q": 2, "p": 1})
        assert a == b

    def test_differs_by_endpoint_and_params(self):
        params = {"p": 1}
        assert request_digest("analyze", params) != request_digest(
            "simulate", params
        )
        assert request_digest("analyze", {"p": 1}) != request_digest(
            "analyze", {"p": 2}
        )

    def test_suite_name_and_inline_payload_coalesce(self):
        # Suites carry no mapping, so explore (which builds one) is the
        # endpoint a suite name is a valid request for.
        inline = bundle_to_payload(load("cruise"))
        by_name = parse_explore_request({"system": "cruise"})
        by_payload = parse_explore_request({"system": inline})
        assert request_digest("explore", by_name) == request_digest(
            "explore", by_payload
        )

    @pytest.mark.parametrize(
        "parse", [parse_analyze_request, parse_simulate_request]
    )
    def test_mapping_less_system_rejected_at_parse(self, parse):
        with pytest.raises(ReproError, match="cruise carries no mapping"):
            parse({"system": "cruise"})
        inline = bundle_to_payload(load("cruise"))
        with pytest.raises(ReproError, match="system carries no mapping"):
            parse({"system": inline})

    def test_dropped_string_and_list_coalesce(self, bundle):
        payload = bundle_to_payload(bundle)
        a, _ = parse_analyze_request({"system": payload, "dropped": "lo"})
        b, _ = parse_analyze_request({"system": payload, "dropped": ["lo"]})
        assert request_digest("analyze", a) == request_digest("analyze", b)


class TestResolveSystemPaths:
    """``api.load(..., allow_paths=False)``: the server's resolver."""

    def test_paths_disabled_by_default(self, tmp_path):
        with pytest.raises(ReproError, match="allow-local-paths"):
            load(str(tmp_path / "system.json"), allow_paths=False)
        with pytest.raises(ReproError, match="allow-local-paths"):
            parse_analyze_request({"system": str(tmp_path / "system.json")})

    def test_suite_names_allowed_without_opt_in(self):
        bundle = load("cruise", allow_paths=False)
        assert bundle.applications.graphs

    def test_paths_resolve_when_opted_in(self, bundle, tmp_path):
        from repro.model.serialization import save_system

        path = tmp_path / "system.json"
        save_system(
            path,
            bundle.applications,
            bundle.architecture,
            bundle.mapping,
            bundle.plan,
        )
        _params, loaded = parse_analyze_request(
            {"system": str(path)}, allow_paths=True
        )
        assert bundle_to_payload(loaded) == bundle_to_payload(bundle)

    def test_missing_path_does_not_leak_existence_by_default(self, tmp_path):
        # Whether or not the file exists, the gated error is identical.
        present = tmp_path / "present.json"
        present.write_text("{}")
        messages = set()
        for spec in (present, tmp_path / "absent.json"):
            with pytest.raises(ReproError, match="unknown suite") as info:
                load(str(spec), allow_paths=False)
            messages.add(str(info.value).replace(str(spec), "<spec>"))
        assert len(messages) == 1


class TestMalformedSystem:
    @pytest.mark.parametrize("system, field", MALFORMED_SYSTEMS)
    def test_every_served_parse_rejects(self, system, field):
        for parse in (
            parse_analyze_request,
            parse_simulate_request,
            parse_explore_request,
        ):
            with pytest.raises(ModelError, match=field):
                parse({"system": system})


class TestBundlePayload:
    def test_round_trip(self, bundle):
        payload = bundle_to_payload(bundle)
        again = bundle_to_payload(bundle_from_payload(payload))
        assert canonical_json(payload) == canonical_json(again)

    def test_payload_is_json_clean(self, bundle):
        json.dumps(bundle_to_payload(bundle))

    def test_missing_sections_rejected(self):
        with pytest.raises(ReproError, match="applications"):
            bundle_from_payload({"architecture": {}})

    def test_canonical_system_inlines_names(self):
        payload = canonical_system("cruise")
        assert payload["applications"] == bundle_to_payload(load("cruise"))[
            "applications"
        ]


class TestParseAnalyze:
    def test_defaults(self, bundle):
        params, parsed = parse_analyze_request(
            {"system": bundle_to_payload(bundle)}
        )
        assert bundle_to_payload(parsed) == bundle_to_payload(bundle)
        assert params["method"] == "proposed"
        assert params["granularity"] == "job"
        assert params["policy"] == "fp"
        assert params["dropped"] == []
        assert params["deadline_seconds"] is None

    def test_unknown_field_rejected(self, bundle):
        with pytest.raises(ReproError, match="unknown field"):
            parse_analyze_request(
                {"system": bundle_to_payload(bundle), "verbose": True}
            )

    def test_bad_method_rejected(self, bundle):
        with pytest.raises(ReproError, match="method"):
            parse_analyze_request(
                {"system": bundle_to_payload(bundle), "method": "bogus"}
            )

    def test_system_required(self):
        with pytest.raises(ReproError, match="system"):
            parse_analyze_request({"method": "proposed"})

    def test_non_object_body_rejected(self):
        with pytest.raises(ReproError, match="JSON object"):
            parse_analyze_request([1, 2])


class TestParseSimulate:
    def test_defaults(self, bundle):
        params, parsed = parse_simulate_request(
            {"system": bundle_to_payload(bundle)}
        )
        assert bundle_to_payload(parsed) == bundle_to_payload(bundle)
        assert params["profiles"] == 500
        assert params["seed"] == 0
        assert params["max_faults"] == 3
        assert params["worst_bias"] == 0.5

    def test_worst_bias_bounds(self, bundle):
        with pytest.raises(ReproError, match="worst_bias"):
            parse_simulate_request(
                {"system": bundle_to_payload(bundle), "worst_bias": 1.5}
            )

    def test_profiles_must_be_positive(self, bundle):
        with pytest.raises(ReproError, match="profiles"):
            parse_simulate_request(
                {"system": bundle_to_payload(bundle), "profiles": 0}
            )


class TestParseExplore:
    def test_defaults(self, bundle):
        params = parse_explore_request({"system": bundle_to_payload(bundle)})
        assert params["generations"] == 25
        assert params["population"] == 32
        assert params["checkpoint_every"] == 2

    def test_deadline_must_be_positive(self, bundle):
        with pytest.raises(ReproError, match="deadline_seconds"):
            parse_explore_request(
                {"system": bundle_to_payload(bundle), "deadline_seconds": 0}
            )

    def test_bool_not_an_int(self, bundle):
        with pytest.raises(ReproError, match="generations"):
            parse_explore_request(
                {"system": bundle_to_payload(bundle), "generations": True}
            )
