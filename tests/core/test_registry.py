"""The policy-family registry: resolution, errors, metadata, and
back-compat with the pre-registry ``make_policy`` dispatch table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.batch  # noqa: F401 -- registers the fused batch kernels
from repro.core.bdd import BDDPolicy
from repro.core.info_bits import scheme_for
from repro.core.lut import build_lut
from repro.core.registry import (PolicyFamily, PolicyNameError,
                                 PolicyRegistry, REGISTRY, exact_name,
                                 int_suffix)
from repro.core.statistics import paper_statistics
from repro.core.steering import (FullHammingPolicy, LUTPolicy,
                                 OneBitHammingPolicy, OriginalPolicy,
                                 PolicyEvaluator, RoundRobinPolicy,
                                 make_policy)
from repro.isa.instructions import FUClass
from repro.workloads.generators import SyntheticStream

LEGACY_KINDS = ("original", "round-robin", "full-ham", "1bit-ham",
                "lut-8", "lut-4", "lut-2")


def _reference_policy(kind, fu_class, num_modules, stats, allow_swap=False):
    """Hand-written equivalent of the pre-registry ``make_policy`` body:
    the oracle the registry must stay behaviourally identical to."""
    scheme = scheme_for(fu_class)
    if kind == "original":
        return OriginalPolicy()
    if kind == "round-robin":
        return RoundRobinPolicy()
    if kind == "full-ham":
        return FullHammingPolicy(allow_swap=allow_swap)
    if kind == "1bit-ham":
        return OneBitHammingPolicy(scheme=scheme, allow_swap=allow_swap)
    assert kind.startswith("lut-")
    lut = build_lut(stats, num_modules, int(kind[4:]))
    return LUTPolicy(lut=lut, scheme=scheme)


class TestErrorQuality:
    def test_malformed_lut_suffix_is_not_a_bare_int_error(self):
        with pytest.raises(PolicyNameError) as excinfo:
            make_policy("lut-abc", FUClass.IALU, 4)
        message = str(excinfo.value)
        assert "lut-abc" in message
        assert "lut-<bits>" in message
        assert "registered kinds" in message
        # not the bare int() traceback text
        assert "invalid literal" not in message

    def test_malformed_bdd_suffix(self):
        with pytest.raises(PolicyNameError, match="bdd-<bits>"):
            make_policy("bdd-x", FUClass.IALU, 4)

    def test_unknown_kind_lists_every_registered_kind(self):
        with pytest.raises(PolicyNameError) as excinfo:
            make_policy("magic", FUClass.IALU, 4)
        message = str(excinfo.value)
        for syntax in ("original", "round-robin", "full-ham", "1bit-ham",
                       "lut-<bits>", "bdd-<bits>"):
            assert syntax in message

    def test_errors_are_valueerrors_for_old_callers(self):
        with pytest.raises(ValueError):
            make_policy("magic", FUClass.IALU, 4)

    def test_stats_requirement_named_by_syntax(self):
        with pytest.raises(PolicyNameError, match="need case statistics"):
            make_policy("bdd-4", FUClass.IALU, 4)


class TestBackCompat:
    """Registry-built policies must be behaviourally identical to the
    pre-refactor dispatch table, for every legacy kind."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           num_modules=st.sampled_from([2, 4]),
           fu_class=st.sampled_from([FUClass.IALU, FUClass.FPAU]))
    def test_behaviourally_identical_on_synthetic_streams(
            self, seed, num_modules, fu_class):
        stats = paper_statistics(fu_class)
        groups = list(SyntheticStream(stats, seed=seed).groups(400))
        # a lut vector cannot encode more slots than the machine has
        # modules — the same pre-existing limit in both constructions
        kinds = [kind for kind in LEGACY_KINDS
                 if not (kind.startswith("lut-")
                         and int(kind[4:]) // 2 > num_modules)]
        for kind in kinds:
            registry_ev = PolicyEvaluator(
                fu_class, num_modules,
                make_policy(kind, fu_class, num_modules, stats=stats))
            reference_ev = PolicyEvaluator(
                fu_class, num_modules,
                _reference_policy(kind, fu_class, num_modules, stats))
            for g in groups:
                registry_ev(g)
                reference_ev(g)
            assert registry_ev.totals() == reference_ev.totals(), kind

    @pytest.mark.parametrize("kind", ("full-ham", "1bit-ham"))
    def test_allow_swap_forwarded(self, kind, ialu_stats):
        groups = list(SyntheticStream(ialu_stats, seed=9).groups(400))
        mine = PolicyEvaluator(
            FUClass.IALU, 4,
            make_policy(kind, FUClass.IALU, 4, stats=ialu_stats,
                        allow_swap=True))
        theirs = PolicyEvaluator(
            FUClass.IALU, 4,
            _reference_policy(kind, FUClass.IALU, 4, ialu_stats,
                              allow_swap=True))
        for g in groups:
            mine(g)
            theirs(g)
        assert mine.totals() == theirs.totals()

    def test_same_policy_types(self, ialu_stats):
        expected = {"original": OriginalPolicy,
                    "round-robin": RoundRobinPolicy,
                    "full-ham": FullHammingPolicy,
                    "1bit-ham": OneBitHammingPolicy,
                    "lut-4": LUTPolicy}
        for kind, cls in expected.items():
            policy = make_policy(kind, FUClass.IALU, 4, stats=ialu_stats)
            assert type(policy) is cls, kind


class TestRegistration:
    def _family(self, name="toy", policy_types=()):
        return PolicyFamily(name=name, syntax=name, description="toy",
                            parse=exact_name(name),
                            build=lambda req: None,
                            policy_types=policy_types)

    def test_duplicate_name_rejected(self):
        registry = PolicyRegistry()
        registry.register(self._family())
        with pytest.raises(ValueError, match="already registered"):
            registry.register(self._family())

    def test_duplicate_policy_type_rejected(self):
        class Toy:
            pass

        registry = PolicyRegistry()
        registry.register(self._family("a", (Toy,)))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(self._family("b", (Toy,)))

    def test_kernel_for_unknown_family_rejected(self):
        registry = PolicyRegistry()
        with pytest.raises(ValueError, match="unknown policy family"):
            registry.register_kernel("ghost", "np", lambda ev, cols: None)


class TestExactTypeKernelResolution:
    """Kernel resolution matches ``type(policy)`` exactly — subclasses
    fall through to the object path unless they register themselves."""

    def test_bdd_policy_resolves_to_its_own_family(self, ialu_stats):
        policy = make_policy("bdd-4", FUClass.IALU, 4, stats=ialu_stats)
        assert isinstance(policy, BDDPolicy)
        assert isinstance(policy, LUTPolicy)  # implementation reuse...
        family = REGISTRY.family_of(policy)
        assert family is not None and family.name == "bdd"  # ...not identity

    def test_unregistered_subclass_falls_through(self, ialu_stats):
        class LocalLUT(LUTPolicy):
            pass

        lut = build_lut(ialu_stats, 4, 4)
        policy = LocalLUT(lut=lut, scheme=scheme_for(FUClass.IALU))
        assert REGISTRY.family_of(policy) is None
        assert REGISTRY.kernel_factory(policy, "np") is None

    def test_kernel_backend_coverage(self):
        # every built-in family runs on the one columnar engine; the
        # unregistered-subclass test above keeps fall-through covered
        for family in ("original", "round-robin", "lut", "full-ham",
                       "1bit-ham", "bdd"):
            assert REGISTRY.kernel_backends(family) == ("np",), family


class TestMetadata:
    def test_default_policies(self):
        assert REGISTRY.default_policies() == ("original", "lut-4",
                                               "full-ham")

    def test_grid_kinds_order(self):
        assert REGISTRY.grid_kinds() == ("full-ham", "1bit-ham", "lut-8",
                                         "lut-4", "lut-2", "bdd-4",
                                         "original")

    def test_grid_sort_key_unknown_kinds_sort_last(self):
        kinds = ["mystery", "original", "lut-4", "full-ham"]
        kinds.sort(key=REGISTRY.grid_sort_key)
        assert kinds == ["full-ham", "lut-4", "original", "mystery"]

    def test_label_for_is_forgiving(self):
        assert REGISTRY.label_for("lut-4") == "lut-4"
        assert REGISTRY.label_for("not-a-kind") == "not-a-kind"

    def test_resolve_round_trip(self):
        family, params = REGISTRY.resolve("lut-8")
        assert family.name == "lut"
        assert params == {"bits": 8}
        family, params = REGISTRY.resolve("bdd-2")
        assert family.name == "bdd"
        assert params == {"bits": 2}

    def test_int_suffix_parser_contract(self):
        parse = int_suffix("lut-")
        assert parse("lut-4") == {"bits": 4}
        assert parse("original") is None
