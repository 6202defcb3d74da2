import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdpgeom import (
    GeneratorSpec,
    ModelFormatError,
    SplitMix64,
    UnsupportedVersionError,
    ValidationFailedError,
    emit_model,
    generate_model,
    parse_model,
    validate_model,
)
from mdpgeom.convergence import verify_contraction
from mdpgeom.reporting import fnv1a64, policy_hash, report_dict, trace_csv

from conftest import make_model, random_instance


def json_oracle(model):
    """The canonical document built as a dict and written by json.dumps."""
    doc = {
        "schema_version": 1,
        "n": model.n,
        "gamma": float(model.gamma),
        "saps": [
            {
                "state": sap.state,
                "reward": float(sap.reward),
                "probs": [float(p) for p in sap.probs],
            }
            for sap in model.saps
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# reals that stress a writer: subnormals, signed zero, huge, inexact sums, integral
AWKWARD = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 0.1 + 0.2, 1.0 / 3.0, 1.0, 2.0]


@st.composite
def awkward_models(draw):
    """Valid models whose reals are awkward to print; each row sums to 1 within 1e-12."""
    n = draw(st.integers(1, 3))
    gamma = draw(st.sampled_from([5e-324, 0.1 + 0.2, 1.0 / 3.0, 0.9, 1.0]))
    rewards = st.sampled_from(AWKWARD + [-3.0, 1e300, -1e300, 1e-17])
    saps = []
    for state in range(n):
        for _ in range(draw(st.integers(1, 2))):
            probs = draw(st.lists(st.sampled_from(AWKWARD[:-2]), min_size=n - 1, max_size=n - 1))
            probs.insert(draw(st.integers(0, n - 1)), 1.0 - math.fsum(probs))
            saps.append((state, draw(rewards), probs))
    return make_model(n, gamma, saps)


class TestModelDocuments:
    def test_round_trip_swap(self, swap_model):
        text = emit_model(swap_model)
        assert parse_model(text) == swap_model

    def test_round_trip_preserves_awkward_reals(self):
        m = make_model(
            2,
            0.30000000000000004,
            [(0, 1.0 / 3.0, [0.1, 0.9]), (1, -1e-17, [2.0 / 3.0, 1.0 / 3.0])],
        )
        back = parse_model(emit_model(m))
        assert back.gamma == m.gamma
        for a, b in zip(m.saps, back.saps):
            assert a.reward == b.reward
            assert np.array_equal(a.probs, b.probs)

    def test_equal_models_emit_identical_bytes(self, swap_model):
        m2 = parse_model(emit_model(swap_model))
        assert emit_model(swap_model) == emit_model(m2)

    def test_emit_parse_is_identity_on_canonical_documents(self, swap_model):
        canonical = emit_model(swap_model)
        assert emit_model(parse_model(canonical)) == canonical

    def test_distinct_models_emit_distinct_bytes(self, swap_model):
        other = make_model(2, 1.0, [(0, 2.0 + 1e-12, [0, 1]), (1, 0.0, [1, 0])])
        assert emit_model(other) != emit_model(swap_model)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ModelFormatError) as err:
            parse_model('{"schema_version": 1, "n": 2,\n  "gamma": }')
        assert "line 2" in str(err.value)

    def test_unknown_schema_version(self, swap_model):
        doc = json.loads(emit_model(swap_model))
        doc["schema_version"] = 99
        with pytest.raises(UnsupportedVersionError):
            parse_model(json.dumps(doc))

    def test_validation_failure_names_sap(self, swap_model):
        doc = json.loads(emit_model(swap_model))
        doc["saps"][1]["probs"] = [0.5, 0.6]
        with pytest.raises(ValidationFailedError) as err:
            parse_model(json.dumps(doc))
        assert any("sap 1" in v and "row sum" in v for v in err.value.violations)

    def test_nan_probability_rejected(self, swap_model):
        # NaN compares false, so both the range and the row-sum test must fail on it
        doc = json.loads(emit_model(swap_model))
        doc["saps"][0]["probs"] = [math.nan, 1.0]
        with pytest.raises(ValidationFailedError) as err:
            parse_model(json.dumps(doc))
        assert err.value.violations == [
            "sap 0: transition entries outside [0, 1]",
            "sap 0: row sum nan != 1",
        ]

    def test_missing_key(self):
        with pytest.raises(ModelFormatError):
            parse_model('{"schema_version": 1, "n": 2}')

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (
                GeneratorSpec(n=7, saps_per_state=3, gamma=0.9, reward_range=(-1.0, 2.0), seed=11),
                "fe22c0b67b51e3260a1f9a947ee5fde277a34c316d74552ac0f7770509fedea0",
            ),
            (
                GeneratorSpec(n=6, saps_per_state=3, gamma=1.0, sparsity=0.9, seed=7),
                "838e2b02ab426c66daaffba87f25d4e6ff1ece5c5f2104bd7efc27a73562b98a",
            ),
            (
                GeneratorSpec(n=50, saps_per_state=4, gamma=0.95, sparsity=0.3, seed=3),
                "8e5df20604713e5e8df2ad61ef7ff63f368e67cc556416d032d9475d514ce61f",
            ),
            # 400 SAPs of 401 draws: generation runs in three chunks
            (
                GeneratorSpec(n=200, saps_per_state=2, gamma=0.99, sparsity=0.5, seed=2**63 + 5),
                "5c4998c51ea185cb81290a25ac435359dc76c5be22bf3f1aae07378b82539012",
            ),
        ],
        ids=["dense", "sparse-repaired", "n50-4saps", "chunked"],
    )
    def test_generated_model_file_is_frozen(self, spec, digest):
        # a spec and seed name a published instance: these files never change
        text = emit_model(generate_model(spec).model)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @given(awkward_models())
    def test_writer_matches_json_dumps(self, model):
        text = emit_model(model)
        assert text == json_oracle(model)
        assert parse_model(text) == model
        assert emit_model(parse_model(text)) == text

    @pytest.mark.parametrize("reward", [math.nan, math.inf, -math.inf])
    def test_writer_spells_non_finite_rewards_as_json(self, reward):
        model = make_model(2, 0.5, [(0, reward, [0.5, 0.5]), (1, -reward, [0, 1])])
        text = emit_model(model)
        assert text == json_oracle(model)
        assert emit_model(parse_model(text)) == text

    def test_writer_spells_non_finite_probs_as_json(self):
        model = make_model(1, 0.5, [(0, 0.0, [math.nan, math.inf, -math.inf, 1.0])])
        assert emit_model(model) == json_oracle(model)

    def test_bad_gamma_rejected(self, swap_model):
        doc = json.loads(emit_model(swap_model))
        doc["gamma"] = 1.5
        with pytest.raises(ModelFormatError):
            parse_model(json.dumps(doc))


class TestSplitMix64:
    def test_known_answer_seed_zero(self):
        # published SplitMix64 test vector for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_uniform_range(self):
        rng = SplitMix64(42)
        draws = rng.uniforms(1000)
        assert np.all(draws >= 0.0) and np.all(draws < 1.0)
        assert 0.4 < draws.mean() < 0.6

    def test_seed_masking(self):
        assert SplitMix64(-1)._state == SplitMix64(2**64 - 1)._state

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(0).uniforms(-1)

    @given(
        seed=st.one_of(
            st.integers(-(2**64), -1), st.integers(0, 2**63 - 1), st.integers(2**63, 2**64 - 1)
        ),
        a=st.integers(0, 200),
        b=st.integers(0, 200),
    )
    def test_uniforms_follow_the_scalar_stream(self, seed, a, b):
        rng = SplitMix64(seed)
        got = np.concatenate([rng.uniforms(a), rng.uniforms(b)])
        ref = SplitMix64(seed)
        want = np.array([(ref.next_u64() >> 11) * 2.0**-53 for _ in range(a + b)])
        assert got.tobytes() == want.tobytes()
        assert rng.next_u64() == ref.next_u64()


class TestGenerateModel:
    def test_same_seed_same_model(self):
        spec = GeneratorSpec(n=5, saps_per_state=3, gamma=0.9, seed=99, sparsity=0.4)
        a = generate_model(spec).model
        b = generate_model(spec).model
        assert a == b

    def test_different_seed_differs(self):
        base = dict(n=4, saps_per_state=2, gamma=0.9, sparsity=0.0)
        a = generate_model(GeneratorSpec(seed=1, **base)).model
        b = generate_model(GeneratorSpec(seed=2, **base)).model
        assert a != b

    def test_sparsity_zero_all_positive(self):
        m = generate_model(GeneratorSpec(n=5, saps_per_state=2, gamma=1.0, seed=3)).model
        assert np.all(m.sap_probs > 0.0)

    def test_sparsity_one_forces_self_loops(self):
        res = generate_model(
            GeneratorSpec(n=4, saps_per_state=2, gamma=1.0, seed=4, sparsity=1.0)
        )
        m = res.model
        for sap in m.saps:
            expected = np.zeros(4)
            expected[sap.state] = 1.0
            assert np.array_equal(sap.probs, expected)
        assert len(res.repaired_rows) == m.m

    def test_rows_valid_and_stochastic(self):
        res = generate_model(
            GeneratorSpec(
                n=6,
                saps_per_state=3,
                gamma=1.0,
                seed=5,
                sparsity=0.7,
                reward_range=(-2.0, 2.0),
            )
        )
        assert validate_model(res.model) == []
        sums = res.model.sap_probs.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-15)
        lo, hi = res.spec.reward_range
        assert np.all(res.model.sap_rewards >= lo)
        assert np.all(res.model.sap_rewards < hi)

    def test_spec_dict_round_trip(self):
        spec = GeneratorSpec(
            n=3, saps_per_state=2, gamma=1.0, reward_range=(-1.0, 2.0), sparsity=0.25, seed=17
        )
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(n=0, saps_per_state=1, gamma=0.5)
        with pytest.raises(ValueError):
            GeneratorSpec(n=2, saps_per_state=1, gamma=0.5, sparsity=1.5)
        with pytest.raises(ValueError):
            GeneratorSpec(n=2, saps_per_state=1, gamma=0.5, reward_range=(1.0, 0.0))


class TestPolicyHash:
    def test_fnv_offset_for_empty_input(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325

    def test_zero_index_closed_form(self):
        # eight zero bytes: h = offset * prime^8 mod 2^64
        expected = (0xCBF29CE484222325 * pow(0x100000001B3, 8, 2**64)) % 2**64
        assert policy_hash((0,)) == f"{expected:016x}"

    def test_sensitive_to_order(self):
        assert policy_hash((0, 1)) != policy_hash((1, 0))

    def test_stable_known_value(self):
        # frozen so external tools can check their reimplementation
        assert policy_hash((1, 3, 4, 6)) == "7d1d9036ac5ca785"
        assert policy_hash(np.array([1, 3, 4, 6])) == "7d1d9036ac5ca785"

    def test_report_and_trace_hash_every_step(self):
        model = random_instance(6, n=5, gamma=0.9, saps_per_state=3)
        v0 = np.array([3.0, -2.0, 0.5, 1.0, -1.0])
        report = verify_contraction(model, v0=v0, trace_steps=20)
        expected = [policy_hash(g) for g in report.greedy_policies]
        assert len(set(expected)) == 2
        doc = report_dict(report)
        assert doc["greedy_policy_hashes"] == expected
        rows = trace_csv(report, doc["greedy_policy_hashes"]).splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == expected
