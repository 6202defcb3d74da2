import dataclasses
import hashlib
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdpgeom import (
    GeneratorSpec,
    MdpModel,
    ModelFormatError,
    SplitMix64,
    UnsupportedVersionError,
    ValidationFailedError,
    emit_model,
    generate_model,
    modelfile,
    parse_model,
    read_model,
    validate_model,
    write_model,
)
from mdpgeom import cli, generate
from mdpgeom.convergence import verify_contraction
from mdpgeom.generate import _generate, _states, _uniform_rows
from mdpgeom.reporting import _greedy_policy_hashes, fnv1a64, policy_hash, report_dict, trace_csv

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


@st.composite
def wide_zero_models(draw):
    """Models of wide rows, mostly +0.0, whose few other entries are awkward reals
    placed in the first, middle or last column or anywhere; SAP 0's row is all +0.0.
    Rows need not be stochastic: the writer formats what it is given."""
    n = draw(st.integers(1, 40))
    rows = np.zeros((draw(st.integers(1, 3)), n))
    columns = st.sampled_from([0, n // 2, n - 1]) | st.integers(0, n - 1)
    entries = st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf, 0.1, 1.0])
    for row in rows[1:]:
        for col, value in draw(st.lists(st.tuples(columns, entries), min_size=1, max_size=4)):
            row[col] = value
    states = np.arange(len(rows)) % n
    return MdpModel._from_arrays(n, 0.9, states, np.arange(len(rows), dtype=float), rows)


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
            # the layout the writer's zero cells target: n = 600 pipelines at sparsity 0.9
            (
                GeneratorSpec(n=300, saps_per_state=2, gamma=0.99, sparsity=0.9, seed=11),
                "55fd46986d8bf8a7c2d985dc092aa7a623aef4542b21f49704d892073a96ac15",
            ),
        ],
        ids=["dense", "sparse-repaired", "n50-4saps", "chunked", "n300-sparse"],
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

    @given(wide_zero_models())
    def test_writer_matches_json_dumps_on_mostly_zero_rows(self, model):
        assert emit_model(model) == json_oracle(model)

    def test_writer_formats_only_rewards_and_nonzero_entries(self, monkeypatch):
        # +0.0 is written as a constant; every other transition entry, -0.0
        # included, and every reward goes through _reals
        spec = GeneratorSpec(n=40, saps_per_state=3, gamma=0.9, sparsity=0.9, seed=5)
        base = generate_model(spec).model
        probs = base.sap_probs.copy()
        probs[0, [0, 20, 39]] = [-0.0, 5e-324, math.nan]
        model = MdpModel._from_arrays(40, 0.9, base.sap_states, base.sap_rewards, probs)
        nonzero = np.count_nonzero(probs.view(np.int64))
        assert nonzero < probs.size // 2
        formatted, reals = [], modelfile._reals

        def counted(values):
            formatted.append(values.size)
            return reals(values)

        monkeypatch.setattr(modelfile, "_reals", counted)
        text = emit_model(model)
        assert text == json_oracle(model)
        assert sum(formatted) == model.m + nonzero

    @pytest.mark.parametrize("reward", [math.nan, math.inf, -math.inf])
    def test_writer_spells_non_finite_rewards_as_json(self, reward):
        model = make_model(2, 0.5, [(0, reward, [0.5, 0.5]), (1, -reward, [0, 1])])
        text = emit_model(model)
        assert text == json_oracle(model)
        assert emit_model(parse_model(text)) == text

    def test_writer_spells_non_finite_probs_as_json(self):
        model = make_model(4, 0.5, [(0, 0.0, [math.nan, math.inf, -math.inf, 1.0])])
        assert emit_model(model) == json_oracle(model)

    def test_bad_gamma_rejected(self, swap_model):
        doc = json.loads(emit_model(swap_model))
        doc["gamma"] = 1.5
        with pytest.raises(ModelFormatError):
            parse_model(json.dumps(doc))


def outcome(text):
    """parse_model's model, or the type, message and violations of its error."""
    try:
        return parse_model(text)
    except ModelFormatError as exc:
        return type(exc), str(exc), getattr(exc, "violations", None)


def list_based_outcome(text):
    """The outcome with every transition row handed over as json's list, as json.loads
    builds it without an object hook: the conversion the row hook replaces."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelfile, "_row_array", lambda obj: obj)
        return outcome(text)


# numbers a row may hold: every double (NaN, infinities, -0.0, subnormals, 1e308 among
# them), integral reals, and integers an int64, a uint64 or a double cannot hold
NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 5e-324, 1e-310, 1e308, 0.1 + 0.2, math.nan, math.inf]),
    st.floats(),
    st.integers(-2, 2),
    st.sampled_from([2**53 + 1, 2**63, -(2**63) - 1, 2**64, 10**30, 10**400]),
    st.integers(-(2**70), 2**70),
)
# and what is not a number
OTHERS = st.one_of(
    st.text("0.5e", max_size=3), st.booleans(), st.none(), st.lists(NUMBERS, max_size=2)
)


@st.composite
def documents(draw):
    """Small model documents whose SAP i is at state i for i < n: stochastic rows of
    floats, ints or both, rows of any n numbers, and awkward rows."""
    n = draw(st.integers(1, 3))
    row = st.one_of(
        st.permutations([1.0] + [-0.0] * (n - 1)),
        st.permutations([1] + [0] * (n - 1)),
        st.permutations([0.5, 0.5, 0][:n] if n > 1 else [1, 0.0][:n]),
        st.lists(NUMBERS, min_size=n, max_size=n),
        st.lists(NUMBERS | OTHERS, min_size=n, max_size=n),
        st.lists(NUMBERS | OTHERS, min_size=n - 1, max_size=n + 1),
        st.lists(st.lists(NUMBERS, min_size=1, max_size=2), min_size=n, max_size=n),
    )
    saps = [
        {"state": i if i < n else draw(st.integers(0, n - 1)), "reward": draw(st.floats() | NUMBERS), "probs": draw(row)}
        for i in range(n + draw(st.integers(0, 2)))
    ]
    return json.dumps({"schema_version": 1, "n": n, "gamma": 0.9, "saps": saps})


def sparse_document(last):
    """A 16-state document of rows held as their nonzeros (-0.0 and a subnormal among them)
    and, last, the row ``last``."""
    rows = [[0.0] * 16 for _ in range(15)]
    for i, row in enumerate(rows):
        row[i], row[i + 1] = -0.0, 1.0
    rows[3][7] = 5e-324
    saps = [{"state": i, "reward": 0.0, "probs": row} for i, row in enumerate(rows + [last])]
    return json.dumps({"schema_version": 1, "n": 16, "gamma": 0.9, "saps": saps})


class TestRowAtATime:
    """Rows read as arrays while json reads them, and documents written a SAP at a time,
    give the bits, bytes and errors of the whole-document route."""

    @settings(max_examples=400)
    @example(json.dumps({"schema_version": 1, "n": 2, "gamma": 0.9, "saps": [
        {"state": 0, "reward": 0.0, "probs": [10**400, 0]},
        {"state": 1, "reward": 0.0, "probs": [0.5, 0.5]},
    ]}))
    # rows held as nonzeros, then a last one that is one of them, dense, ragged, ints or a string
    @example(sparse_document([0.0] * 15 + [1.0]))
    @example(sparse_document([0.5] * 2 + [0.0] * 14))
    @example(sparse_document([0.0] * 14 + [1.0]))
    @example(sparse_document([0] * 15 + [1]))
    @example(sparse_document([0.0] * 15 + ["1"]))
    @given(documents())
    def test_rows_read_as_arrays_equal_rows_read_as_lists(self, text):
        got, want = outcome(text), list_based_outcome(text)
        if isinstance(want, MdpModel):
            assert isinstance(got, MdpModel)
            assert (got.n, got.gamma) == (want.n, want.gamma)
            for name in ("sap_states", "sap_rewards", "sap_probs"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            assert got == want

    @pytest.mark.parametrize(
        "probs",
        [[0.5, 0.5], [10**400, 0], [1, 0], [[0.5], [0.5]], [[0.5], [0.5, 1.0]], ["0.5", 0.5], 0.5],
    )
    def test_the_hook_converts_only_flat_float_rows(self, probs):
        obj = modelfile._row_array({"state": 0, "probs": probs})
        assert isinstance(obj["probs"], np.ndarray) == (probs == [0.5, 0.5])

    def test_a_sparse_row_is_held_as_its_nonzeros(self):
        # every entry but +0.0 is kept, by its bits: -0.0, NaN and subnormals among them
        probs = [0.0] * 16
        probs[1:6] = [-0.0, math.nan, 5e-324, 1e-310, 0.25]
        row = modelfile._row_array({"probs": probs})["probs"]
        assert isinstance(row, modelfile._Nonzeros) and row.size == 16
        assert row.cols.dtype == np.int32 and row.cols.tolist() == [1, 2, 3, 4, 5]
        assert row.dense().tobytes() == np.array(probs).tobytes()
        # a row whose nonzeros would take more bytes than it does stays an array
        assert isinstance(modelfile._row_array({"probs": [0.125] * 16})["probs"], np.ndarray)

    @pytest.mark.parametrize("extra", [{}, {"label": 1}], ids=["plain", "key-with-l"])
    def test_a_non_number_entry_is_found_in_every_document(self, extra):
        # the row's violation comes before n's error, whatever letters the rest of the text holds
        saps = [{"state": 0, "reward": 0.0, "probs": ["x", 1.0]}]
        text = json.dumps({"schema_version": 1, "n": 2.5, "gamma": 0.9, "saps": saps, **extra})
        with pytest.raises(ValidationFailedError) as info:
            parse_model(text)
        assert info.value.violations == ['sap 0: transition entry "x" is not a number']

    def test_a_deeply_nested_row_is_kept(self):
        probs = [0.5]
        for _ in range(100):  # beyond numpy's 64 dimensions
            probs = [probs]
        assert modelfile._row_array({"probs": probs})["probs"] is probs

    @pytest.mark.parametrize(
        "model",
        [
            make_model(1, 0.5, [(0, 1.0, [1.0])]),
            make_model(2, 0.9, [(0, math.nan, [0.5, 0.5]), (1, -0.0, [0.0, 1.0])]),
            generate_model(GeneratorSpec(n=50, saps_per_state=4, gamma=0.95, sparsity=0.3, seed=3)).model,
        ],
        ids=["n1", "nan-reward", "n50-4saps"],
    )
    def test_write_model_writes_emit_models_bytes(self, tmp_path, model):
        path = tmp_path / "model.json"
        write_model(model, path)
        assert path.read_bytes() == emit_model(model).encode()


class TestModelFileMemory:
    """Model files are read and written holding a transition row of Python objects at a time."""

    ARGS = ["--n", "300", "--saps", "4", "--gamma", "0.99", "--sparsity", "0.9", "--seed", "1"]

    @staticmethod
    def traced_peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_generate_and_read_peaks(self, tmp_path, capsys):
        path = str(tmp_path / "model.json")
        cli._parser()  # built once per process, outside the traced peak
        written = self.traced_peak(cli.main, ["generate", *self.ARGS, "-o", path])
        probs = generate_model(GeneratorSpec(300, 4, 0.99, sparsity=0.9, seed=1)).model.sap_probs
        # the whole document, its pieces and its encoded copy were about 4.8 x the rows
        assert written < 2 * probs.nbytes + 2**20
        # the whole text and its bytes were about 5.3 x the rows on top of them, and the
        # rows held dense and then stacked 2.2 x; the file is read a chunk at a time, each
        # sparse row held as its nonzeros and written into the one matrix (1.3 x)
        assert self.traced_peak(read_model, path) < 1.25 * probs.nbytes + 2**20
        assert read_model(path).sap_probs.tobytes() == probs.tobytes()

    def test_dense_rows_read_peak(self, tmp_path, capsys):
        # dense rows are held as arrays and then written into the matrix, as they were stacked
        path = str(tmp_path / "model.json")
        args = ["--n", "300", "--saps", "4", "--gamma", "0.99", "--sparsity", "0.0", "--seed", "1"]
        assert cli.main(["generate", *args, "-o", path]) == 0
        probs = generate_model(GeneratorSpec(300, 4, 0.99, sparsity=0.0, seed=1)).model.sap_probs
        assert self.traced_peak(read_model, path) < 2 * probs.nbytes + 2**20
        assert read_model(path).sap_probs.tobytes() == probs.tobytes()


def summary(read):
    """``read()``'s model as the bits of its fields, or the type, message and violations of its error."""
    try:
        model = read()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "violations", None)
    arrays = (model.sap_states, model.sap_rewards, model.sap_probs)
    return model.n, model.gamma, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def unwalked(*args):
    raise ValueError


def whole_text_summary(text):
    """The summary of json reading the whole ``text``, with the walker out of the way."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelfile, "_walk", unwalked)
        return summary(lambda: parse_model(text))


CHUNKS = (1, 2, 3, 7, 64, None)  # None: the module's own, which holds these documents whole


def agree_with_the_whole_text_route(data: bytes):
    """Assert that read_model on a file of ``data`` at every chunk size, and parse_model
    on the file's text, give the model bits or the error of reading the text whole."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_bytes(data)
        text = path.read_text()
        want = whole_text_summary(text)
        assert summary(lambda: parse_model(text)) == want
        for chunk in CHUNKS:
            with pytest.MonkeyPatch.context() as mp:
                if chunk:
                    mp.setattr(modelfile, "_CHUNK", chunk)
                assert summary(lambda: read_model(path)) == want, chunk


# entries for rows: objects nested in a row, one of them with a row of its own
NESTED = st.sampled_from([{"probs": [0.5, 0.5]}, {"state": 0}, {}])
# characters to insert: json's structure, the letters of true, false and null, any other
INSERTS = st.sampled_from(list('{}[],:" 0.5e-tfnul\n\r\t\ufeff')) | st.characters(
    blacklist_categories=("Cs",)
)


@st.composite
def walk_documents(draw):
    """documents() in the layouts a walker must take apart, as the bytes of a file:
    keys in any order (saps before n), a repeated key, a version that is a list or an
    object, an extra key with non-ASCII text, objects nested in rows, indentation or
    none, escaped or raw non-ASCII, one character inserted or deleted, text after the
    document, LF, CRLF or lone CR line endings, a BOM."""
    doc = json.loads(draw(documents()))
    for sap in doc["saps"]:
        if draw(st.integers(0, 3)) == 0:
            sap["probs"].insert(draw(st.integers(0, len(sap["probs"]))), draw(NESTED))
    # a version json reads as a list or an object, whose repr the error shows
    if draw(st.booleans()):
        doc["schema_version"] = draw(st.sampled_from([1.0, 2, "1", [1], {"probs": [1.0]}]))
    if draw(st.booleans()):
        doc["note"] = draw(st.sampled_from(["naïve €", "ñ", "\u2028"]) | st.text(max_size=4))
    doc = {key: doc[key] for key in draw(st.permutations(list(doc)))}
    text = json.dumps(
        doc, indent=draw(st.sampled_from([None, 0, 2])), ensure_ascii=draw(st.booleans())
    )
    repeated = draw(st.sampled_from([None, None, None, "saps", "n", "gamma"]))
    if repeated:
        text = f'{text[:-1]}, "{repeated}": {json.dumps(draw(st.sampled_from([doc[repeated], 2, []])))}}}'
    edit = draw(st.sampled_from(["none", "none", "none", "none", "insert", "delete"]))
    at = draw(st.integers(0, len(text)))
    if edit == "insert":
        text = text[:at] + draw(INSERTS) + text[at:]
    elif edit == "delete":
        text = text[:at] + text[at + 1 :]
    text += draw(st.sampled_from(["", "", "", "\n", " \n\t", "x", "{}", "]"]))
    text = text.replace("\n", draw(st.sampled_from(["\n", "\r\n", "\r"])))
    bom = b"\xef\xbb\xbf" if draw(st.integers(0, 7)) == 0 else b""
    return bom + text.encode()


class TestChunkedRead:
    """read_model reads a file a chunk at a time, and parse_model walks its string the
    same way; both give the model bits, or the error, of json reading the text whole."""

    @settings(max_examples=300)
    @example(json.dumps({"schema_version": {"probs": [1.0]}, "n": 1, "gamma": 0.5, "saps": []}).encode())
    @example(emit_model(make_model(1, 0.5, [(0, 1.0, [1.0])])).encode() + b"]")
    @example(emit_model(make_model(1, 0.5, [(0, 1.0, [1.0])]))[:-2].encode() + b', "saps": 1}')
    @example(emit_model(make_model(1, 0.5, [(0, 1.0, [1.0])]))[:-2].encode() + b", 2: 3}")
    @given(walk_documents())
    def test_read_and_parse_agree_with_the_whole_text_route(self, data):
        agree_with_the_whole_text_route(data)

    @settings(max_examples=50)
    @given(awkward_models(), st.sampled_from(["\n", "\r\n", "\r"]))
    def test_valid_models_read_alike(self, model, ending):
        agree_with_the_whole_text_route(emit_model(model).replace("\n", ending).encode())

    def test_every_prefix_of_a_document(self):
        model = make_model(2, 0.9, [(0, 1.5, [0.25, 0.75]), (1, -0.0, [1.0, 0.0]), (1, 2.0, [0.0, 1.0])])
        text = emit_model(model)
        for end in range(len(text) + 1):
            agree_with_the_whole_text_route(text[:end].encode())

    def test_canonical_files_are_walked_at_every_chunk_size(self, tmp_path, monkeypatch):
        model = generate_model(GeneratorSpec(n=20, saps_per_state=3, gamma=0.9, sparsity=0.5, seed=4)).model
        path = tmp_path / "model.json"
        write_model(model, path)
        monkeypatch.setattr(modelfile, "_load", unwalked)  # no fallback to reading the text whole
        for chunk in (1, 2, 3, 7, 64, modelfile._CHUNK):
            monkeypatch.setattr(modelfile, "_CHUNK", chunk)
            assert summary(lambda: read_model(path)) == summary(lambda: model)
        assert summary(lambda: parse_model(emit_model(model))) == summary(lambda: model)

    def test_reads_keep_to_chunks(self, tmp_path, monkeypatch):
        # a canonical SAP is far shorter than a chunk, so no read asks for more than one
        path = tmp_path / "model.json"
        model = generate_model(GeneratorSpec(n=300, saps_per_state=2, gamma=0.9, sparsity=0.9, seed=5)).model
        write_model(model, path)
        sizes, read = [], modelfile._walk

        def walk(read_chunk, *args):
            return read(lambda size: sizes.append(size) or read_chunk(size), *args)

        monkeypatch.setattr(modelfile, "_walk", walk)
        assert read_model(path).sap_probs.tobytes() == model.sap_probs.tobytes()
        assert set(sizes) == {modelfile._CHUNK}
        assert len(sizes) == -(-path.stat().st_size // modelfile._CHUNK) + 1


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


SEEDS = st.one_of(st.integers(-(2**64), -1), st.just(0), st.integers(2**63, 2**64 - 1))


class TestStackedDraws:
    """The models and draws of many seeds, drawn together, are those of each seed alone."""

    @given(seeds=st.lists(SEEDS, min_size=1, max_size=6), k=st.integers(0, 40))
    def test_rows_follow_the_scalar_stream(self, seeds, k):
        block = _uniform_rows(_states(seeds), k)
        assert block.shape == (len(seeds), k)
        for seed, row in zip(seeds, block):
            ref = SplitMix64(seed)
            want = np.array([(ref.next_u64() >> 11) * 2.0**-53 for _ in range(k)])
            assert row.tobytes() == want.tobytes()

    @given(
        seeds=st.lists(SEEDS, min_size=1, max_size=6),
        n=st.integers(1, 5),
        saps=st.integers(1, 3),
        sparsity=st.sampled_from([0.0, 0.3, 1.0]),
        chunk_draws=st.integers(1, 200),
    )
    def test_models_equal_generate_model(self, seeds, n, saps, sparsity, chunk_draws):
        # a small pass size splits the block into several passes: of whole
        # models, or of SAP chunks of one model when a model holds more draws
        spec = GeneratorSpec(n=n, saps_per_state=saps, gamma=0.9, sparsity=sparsity, reward_range=(-2.0, 3.0))
        alone = [generate_model(dataclasses.replace(spec, seed=s)) for s in seeds]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(generate, "_CHUNK_DRAWS", chunk_draws)
            stacked = _generate(spec, _states(seeds))
        assert len(stacked) == len(seeds)
        for (model, repaired), ref in zip(stacked, alone):
            assert model.sap_probs.tobytes() == ref.model.sap_probs.tobytes()
            assert model.sap_rewards.tobytes() == ref.model.sap_rewards.tobytes()
            assert model.sap_states.tobytes() == ref.model.sap_states.tobytes()
            assert (model.n, model.gamma, repaired) == (n, 0.9, ref.repaired_rows)
            assert model.sap_states is stacked[0][0].sap_states
            assert not model.sap_probs.flags.writeable

    @pytest.mark.parametrize(
        "spec, seeds, passes",
        [
            # 1,201 draws per SAP: 54 SAPs a pass, 44 passes and a last one of 24
            (GeneratorSpec(n=600, saps_per_state=4, gamma=0.99, sparsity=0.9), 1, [(1, 54 * 1201)] * 44 + [(1, 24 * 1201)]),
            # 1,200 draws per model: 54 whole models a pass
            (GeneratorSpec(n=12, saps_per_state=4, gamma=0.95, sparsity=0.7), 150, [(54, 1200)] * 2 + [(42, 1200)]),
        ],
        ids=["large", "sweep-disc"],
    )
    def test_passes(self, monkeypatch, spec, seeds, passes):
        shapes, rows = [], generate._uniform_rows
        monkeypatch.setattr(generate, "_uniform_rows", lambda s, k: shapes.append((s.size, k)) or rows(s, k))
        _generate(spec, _states(range(seeds)))
        assert shapes == passes


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
        # integral floats are read as integers; omitted keys take their defaults
        assert GeneratorSpec.from_dict({"n": 3.0, "saps_per_state": 2, "gamma": 1}) == GeneratorSpec(3, 2, 1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(n=0, saps_per_state=1, gamma=0.5)
        with pytest.raises(ValueError):
            GeneratorSpec(n=2, saps_per_state=1, gamma=0.5, sparsity=1.5)
        with pytest.raises(ValueError):
            GeneratorSpec(n=2, saps_per_state=1, gamma=0.5, reward_range=(1.0, 0.0))

    @pytest.mark.parametrize(
        "reward_range", [(-math.inf, math.inf), (0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)]
    )
    def test_reward_range_and_its_width_must_be_finite(self, reward_range):
        with pytest.raises(ValueError, match="reward_range"):
            GeneratorSpec(n=2, saps_per_state=1, gamma=0.5, reward_range=reward_range)


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

    def test_greedy_hashes_hash_each_row(self):
        rows = np.array([[0, 5, 2**40], [3, 1, 4], [0, 0, 0]])
        picks = rows[[0, 1, 0, 2, 2, 1, 0]]
        report = SimpleNamespace(greedy_policies=picks)
        assert _greedy_policy_hashes(report) == [policy_hash(row) for row in picks]
        assert _greedy_policy_hashes(SimpleNamespace(greedy_policies=picks[:0])) == []

    def test_greedy_hashes_hold_only_distinct_rows(self):
        # 1,001 steps at n = 600 with three policies: a copy of the picks in "<u8"
        # and a key per row were about twice the picks
        picks = np.arange(3 * 600).reshape(3, 600)[np.arange(1001) % 3]
        tracemalloc.start()
        try:
            hashes = _greedy_policy_hashes(SimpleNamespace(greedy_policies=picks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < picks.nbytes / 20
        assert len(set(hashes)) == 3

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
