import json

import numpy as np
import pytest

from conftest import random_ucp_map
from ucpext import catalog, serialize
from ucpext.errors import InputError


class TestMatrixRoundTrip:
    def test_bit_exact(self):
        tiny = np.nextafter(0.0, 1.0)
        m = np.array([[1.0 / 3.0 + 1j * np.pi, -2.0e-17, complex(-0.0, 0.0)],
                      [5.0, np.nextafter(1.0, 2.0) * 1j, complex(0.0, -0.0)],
                      [complex(tiny, -tiny), complex(-1.0 / 3.0, 1e308), 0.0]])
        encoded = json.dumps(serialize.matrix_to_json(m))
        decoded = serialize.matrix_from_json(json.loads(encoded))
        assert decoded.view(float).tobytes() == m.view(float).tobytes()
        assert decoded.flags["C_CONTIGUOUS"]

    def test_malformed(self):
        ragged_rows = [[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]]
        for bad in ([], [[1.0]], [[[1.0]]], "nope", [[[1.0, 2.0], [3.0]]], ragged_rows,
                    [[[True, False]]], [[[1.0, True]]], [[["1.0", 0.0]]],
                    [[[float("nan"), 0.0]]], [[[1.0, float("inf")]]], [[[None, 0.0]]],
                    [[[1.0, 2.0, 3.0]]]):
            with pytest.raises(InputError):
                serialize.matrix_from_json(bad)

    def test_numpy_scalars_and_integers_accepted(self):
        decoded = serialize.matrix_from_json([[[np.float64(0.5), 2]]])
        assert decoded.dtype == complex
        assert decoded[0, 0] == 0.5 + 2j


class TestSuperOpRoundTrip:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        phi = random_ucp_map(3, rng)
        data = json.loads(json.dumps(serialize.superop_to_json(phi)))
        back = serialize.superop_from_json(data)
        assert back.d == 3
        assert np.array_equal(back.choi, phi.choi)

    def test_convention_tag(self):
        phi = random_ucp_map(2, np.random.default_rng(1))
        tagged = serialize.superop_to_json(phi, tagged=True)
        assert tagged["convention"] == serialize.CHOI_CONVENTION
        assert np.array_equal(serialize.superop_from_json(tagged).choi, phi.choi)
        tagged["convention"] = "row-stack"
        with pytest.raises(InputError):
            serialize.superop_from_json(tagged)


class TestGeneratorRoundTrip:
    def test_gksl_spec(self, pauli):
        data = {
            "kind": "gksl",
            "H": serialize.matrix_to_json(0.5 * pauli.Y),
            "jumps": [{"op": serialize.matrix_to_json(pauli.X), "rate": 0.5},
                      {"op": serialize.matrix_to_json(pauli.Z), "rate": 0.5}],
        }
        gen = serialize.generator_from_json(data)
        assert gen.certificates.certified

    def test_choi_spec_round_trip(self):
        gen = catalog.g1(1.0)
        back = serialize.generator_from_json(
            json.loads(json.dumps(serialize.generator_to_json(gen))))
        assert np.array_equal(back.op.choi, gen.op.choi)
        assert back.certificates == gen.certificates

    def test_empty_gksl_rejected(self):
        with pytest.raises(InputError):
            serialize.generator_from_json({"kind": "gksl"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            serialize.generator_from_json({"kind": "kraus"})


_SIGMA_MINUS = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


@pytest.mark.parametrize("decode, payload", [
    (serialize.generator_from_json, {"kind": "gksl", "jumps": [{"rate": 1.0}]}),
    (serialize.generator_from_json,
     {"kind": "gksl", "jumps": [{"op": _SIGMA_MINUS, "rate": "x"}]}),
    (serialize.generator_from_json,
     {"kind": "gksl", "jumps": [{"op": _SIGMA_MINUS, "rate": 10 ** 400}]}),
    (serialize.superop_from_json,
     {"d": "two", "choi": serialize.matrix_to_json(np.eye(4))}),
    (serialize.system_from_json, {"basis": 5}),
], ids=["jump-without-op", "rate-not-a-number", "rate-too-large", "d-not-a-number",
        "basis-not-a-list"])
def test_malformed_payload_is_input_error(decode, payload):
    # Outside the scenario schema, which rejects these before they are decoded.
    with pytest.raises(InputError):
        decode(payload)


class TestSystemFromJson:
    def test_catalog_names(self):
        for name, dim in (("span_I", 1), ("diagonal", 2), ("rebit", 3), ("M2", 4)):
            assert len(serialize.system_from_json(name)) == dim
        assert len(serialize.system_from_json("real_symmetric_3")) == 6

    def test_inline_basis(self, pauli):
        data = {"basis": [serialize.matrix_to_json(pauli.I),
                          serialize.matrix_to_json(pauli.X)]}
        system = serialize.system_from_json(data)
        assert len(system) == 2

    def test_unknown_name(self):
        with pytest.raises(InputError):
            serialize.system_from_json("qutrit")

    @pytest.mark.parametrize("name", ["real_symmetric_ 3", "real_symmetric_+3",
                                      "real_symmetric_\uff13", "real_symmetric_3_4",
                                      "real_symmetric_", "real_symmetric_" + "1" * 5000])
    def test_real_symmetric_takes_ascii_digits_only(self, name):
        with pytest.raises(InputError, match="bad system name"):
            serialize.system_from_json(name)
