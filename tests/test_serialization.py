"""Tests for the JSON/CSV interchange formats and the 17-digit float encoder."""

import json
import math

import numpy as np
import pytest

from qentropy import (
    BlockSpec,
    ValidationError,
    channel_distance,
    random_density,
    random_stochastic_channel,
    synthesize_pair,
)
from qentropy.serialization import (
    block_structure_to_obj,
    channel_from_obj,
    channel_to_obj,
    dumps,
    load_classical_batch,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    save_json,
    state_from_obj,
    state_to_obj,
)


class TestMatrixFormat:
    def test_round_trip(self):
        m = np.array([[1 + 2j, 0], [0.5, -1j]])
        np.testing.assert_array_equal(matrix_from_obj(matrix_to_obj(m)), m)

    def test_rejects_scalar_entries(self):
        with pytest.raises(ValidationError):
            matrix_from_obj([[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            matrix_from_obj([[["a", "b"]]])


class TestStateFormat:
    def test_round_trip(self):
        rho = random_density(3, 2, seed=0)
        again = state_from_obj(state_to_obj(rho))
        np.testing.assert_allclose(again.matrix, rho.matrix, atol=1e-15)

    def test_dim_mismatch_rejected(self):
        rho = random_density(2, 2, seed=1)
        obj = state_to_obj(rho)
        obj["dim"] = 3
        with pytest.raises(ValidationError):
            state_from_obj(obj)


class TestChannelFormat:
    def test_round_trip(self):
        phi = random_stochastic_channel(3, 2, seed=2)
        again = channel_from_obj(channel_to_obj(phi))
        assert channel_distance(phi, again) <= 1e-12

    def test_accepts_wrapped_matrices(self):
        phi = random_stochastic_channel(2, 2, seed=3)
        obj = channel_to_obj(phi)
        obj["kraus"] = [{"dim": 2, "matrix": entry} for entry in obj["kraus"]]
        again = channel_from_obj(obj)
        assert channel_distance(phi, again) <= 1e-12

    def test_missing_kraus_rejected(self):
        with pytest.raises(ValidationError):
            channel_from_obj({"dim": 2})

    @pytest.mark.parametrize("kraus", [5, None, "ab", {"matrix": [[[1.0, 0.0]]]}])
    def test_kraus_that_is_not_a_list_is_named(self, kraus):
        with pytest.raises(ValidationError, match='^"kraus" must be a list of Kraus operators$'):
            channel_from_obj({"kraus": kraus})

    def test_entry_without_matrix_is_named_from_1(self):
        identity = matrix_to_obj(np.eye(2))
        message = '^Kraus entry 2: expected an object with a "matrix" field$'
        with pytest.raises(ValidationError, match=message):
            channel_from_obj({"kraus": [{"matrix": identity}, {"foo": 1}]})


class TestBlockStructureFormat:
    def test_round_trip(self):
        _, _, structure = synthesize_pair(BlockSpec(blocks=((2, 1), (1, 2))), seed=5)
        obj = block_structure_to_obj(structure)
        assert obj["dim"] == structure.dim
        dims = [(entry["dim_left"], entry["dim_right"]) for entry in obj["blocks"]]
        assert dims == list(structure.block_dims)
        for entry, block in zip(obj["blocks"], structure.blocks):
            np.testing.assert_array_equal(matrix_from_obj(entry["isometry"]), block.isometry)


class TestDumps:
    def test_17_significant_digits(self):
        text = dumps({"x": 1 / 3})
        assert "0.33333333333333331" in text

    def test_round_trips_through_json_loads(self):
        values = [1 / 3, 0.1, 1e-300, 123456789.123456789, 2.0**-52]
        decoded = json.loads(dumps({"v": values}))
        assert decoded["v"] == values

    def test_infinity_and_nan_literals(self):
        decoded = json.loads(dumps({"a": math.inf, "b": -math.inf}))
        assert decoded["a"] == math.inf and decoded["b"] == -math.inf

    def test_bool_and_none(self):
        decoded = json.loads(dumps({"t": True, "n": None, "i": 7}))
        assert decoded == {"t": True, "n": None, "i": 7}

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "obj.json"
        save_json(path, {"a": [1.5, 2.5]})
        assert load_json(path) == {"a": [1.5, 2.5]}


class TestClassicalBatch:
    def test_csv_single_record(self, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text("2\n0.5,0.5\n0.5,0.5\n0.8,0.2\n")
        batch = load_classical_batch(path)
        assert len(batch) == 1
        b, p = batch[0]
        assert (b.column_residual, b.row_residual) == (0.0, 0.0)
        np.testing.assert_allclose(p.entries, [0.8, 0.2])

    def test_csv_multiple_records(self, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text(
            "2\n1,0\n0,1\n0.3,0.7\n" + "3\n0,1,0\n0,0,1\n1,0,0\n0.2,0.3,0.5\n"
        )
        batch = load_classical_batch(path)
        assert [b.dim for b, _ in batch] == [2, 3]

    def test_csv_truncated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2\n0.5,0.5\n")
        with pytest.raises(ValidationError):
            load_classical_batch(path)

    def test_json_single_and_list(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(
            json.dumps({"dim": 2, "matrix": [[0.5, 0.5], [0.5, 0.5]], "p": [0.9, 0.1]})
        )
        batch = load_classical_batch(single)
        assert len(batch) == 1
        many = tmp_path / "two.json"
        many.write_text(
            json.dumps(
                [
                    {"matrix": [[1.0, 0.0], [0.0, 1.0]], "p": [0.4, 0.6]},
                    {"matrix": [[0.0, 1.0], [1.0, 0.0]], "p": [1.0, 0.0]},
                ]
            )
        )
        assert len(load_classical_batch(many)) == 2
