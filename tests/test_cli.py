"""End-to-end tests for the command-line interface and its exit-code contract."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from qentropy import cli, entropy_analysis, parse_block_spec, synthesize_pair
from qentropy.cli import main
from qentropy.serialization import channel_to_obj, save_json, state_to_obj

from conftest import (
    DEEP_ONLY,
    amplitude_damping_channel,
    depolarizing_channel,
    identity_channel,
    maximally_mixed,
    pure_state,
    spy,
    unitary_channel,
)


GEN_KINDS = [
    "density",
    "unitary",
    "bistochastic-channel",
    "stochastic-channel",
    "bistochastic-matrix",
    "probability",
]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def state_file(tmp_path):
    def write(rho, name="state.json"):
        path = tmp_path / name
        save_json(path, state_to_obj(rho))
        return str(path)

    return write


@pytest.fixture
def channel_file(tmp_path):
    def write(phi, name="channel.json"):
        path = tmp_path / name
        save_json(path, channel_to_obj(phi))
        return str(path)

    return write


class TestAnalyzeState:
    def test_maximally_mixed(self, capsys, state_file):
        code, result = run_cli(capsys, ["analyze-state", state_file(maximally_mixed(2))])
        assert code == 0 and result["status"] == "ok"
        assert result["report"]["entropy_bits"] == pytest.approx(1.0, abs=1e-12)
        assert result["report"]["rank"] == 2

    def test_pure_state(self, capsys, state_file):
        code, result = run_cli(capsys, ["analyze-state", state_file(pure_state(2))])
        assert code == 0
        assert result["report"]["entropy_bits"] == pytest.approx(0.0, abs=1e-12)
        assert result["report"]["rank"] == 1

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, result = run_cli(capsys, ["analyze-state", str(path)])
        assert code == 2 and result["status"] == "error"
        assert result["diagnostics"]

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, result = run_cli(capsys, ["analyze-state", str(tmp_path / "nope.json")])
        assert code == 2

    def test_reports_carry_tolerances(self, capsys, state_file):
        _, result = run_cli(capsys, ["analyze-state", state_file(maximally_mixed(2))])
        assert result["report"]["tolerances"]["eq"] == 1e-8


class TestDeclaredDim:
    @pytest.mark.parametrize(
        "raw, message",
        [
            ("1e400", "declared dim inf is not an integer"),
            ("Infinity", "declared dim inf is not an integer"),
            ("NaN", "declared dim nan is not an integer"),
            ("2.7", "declared dim 2.7 is not an integer"),
            ('"2"', "declared dim '2' is not an integer"),
            ('"x"', "declared dim 'x' is not an integer"),
            ("true", "declared dim True is not an integer"),
            ("null", "declared dim None is not an integer"),
            ("[2]", "declared dim [2] is not an integer"),
            ("3", "declared dim 3 does not match {what} 2"),
            ("3.0", "declared dim 3.0 does not match {what} 2"),
            # a declared value longer than 40 characters is quoted by its head and length
            pytest.param(
                "1" + "0" * 400,
                "declared dim 10000000000000000000... (401 characters) does not match {what} 2",
                id="401-digits",
            ),
            pytest.param(
                '"' + "x" * 50 + '"',
                "declared dim 'xxxxxxxxxxxxxxxxxxx... (52 characters) is not an integer",
                id="50-letters",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "command, what",
        [
            ("analyze-state", "matrix rows"),
            ("decompose", "Kraus dimension"),
            ("classical-check", "matrix rows"),
        ],
    )
    def test_bad_dim_exits_2_with_one_object(self, capsys, tmp_path, command, what, raw, message):
        if command == "analyze-state":
            obj = state_to_obj(maximally_mixed(2))
        elif command == "decompose":
            obj = channel_to_obj(identity_channel(2))
        else:
            obj = {"dim": 2, "matrix": [[0.0, 1.0], [1.0, 0.0]], "p": [0.8, 0.2]}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj).replace('"dim": 2', f'"dim": {raw}', 1))
        code, result = run_cli(capsys, [command, str(path)])
        assert code == 2 and result["status"] == "error"
        assert result["diagnostics"] == ["ValidationError: " + message.format(what=what)]

    def test_declared_dim_is_checked_in_every_record_of_a_batch(self, capsys, tmp_path):
        good = {"dim": 2, "matrix": [[0.0, 1.0], [1.0, 0.0]], "p": [0.8, 0.2]}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([good, {**good, "dim": 5}]))
        code, result = run_cli(capsys, ["classical-check", str(path)])
        assert code == 2 and result["status"] == "error"
        assert result["diagnostics"] == ["ValidationError: declared dim 5 does not match matrix rows 2"]

    def test_integral_float_dim_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({**state_to_obj(maximally_mixed(2)), "dim": 2.0}))
        code, result = run_cli(capsys, ["analyze-state", str(path)])
        assert code == 0 and result["report"]["dim"] == 2


class TestMalformedKraus:
    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"kraus": [{"foo": 1}]}, 'Kraus entry 1: expected an object with a "matrix" field'),
            ({"kraus": 5}, '"kraus" must be a list of Kraus operators'),
        ],
        ids=["entry-without-matrix", "kraus-not-a-list"],
    )
    @pytest.mark.parametrize("command", ["decompose", "map-entropy"])
    def test_exits_2_naming_the_field(self, capsys, tmp_path, command, obj, message):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(obj))
        code, result = run_cli(capsys, [command, str(path)])
        assert code == 2 and result["status"] == "error" and result["report"] == {}
        assert result["diagnostics"] == ["ValidationError: " + message]


class TestDeeplyNestedJson:
    """json raises RecursionError, not a ValueError, on too deep nesting; it is bad input too."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze-state", "{nested}"],
            ["analyze-pair", "{nested}", "{state}"],
            ["analyze-pair", "{channel}", "{nested}"],
            ["decompose", "{nested}"],
            ["map-entropy", "{nested}"],
            ["map-entropy", "{channel}", "{nested}"],
            ["classical-check", "{nested}"],
        ],
        ids=lambda argv: "-".join(a.strip("{}") for a in argv),
    )
    def test_exits_2_with_one_object(self, capsys, tmp_path, channel_file, state_file, argv):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100000 + "]" * 100000)
        files = {"nested": str(nested), "channel": channel_file(identity_channel(2)),
                 "state": state_file(maximally_mixed(2))}
        code, result = run_cli(capsys, [a.format(**files) for a in argv])
        assert code == 2 and result["status"] == "error" and result["report"] == {}
        assert len(result["diagnostics"]) == 1
        assert result["diagnostics"][0].startswith("RecursionError: ")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["analyze-pair"], "required: channel_file, state_file"),
            (["analyze-pair", "only-one.json"], "required: state_file"),
            ([], "required: command"),
            (["no-such-command"], "invalid choice"),
            (["gen", "density", "--dim", "two"], "invalid int value"),
            (["--tol-eq"], "expected one argument"),
        ],
        ids=["no-files", "one-file", "no-command", "unknown-command", "bad-int", "flag-without-value"],
    )
    def test_usage_error_prints_json_and_exits_2(self, capsys, argv, fragment):
        code, result = run_cli(capsys, argv)
        assert code == 2
        assert result["status"] == "error" and result["report"] == {}
        assert len(result["diagnostics"]) == 1
        assert result["diagnostics"][0].startswith("UsageError: qentropy")
        assert fragment in result["diagnostics"][0]

    @pytest.mark.parametrize("argv", [["--help"], ["analyze-pair", "--help"]])
    def test_help_still_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: qentropy" in capsys.readouterr().out


class TestAnalyzePair:
    def test_unitary_exits_0(self, capsys, channel_file, state_file):
        from qentropy import random_density, random_unitary

        code, result = run_cli(
            capsys,
            [
                "analyze-pair",
                channel_file(unitary_channel(random_unitary(2, 0))),
                state_file(random_density(2, 2, seed=1)),
            ],
        )
        assert code == 0 and result["status"] == "ok"
        assert result["report"]["agreement"] is True

    def test_depolarizing_on_pure_exits_1(self, capsys, channel_file, state_file):
        code, result = run_cli(
            capsys,
            [
                "analyze-pair",
                channel_file(depolarizing_channel(2)),
                state_file(pure_state(2)),
            ],
        )
        assert code == 1 and result["status"] == "violated"
        assert result["report"]["entropy_gap_bits"] == pytest.approx(1.0, abs=1e-10)

    def test_amplitude_damping_exits_2_with_residuals(self, capsys, channel_file, state_file):
        code, result = run_cli(
            capsys,
            [
                "analyze-pair",
                channel_file(amplitude_damping_channel(0.5)),
                state_file(maximally_mixed(2)),
            ],
        )
        assert code == 2 and result["status"] == "error"
        assert result["report"]["classification"]["unital_residual"] > 0.1


class TestDecompose:
    def test_dephasing_three_blocks(self, capsys, channel_file):
        from conftest import dephasing_channel

        code, result = run_cli(capsys, ["decompose", channel_file(dephasing_channel(3))])
        assert code == 0
        dims = sorted((b["dim_left"], b["dim_right"]) for b in result["report"]["blocks"])
        assert dims == [(1, 1), (1, 1), (1, 1)]

    def test_unitary_single_block(self, capsys, channel_file):
        from qentropy import random_unitary

        code, result = run_cli(
            capsys, ["decompose", channel_file(unitary_channel(random_unitary(3, 2)))]
        )
        assert code == 0
        dims = [(b["dim_left"], b["dim_right"]) for b in result["report"]["blocks"]]
        assert dims == [(3, 1)]

    def test_depolarizing_single_scalar_block(self, capsys, channel_file):
        code, result = run_cli(capsys, ["decompose", channel_file(depolarizing_channel(3))])
        assert code == 0
        dims = [(b["dim_left"], b["dim_right"]) for b in result["report"]["blocks"]]
        assert dims == [(1, 3)]
        assert result["report"]["fixed_space_dimension"] == 1

    def test_non_bistochastic_exits_2(self, capsys, channel_file):
        code, result = run_cli(
            capsys, ["decompose", channel_file(amplitude_damping_channel(0.5))]
        )
        assert code == 2

    def test_seed_feeds_the_one_structure_solve(self, capsys, channel_file, monkeypatch):
        # the blocks come from the fixed-point solve, so no basis is decomposed a second time
        path = channel_file(synthesize_pair(parse_block_spec("2x2,1x2"), seed=5)[0])

        def boom(*args, **kwargs):
            raise AssertionError("decompose re-derived the blocks from the basis")

        draws = spy(monkeypatch, entropy_analysis, "_seeded_rng")
        monkeypatch.setattr(entropy_analysis, "decompose_fixed_point_algebra", boom)
        monkeypatch.setattr(entropy_analysis, "_orthonormal_span", boom)
        dims = []
        for seed in (3, -3):
            draws.clear()
            code, result = run_cli(capsys, ["decompose", path, "--seed", str(seed)])
            assert code == 0, result
            assert {call.args[0] for call in draws} == {seed}
            dims.append([(b["dim_left"], b["dim_right"]) for b in result["report"]["blocks"]])
        assert dims[0] == dims[1] == [(1, 2), (2, 2)]

    def test_memory_stays_small_at_n48(self, capsys, channel_file):
        # one structure solve: the d x N^2 basis (2.9 MB) is built once and never re-orthonormalized
        path = channel_file(synthesize_pair(parse_block_spec("8x4,4x4"), seed=3)[0])
        tracemalloc.start()
        try:
            code = main(["decompose", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        report = json.loads(capsys.readouterr().out)["report"]
        assert code == 0 and report["fixed_space_dimension"] == 80
        assert peak <= 12 * 2**20

    @pytest.mark.deep
    @DEEP_ONLY
    def test_analyze_pair_and_decompose_at_scale(self, capsys, tmp_path):
        # a generic N=64 pair with k=3 (the channel kernel takes its operators in two slices,
        # 2 + 1) violates both verdicts, which agree; at N=96 decompose prints the blocks the
        # fixed-point solve certified, with sum dL^2 = 320
        channel, state, pair = (str(tmp_path / f) for f in ("bist64.json", "rho64.json", "pair"))
        for argv in (f"gen bistochastic-channel --dim 64 --num-unitaries 3 --out {channel}",
                     f"gen density --dim 64 --out {state}",
                     f"synthesize --spec 16x3,8x6 --seed 3 --out-dir {pair}"):
            assert run_cli(capsys, argv.split())[0] == 0, argv
        code, result = run_cli(capsys, ["analyze-pair", channel, state])
        assert code == 1 and result["status"] == "violated" and result["report"]["agreement"]
        code, result = run_cli(capsys, ["decompose", f"{pair}/channel.json"])
        report = result["report"]
        dims = sorted((b["dim_left"], b["dim_right"]) for b in report["blocks"])
        assert code == 0 and dims == [(8, 6), (16, 3)]
        assert report["fixed_space_dimension"] == 320
        assert report["spectral_gap"] > 1e-7 and report["block_form_residual"] <= 1e-6


class TestMapEntropy:
    def test_identity_zero(self, capsys, channel_file):
        code, result = run_cli(capsys, ["map-entropy", channel_file(identity_channel(2))])
        assert code == 0
        assert result["report"]["map_entropy_bits"] == pytest.approx(0.0, abs=1e-10)

    def test_depolarizing_two_bits(self, capsys, channel_file):
        code, result = run_cli(capsys, ["map-entropy", channel_file(depolarizing_channel(2))])
        assert code == 0
        assert result["report"]["map_entropy_bits"] == pytest.approx(2.0, abs=1e-8)

    def test_pair_preserved_exits_0(self, capsys, channel_file):
        from qentropy import random_stochastic_channel, random_unitary

        u_file = channel_file(unitary_channel(random_unitary(2, 3)), "u.json")
        psi_file = channel_file(random_stochastic_channel(2, 2, seed=4), "psi.json")
        code, result = run_cli(capsys, ["map-entropy", u_file, psi_file])
        assert code == 0 and result["report"]["entropy_preserved"] is True

    def test_pair_not_preserved_exits_1(self, capsys, channel_file):
        depol = channel_file(depolarizing_channel(2), "depol.json")
        ident = channel_file(identity_channel(2), "id.json")
        code, result = run_cli(capsys, ["map-entropy", depol, ident])
        assert code == 1 and result["status"] == "violated"

    def test_non_stochastic_exits_2(self, capsys, channel_file, tmp_path):
        half = channel_file(identity_channel(2), "outer.json")
        bad = tmp_path / "bad.json"
        save_json(bad, {"dim": 2, "kraus": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]})
        code, result = run_cli(capsys, ["map-entropy", half, str(bad)])
        assert code == 2

    def test_non_stochastic_composition_exits_2(self, capsys, tmp_path):
        # each factor passes with residual 1.27e-8 <= 2 tol.eq, their composition does not
        s = float(np.sqrt(1.0 + 0.9e-8))
        path = tmp_path / "scaled.json"
        save_json(path, {"dim": 2, "kraus": [[[[s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [s, 0.0]]]]})
        code, result = run_cli(capsys, ["map-entropy", str(path), str(path)])
        assert code == 2 and result["status"] == "error"
        assert result["diagnostics"] == [
            "NotStochasticError: map entropy needs a trace-preserving channel; residual 2.546e-08"
        ]


class TestClassicalCheck:
    def test_permutation_batch_ok(self, capsys, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text("2\n0,1\n1,0\n0.8,0.2\n")
        code, result = run_cli(capsys, ["classical-check", str(path)])
        assert code == 0 and result["status"] == "ok"
        assert result["report"]["instances"] == 1
        assert result["report"]["preserved"] == 1
        assert result["report"]["disagreements"] == 0

    def test_mixed_batch_agreement_everywhere(self, capsys, tmp_path):
        records = [
            {"matrix": [[0.0, 1.0], [1.0, 0.0]], "p": [0.8, 0.2]},
            {"matrix": [[0.7, 0.3], [0.3, 0.7]], "p": [0.8, 0.2]},
            {"matrix": [[0.5, 0.5], [0.5, 0.5]], "p": [0.5, 0.5]},
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(records))
        code, result = run_cli(capsys, ["classical-check", str(path)])
        assert code == 0
        assert result["report"]["instances"] == 3
        assert result["report"]["disagreements"] == 0
        assert result["report"]["preserved"] == 2

    @pytest.mark.parametrize("name, text", [("batch.json", "[]"), ("batch.csv", "\n")])
    def test_empty_batch_exits_2_in_both_formats(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, result = run_cli(capsys, ["classical-check", str(path)])
        assert code == 2 and result["status"] == "error"
        assert result["diagnostics"] == ["ValidationError: empty classical batch"]

    @pytest.mark.parametrize(
        "name, text, where, lengths",
        [
            ("batch.csv", "2\n0.5,0.5\n0.5,0.5,0.1\n0.5,0.5\n", "record 1 (line 1)", [2, 3]),
            # blank lines count: the second record starts on line 6
            (
                "batch.csv",
                "2\n0,1\n1,0\n1,0\n\n2\n0.5,0.5\n\n0.5\n0.5,0.5\n",
                "record 2 (line 6)",
                [2, 1],
            ),
            (
                "batch.json",
                json.dumps([{"matrix": [[0, 1], [1, 0]], "p": [1, 0]},
                            {"matrix": [[0.5, 0.5], [0.5]], "p": [0.5, 0.5]}]),
                "record 2",
                [2, 1],
            ),
        ],
    )
    def test_ragged_rows_name_their_record(self, capsys, tmp_path, name, text, where, lengths):
        path = tmp_path / name
        path.write_text(text)
        code, result = run_cli(capsys, ["classical-check", str(path)])
        assert code == 2 and result["status"] == "error"
        assert result["diagnostics"] == [
            f"ValidationError: {where}: matrix rows have unequal lengths {lengths}"
        ]

    @pytest.mark.parametrize(
        "records, where",
        [
            # a row that is a number, not a list: numpy's "inhomogeneous shape" before
            ([{"matrix": [[0.5, 0.5], 0.5], "p": [0.5, 0.5]}], "record 1"),
            # rows of equal length that nest unevenly
            (
                [{"matrix": [[0, 1], [1, 0]], "p": [1, 0]},
                 {"matrix": [[[0.5], [0.5]], [0.5, 0.5]], "p": [0.5, 0.5]}],
                "record 2",
            ),
            ([{"matrix": [["a", 0.5], [0.5, 0.5]], "p": [0.5, 0.5]}], "record 1"),
        ],
    )
    def test_malformed_matrix_names_its_record(self, capsys, tmp_path, records, where):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(records))
        code, result = run_cli(capsys, ["classical-check", str(path)])
        assert code == 2 and result["status"] == "error"
        assert result["diagnostics"] == [
            f"ValidationError: {where}: matrix is not equal-length rows of numbers"
        ]

    def test_column_stochastic_only_exits_2(self, capsys, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text("2\n1,0.5\n0,0.5\n0.5,0.5\n")
        code, result = run_cli(capsys, ["classical-check", str(path)])
        assert code == 2 and result["status"] == "error"


class TestSynthesize:
    def test_unitary_spec(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, result = run_cli(
            capsys, ["synthesize", "--spec", "4x1", "--seed", "1", "--out-dir", str(out)]
        )
        assert code == 0
        produced = json.loads((out / "channel.json").read_text())
        assert len(produced["kraus"]) == 1

    def test_maximally_mixed_spec(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, result = run_cli(
            capsys, ["synthesize", "--spec", "1x4", "--seed", "2", "--out-dir", str(out)]
        )
        assert code == 0
        state = json.loads((out / "state.json").read_text())
        diag = [state["matrix"][i][i][0] for i in range(4)]
        np.testing.assert_allclose(diag, [0.25] * 4, atol=1e-10)

    def test_two_block_spec_self_check_and_pair_analysis(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, result = run_cli(
            capsys,
            ["synthesize", "--spec", "2x1,1x2", "--seed", "7", "--out-dir", str(out)],
        )
        assert code == 0
        assert result["report"]["self_check"]["entropy_preserved"] is True
        code2, result2 = run_cli(
            capsys,
            ["analyze-pair", str(out / "channel.json"), str(out / "state.json")],
        )
        assert code2 == 0

    def test_zero_tolerances_write_the_same_files(self, capsys, tmp_path):
        """The pair is not judged at the caller's tolerance; its self-check is, and at eq = 0 the
        precondition of the entropy report refuses the rounding in the channel's residuals."""
        argv = ["synthesize", "--spec", "2x1,1x2", "--seed", "7", "--out-dir"]
        code, _ = run_cli(capsys, [*argv, str(tmp_path / "default")])
        zero_code, zero = run_cli(
            capsys, ["--tol-eq", "0", "--tol-psd", "0", *argv, str(tmp_path / "zero")]
        )
        assert code == 0
        assert (zero_code, zero["diagnostics"][0].split(":")[0]) == (2, "NotBistochasticError")
        for name in ("channel.json", "state.json", "structure.json"):
            want = (tmp_path / "default" / name).read_bytes()
            assert (tmp_path / "zero" / name).read_bytes() == want, name

    def test_bad_spec_exits_2(self, capsys, tmp_path):
        code, result = run_cli(
            capsys, ["synthesize", "--spec", "2xx1", "--out-dir", str(tmp_path / "x")]
        )
        assert code == 2


class TestGen:
    def test_density_deterministic(self, capsys):
        _, a = run_cli(capsys, ["gen", "density", "--dim", "3", "--rank", "2", "--seed", "9"])
        _, b = run_cli(capsys, ["gen", "density", "--dim", "3", "--rank", "2", "--seed", "9"])
        assert a["report"]["object"] == b["report"]["object"]

    @pytest.mark.parametrize("kind", GEN_KINDS)
    def test_zero_tolerances_print_the_same_object(self, capsys, kind):
        """A generated object is valid by construction; the caller's tolerance does not judge it."""
        for seed in range(3):  # each of the kinds that validate meets rounding at one of them
            argv = ["gen", kind, "--dim", "4", "--rank", "2", "--seed", str(seed)]
            code, zero = run_cli(capsys, ["--tol-eq", "0", "--tol-psd", "0", *argv])
            _, default = run_cli(capsys, argv)
            assert code == 0 and zero["report"]["object"] == default["report"]["object"], seed

    @pytest.mark.parametrize("dim", ["0", "-1"])
    @pytest.mark.parametrize("kind", GEN_KINDS)
    def test_non_positive_dimension_exits_2(self, capsys, kind, dim):
        code = main(["gen", kind, "--dim", dim])
        result = json.loads(capsys.readouterr().out)  # exactly one JSON object
        assert code == 2 and result["status"] == "error"
        assert result["diagnostics"] == [f"ValidationError: dimension must be positive, got {dim}"]

    @pytest.mark.parametrize("kind", GEN_KINDS)
    def test_negative_seed_gives_its_own_object(self, capsys, kind):
        code, minus = run_cli(capsys, ["gen", kind, "--dim", "2", "--seed", "-1"])
        _, plus = run_cli(capsys, ["gen", kind, "--dim", "2", "--seed", "1"])
        assert code == 0 and minus["status"] == "ok" and minus["report"]["seed"] == -1
        assert minus["report"]["object"] != plus["report"]["object"]

    @pytest.mark.parametrize(
        "module, argv",
        [
            (cli, ["gen", "unitary", "--dim", "100000"]),
            (entropy_analysis, ["synthesize", "--spec", "1x100000", "--out-dir", "{out}"]),
        ],
        ids=["gen", "synthesize"],
    )
    def test_memory_error_exits_2_with_one_object(
        self, capsys, tmp_path, monkeypatch, module, argv
    ):
        """numpy raises MemoryError for a size it cannot allocate; nothing here allocates it."""

        def refuse(n, seed):
            raise MemoryError("Unable to allocate 149. GiB")

        monkeypatch.setattr(module, "random_unitary", refuse)
        code, result = run_cli(capsys, [a.format(out=tmp_path / "out") for a in argv])
        assert code == 2 and result["status"] == "error" and result["report"] == {}
        assert result["diagnostics"] == ["MemoryError: Unable to allocate 149. GiB"]

    def test_gen_to_file_feeds_other_commands(self, capsys, tmp_path):
        chan = tmp_path / "chan.json"
        code, _ = run_cli(
            capsys,
            ["gen", "bistochastic-channel", "--dim", "3", "--seed", "4", "--out", str(chan)],
        )
        assert code == 0
        code2, result2 = run_cli(capsys, ["decompose", str(chan)])
        assert code2 == 0

    def test_gen_bistochastic_matrix(self, capsys):
        code, result = run_cli(
            capsys, ["gen", "bistochastic-matrix", "--dim", "4", "--num-perms", "2", "--seed", "5"]
        )
        assert code == 0
        matrix = np.asarray(result["report"]["object"]["matrix"])
        np.testing.assert_allclose(matrix.sum(axis=0), np.ones(4), atol=1e-9)
        np.testing.assert_allclose(matrix.sum(axis=1), np.ones(4), atol=1e-9)

    def test_gen_stochastic_channel_valid(self, capsys, tmp_path):
        chan = tmp_path / "psi.json"
        code, _ = run_cli(
            capsys,
            [
                "gen",
                "stochastic-channel",
                "--dim",
                "2",
                "--env-dim",
                "2",
                "--seed",
                "6",
                "--out",
                str(chan),
            ],
        )
        assert code == 0
        code2, result2 = run_cli(capsys, ["map-entropy", str(chan)])
        assert code2 == 0


@pytest.fixture
def every_command(tmp_path, channel_file, state_file):
    """One argument list per command that prints a report, both `analyze-pair` outcomes included."""
    from qentropy import random_unitary

    unitary = channel_file(unitary_channel(random_unitary(2, 0)))
    damping = channel_file(amplitude_damping_channel(0.5), "damping.json")
    state = state_file(maximally_mixed(2))
    batch = tmp_path / "batch.csv"
    batch.write_text("2\n0,1\n1,0\n0.8,0.2\n")
    return [
        ["analyze-state", state],
        ["analyze-pair", unitary, state],
        ["analyze-pair", damping, state],
        ["decompose", unitary],
        ["map-entropy", unitary],
        ["map-entropy", unitary, unitary],
        ["classical-check", str(batch)],
        ["synthesize", "--spec", "2x1", "--out-dir", str(tmp_path / "out")],
        ["gen", "density", "--dim", "2"],
        ["gen", "density", "--dim", "2", "--out", str(tmp_path / "rho.json")],
    ]


class TestReportTolerances:
    def test_last_report_key_of_every_command(self, capsys, every_command, state_file):
        for argv in every_command:
            _, result = run_cli(capsys, ["--tol-eq", "1e-7", *argv])
            assert list(result["report"])[-1] == "tolerances", argv
            assert result["report"]["tolerances"]["eq"] == 1e-7, argv
        _, result = run_cli(capsys, ["analyze-pair", state_file(maximally_mixed(2))])
        assert "tolerances" not in result["report"]


class TestToleranceFlags:
    def test_flag_loosens_equality(self, capsys, channel_file, state_file):
        from qentropy import validate_state

        # depolarizing diag(0.9, 0.1): entropy gap ~0.53 bits, inside 0.99
        rho = validate_state(np.diag([0.9, 0.1]))
        argv_tail = [
            "analyze-pair",
            channel_file(depolarizing_channel(2)),
            state_file(rho),
        ]
        strict_code, _ = run_cli(capsys, argv_tail)
        assert strict_code == 1
        loose_code, result = run_cli(capsys, ["--tol-eq", "0.99"] + argv_tail)
        assert loose_code == 0
        assert result["report"]["tolerances"]["eq"] == 0.99

    def test_environment_variables_set_no_tolerance(self, capsys, every_command, monkeypatch):
        monkeypatch.setenv("TOL_EQ", "0.5")
        for argv in every_command:
            _, result = run_cli(capsys, argv)
            assert result["report"]["tolerances"]["eq"] == 1e-8, argv

    def test_every_settable_tolerance_has_a_flag(self):
        from qentropy import ToleranceConfig

        assert {f.name for f in dataclasses.fields(ToleranceConfig)} == set(cli._TOL_FLAGS)

    def test_reports_print_seven_tolerances_in_order(self):
        from qentropy import DEFAULT_TOL

        # the README defaults; herm, trace, recon and group are fixed, the rest settable
        assert list(DEFAULT_TOL.as_dict().items()) == [
            ("herm", 1e-9), ("trace", 1e-9), ("psd", 1e-10), ("recon", 1e-10),
            ("eq", 1e-8), ("fix", 1e-7), ("group", 1e-6),
        ]
