import json

import pytest

from relaxbdf.cli import _build_parser, main
from relaxbdf.models import MODEL_BUILDERS, make_grad


class TestCheckStability:
    def test_all_models_pass(self, capsys):
        for name in ("arz", "broadwell", "grad"):
            assert main(["check-stability", "--model", name]) == 0
            out = capsys.readouterr().out
            assert "overall: PASS" in out

    def test_broadwell_needs_looser_tolerance_than_zero(self):
        assert main(["check-stability", "--model", "broadwell", "--tol", "1e-8"]) == 0


def test_model_choices_follow_the_registry(monkeypatch):
    monkeypatch.setitem(MODEL_BUILDERS, "grad3", lambda epsilon=1.0: make_grad(3, epsilon))
    parser = _build_parser()
    for name in MODEL_BUILDERS:
        assert parser.parse_args(["run", "--model", name]).model == name
        assert parser.parse_args(["check-stability", "--model", name]).model == name


class TestVerifyTheory:
    def test_second_order(self, capsys):
        assert main(["verify-theory", "--q", "2", "--samples", "200"]) == 0
        out = capsys.readouterr().out
        assert "multiplier identities" in out and "PASS" in out

    def test_fourth_order_skips_multiplier(self, capsys):
        assert main(["verify-theory", "--q", "4", "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert "not transcribed" in out


class TestRun:
    def test_flags_to_csv_file(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code = main(
            [
                "run",
                "--model", "grad",
                "--order", "2",
                "--eps", "1",
                "--dt", "1/20,1/40",
                "--modes", "8",
                "--tfinal", "1",
                "--startup", "exact",
                "--ref", "exact",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "epsilon,dt,l2_error,order"
        assert len(lines) == 3

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        config = {
            "model": "grad",
            "order": 2,
            "epsilons": [1.0],
            "dts": ["1/20"],
            "t_final": 1,
            "modes": 8,
            "startup": "exact",
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| epsilon |")

    def test_missing_options_is_usage_error(self, capsys):
        assert main(["run", "--model", "grad"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_missing_required_field_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"order": 2, "epsilons": [1.0], "dts": ["1/20"], "t_final": 1}))
        assert main(["run", "--config", str(path)]) == 1
        assert "missing required fields: ['model']" in capsys.readouterr().err

    def test_failed_cells_exit_code(self, tmp_path):
        code = main(
            [
                "run",
                "--model", "grad",
                "--order", "2",
                # The exact reference needs ~1000 squarings (cap 64), so
                # every cell fails at run time.
                "--eps", "1e-300",
                "--dt", "1/20",
                "--modes", "8",
                "--tfinal", "1",
                "--startup", "exact",
                "--ref", "exact",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 2
        assert "ERROR" in (tmp_path / "t.csv").read_text()

    def test_non_dividing_fine_reference_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--model", "grad",
                "--order", "2",
                "--eps", "1",
                "--dt", "1/20",
                "--modes", "8",
                "--tfinal", "1",
                "--startup", "exact",
                "--ref", "fine:0.00021",  # does not divide the interval
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 1
        assert "not an integer multiple of dt 0.00021" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_too_few_steps_for_order_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--model", "grad",
                "--order", "4",
                "--eps", "1",
                "--dt", "1/2,1/100,1/200",  # 2 steps cannot hold 3 startup values
                "--modes", "8",
                "--tfinal", "1",
                "--startup", "exact",
                "--ref", "exact",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 1
        assert "2 steps cannot accommodate an order-4 history" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "model, order, message",
        [
            ("grad", "5", "order must be 1..4, got 5"),
            ("arz", "1", "arz data is defined for orders 2..4, got 1"),
        ],
    )
    def test_unsupported_order_is_usage_error(self, tmp_path, capsys, model, order, message):
        code = main(
            [
                "run",
                "--model", model,
                "--order", order,
                "--eps", "1",
                "--dt", "1/20",
                "--modes", "8",
                "--tfinal", "1",
                "--startup", "exact",
                "--ref", "exact",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()
