import json
import logging

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

    @pytest.mark.parametrize("tol", ["-1", "nan", "0"])
    def test_invalid_tol_is_usage_error(self, tol, capsys):
        assert main(["check-stability", "--model", "grad", "--tol", tol]) == 1
        assert "error: tol must be finite and positive" in capsys.readouterr().err


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        ["run", "--model", "nope"],
        # argparse's negative-number pattern does not match -1e400, so --eps
        # reads as a flag without its value.
        ["run", "--eps", "-1e400"],
        [],
    ], ids=["unknown-model", "unmatched-negative-number", "no-subcommand"])
    def test_argparse_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert "relaxbdf" in err and "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage: relaxbdf" in capsys.readouterr().out


def test_model_choices_follow_the_registry(monkeypatch):
    monkeypatch.setitem(MODEL_BUILDERS, "grad3", lambda: make_grad(3))
    parser = _build_parser()
    for name in MODEL_BUILDERS:
        assert parser.parse_args(["run", "--model", name]).model == name
        assert parser.parse_args(["check-stability", "--model", name]).model == name


class TestVerifyTheory:
    def test_second_order(self, capsys):
        assert main(["verify-theory", "--q", "2", "--samples", "200"]) == 0
        out = capsys.readouterr().out
        assert "multiplier identities" in out and "PASS" in out

    @pytest.mark.parametrize("tol", ["-1", "nan", "0"])
    def test_invalid_tol_is_usage_error(self, tol, capsys):
        assert main(["verify-theory", "--q", "2", "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert "error: tol must be finite and positive" in captured.err
        assert "FAIL" not in captured.out

    def test_zero_samples_is_usage_error(self, capsys):
        assert main(["verify-theory", "--q", "2", "--samples", "0"]) == 1
        assert "error: samples must be at least 1, got 0" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"foo": 1}, "error: model 'arz' has no parameters ['foo']; its parameters are ['c0',"),
            ({"c0": -3}, "error: no witness among 16 directions"),
            ({"c0": "abc"}, "error: model 'arz' parameter 'c0' must be a finite number, got 'abc'"),
        ],
    )
    def test_bad_model_overrides_are_usage_errors(self, tmp_path, capsys, overrides, message):
        config = {
            "model": "arz",
            "order": 2,
            "epsilons": [1.0],
            "dts": ["1/20"],
            "t_final": 1,
            "overrides": overrides,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("overrides", [{"rho_m": 0}, {"rho_star": 0, "gamma": 0.5}])
    def test_nonpositive_arz_density_is_usage_error(self, tmp_path, capsys, overrides):
        # Both once ended in a ZeroDivisionError traceback.
        config = {"model": "arz", "order": 2, "epsilons": [1.0], "dts": ["1/20"], "t_final": 1,
                  "overrides": overrides}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        key = next(iter(overrides))
        assert err.splitlines() == [
            f"error: model 'arz' parameter '{key}' must be a positive density, got 0"
        ]
        assert not (tmp_path / "t.csv").exists()

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

    def test_zero_dt_is_usage_error(self, tmp_path, capsys):
        code = main(["run", "--model", "grad", "--order", "2", "--eps", "1", "--dt", "0",
                     "--modes", "8", "--tfinal", "1", "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert "error: dt must be finite and positive, got 0.0" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_negative_dt_in_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"model": "grad", "order": 2, "epsilons": [1.0],
                                    "dts": [-0.05], "t_final": 1}))
        assert main(["run", "--config", str(path)]) == 1
        assert "error: dt must be finite and positive, got -0.05" in capsys.readouterr().err

    @pytest.mark.parametrize("eps, message", [
        ("0", "epsilon must be finite and positive, got 0.0"),
        ("1,-1/100", "epsilon must be finite and positive, got -0.01"),
    ])
    def test_bad_eps_is_usage_error(self, tmp_path, capsys, eps, message):
        code = main(["run", "--model", "grad", "--order", "2", f"--eps={eps}", "--dt", "1/20",
                     "--modes", "8", "--tfinal", "1", "--out", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("key, token, message", [
        ("epsilons", "[Infinity]", "epsilon must be finite and positive, got inf"),
        ("t_final", "Infinity", "t_final must be finite, got inf"),
        ("t_final", "NaN", "t_final must be finite, got nan"),
        ("t_start", "-Infinity", "t_start must be finite, got -inf"),
    ])
    def test_nonfinite_config_value_is_usage_error(self, tmp_path, capsys, key, token, message):
        doc = {"model": '"grad"', "order": "2", "epsilons": "[1]", "dts": "[0.05]",
               "t_final": "1", key: token}
        path = tmp_path / "study.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--tfinal", "abc", "t_final must be a number or a fraction string, got 'abc'"),
        ("--t0", "1/0", "t_start must be a number or a fraction string, got '1/0'"),
        ("--eps", "1,x", "epsilon must be a number or a fraction string, got 'x'"),
        ("--dt", "1/20,1/4O", "dt must be a number or a fraction string, got '1/4O'"),
        # Past the float range a number reads as infinite, as float("1e400") does.
        ("--dt", "1e400", "dt must be finite and positive, got inf"),
        ("--eps", "1e400", "epsilon must be finite and positive, got inf"),
        ("--tfinal", "1e400", "t_final must be finite, got inf"),
        ("--ref", "fine:1e400", "reference step must be finite and positive, got inf"),
        ("--ref", "fine:1/0", "reference step must be a number or a fraction string, got '1/0'"),
        ("--ref", "fine:abc", "reference step must be a number or a fraction string, got 'abc'"),
    ])
    def test_malformed_number_is_usage_error_naming_the_field(self, capsys, flag, value, message):
        argv = {"--eps": "1", "--dt": "1/20", "--tfinal": "1", flag: value}
        code = main(["run", "--model", "grad", "--order", "2", "--modes", "8",
                     *(f"{key}={token}" for key, token in argv.items())])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err

    def test_malformed_ars_divisor_is_usage_error(self, capsys):
        code = main(["run", "--model", "grad", "--order", "2", "--eps", "1", "--dt", "1/20",
                     "--modes", "8", "--tfinal", "1", "--startup", "ars:x"])
        assert code == 1
        err = capsys.readouterr().err
        assert "'ars:x'" in err and "'exact', 'ars' or 'ars:<divisor>'" in err
        assert "invalid literal" not in err


@pytest.fixture
def package_logger():
    """Restore the relaxbdf logger after a test that sets its level."""
    logger = logging.getLogger("relaxbdf")
    saved = logger.level, list(logger.handlers), logger.propagate
    yield logger
    logger.setLevel(saved[0])
    logger.handlers[:] = saved[1]
    logger.propagate = saved[2]


class TestLogLevel:
    # dt=1/2 exceeds the step bound 1/kappa^2 = 1/4 of Grad's data modes
    # (|k| <= 2 on [0, 2 pi]): the harness warns.
    ARGV = ["run", "--model", "grad", "--order", "2", "--eps", "1", "--dt", "1/2",
            "--modes", "8", "--tfinal", "1", "--startup", "exact"]
    NOTICE = "dt 0.5 exceed the sufficient stability bound 1/kappa^2 = 0.25"

    def test_error_level_silences_the_step_bound_notice(self, package_logger, capsys):
        assert main(self.ARGV + ["--log-level", "warning"]) == 0
        assert capsys.readouterr().err.count(self.NOTICE) == 1
        assert main(self.ARGV + ["--log-level", "error"]) == 0
        assert "stability bound" not in capsys.readouterr().err

    def test_failed_cell_is_logged_once(self, package_logger, capsys):
        # dt=0.5 is far past the stability bound at N=100: the run overflows.
        argv = ["run", "--model", "arz", "--order", "4", "--eps", "1", "--dt", "0.5",
                "--tfinal", "500", "--startup", "exact", "--log-level", "error"]
        for _ in range(2):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("cell failed: epsilon=1 dt=0.5") == 1
        assert len(package_logger.handlers) == 1

    def test_omitted_level_leaves_logging_alone(self, package_logger):
        before = package_logger.level, list(package_logger.handlers), package_logger.propagate
        assert main(["check-stability", "--model", "grad"]) == 0
        assert (package_logger.level, package_logger.handlers, package_logger.propagate) == before
        assert main(["check-stability", "--model", "grad", "--log-level", "debug"]) == 0
        assert package_logger.level == logging.DEBUG
