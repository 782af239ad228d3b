import json
import logging
import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest

from relaxbdf import harness, linalg
from relaxbdf.harness import (
    ConvergenceTable,
    ExperimentConfig,
    ShapeMismatchError,
    TableRow,
    compute_error,
    emit_table,
    grid_error,
    parse_table_csv,
    run_convergence_study,
)
from relaxbdf.integrator import NonIntegerStepCountError, UnsupportedOrderError, run
from relaxbdf.models import InvalidParameterError, build_model, initial_data
from relaxbdf.oracle import exact_evolve, fine_step_reference, mode_matrix
from relaxbdf.spectral import SpectralField, zero_field


def small_config(**kwargs):
    base = dict(
        model="grad",
        order=2,
        epsilons=(1.0,),
        dts=(1 / 20, 1 / 40, 1 / 80),
        t_final=1.0,
        modes=8,
        startup="exact",
        reference="exact",
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestComputeError:
    def test_identical_fields(self):
        u = zero_field(2, 4, 1.0)
        assert compute_error(u, u) == 0.0

    def test_constant_offset(self):
        length = 2.0
        coeffs = np.zeros((9, 2), dtype=complex)
        u = SpectralField(coeffs, length)
        shifted = np.array(coeffs)
        shifted[4, 0] = 0.75
        v = SpectralField(shifted, length)
        assert compute_error(u, v) == pytest.approx(math.sqrt(length) * 0.75)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            compute_error(zero_field(2, 4, 1.0), zero_field(2, 5, 1.0))

    def test_grid_norm_scale(self):
        u = zero_field(1, 10, 2 * math.pi)
        shifted = np.array(np.asarray(u.coeffs))
        shifted[10, 0] = 1.0
        v = SpectralField(shifted, u.domain_length)
        expected = compute_error(u, v) * math.sqrt(21 / (2 * math.pi))
        assert grid_error(u, v) == pytest.approx(expected, rel=1e-14)


class TestConfig:
    def test_dts_must_decrease(self):
        with pytest.raises(ValueError):
            small_config(dts=(1 / 40, 1 / 20))

    def test_steps_must_be_integral(self):
        with pytest.raises(ValueError):
            small_config(dts=(0.3,))

    def test_bad_startup(self):
        with pytest.raises(ValueError):
            small_config(startup="rk4")

    @pytest.mark.parametrize("spec", ["ars:0", "rk"])
    def test_bad_startup_spec(self, spec):
        with pytest.raises(ValueError):
            small_config(startup=spec)

    def test_bad_reference(self):
        with pytest.raises(ValueError):
            small_config(reference="finer")

    def test_fine_reference_step_must_divide_interval(self):
        with pytest.raises(NonIntegerStepCountError, match="dt 0.3"):
            ExperimentConfig(
                model="arz", order=2, epsilons=(1.0,), dts=(0.1, 0.05), t_final=1.0,
                modes=8, startup="exact", reference="fine:0.3",
            )

    @pytest.mark.parametrize(
        "dts, reference",
        [((0.5, 1 / 100, 1 / 200), "exact"), ((1 / 100, 1 / 200), "fine:0.5")],
    )
    def test_too_few_steps_for_order_rejected(self, dts, reference):
        with pytest.raises(NonIntegerStepCountError, match="2 steps cannot accommodate an order-4"):
            small_config(order=4, dts=dts, reference=reference)

    def test_order_outside_bdf_family_rejected(self):
        with pytest.raises(UnsupportedOrderError, match="order must be 1..4, got 5"):
            small_config(order=5)

    def test_stored_seed_key_still_loads(self):
        doc = {"model": "grad", "order": 2, "epsilons": [1.0], "dts": ["1/20"],
               "t_final": 1, "seed": 7}
        config = ExperimentConfig.from_json(doc)
        assert not hasattr(config, "seed")

    def test_from_json_defaults_follow_the_dataclass(self):
        doc = {"model": "grad", "order": "2", "epsilons": [1.0], "dts": ["1/20"], "t_final": "1"}
        config = ExperimentConfig.from_json(doc)
        assert config == ExperimentConfig(
            model="grad", order=2, epsilons=(1.0,), dts=(0.05,), t_final=1.0
        )

    def test_from_json_names_missing_required_field(self):
        doc = {"model": "grad", "order": 2, "epsilons": [1.0], "dts": ["1/20"]}
        with pytest.raises(ValueError, match="missing required fields: \\['t_final'\\]"):
            ExperimentConfig.from_json(doc)

    @pytest.mark.parametrize("dt", [0.0, -0.05, float("inf"), float("nan")])
    def test_nonpositive_or_nonfinite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match=f"dt must be finite and positive, got {dt!r}"):
            small_config(dts=(dt,))

    @pytest.mark.parametrize("token, value", [("0", "0.0"), ("-0.05", "-0.05"), ("NaN", "nan"),
                                              ("-Infinity", "-inf")])
    def test_from_json_rejects_bad_dt(self, token, value):
        text = f'{{"model": "grad", "order": 2, "epsilons": [1], "dts": [{token}], "t_final": 1}}'
        with pytest.raises(ValueError, match=f"dt must be finite and positive, got {value}"):
            ExperimentConfig.from_json(text)

    @pytest.mark.parametrize("key, token, message", [
        ("epsilons", "[Infinity]", "epsilon must be finite and positive, got inf"),
        ("epsilons", "[1, 0]", "epsilon must be finite and positive, got 0.0"),
        ("epsilons", '["-1/1000"]', "epsilon must be finite and positive, got -0.001"),
        ("epsilons", "[NaN]", "epsilon must be finite and positive, got nan"),
        ("t_final", "Infinity", "t_final must be finite, got inf"),
        ("t_final", "NaN", "t_final must be finite, got nan"),
        ("t_start", "-Infinity", "t_start must be finite, got -inf"),
    ])
    def test_from_json_rejects_bad_epsilon_or_time(self, key, token, message):
        doc = {"model": '"grad"', "order": "2", "epsilons": "[1]", "dts": '["1/20"]', "t_final": "1"}
        doc[key] = token
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_json(text)

    @pytest.mark.parametrize("key, value, expected", [
        ("t_final", "1/2", 0.5), ("t_final", 1, 1.0), ("t_start", "-1/4", -0.25), ("t_start", "0", 0.0),
    ])
    def test_times_parse_like_the_number_lists(self, key, value, expected):
        config = small_config(dts=("1/20",), **{key: value})
        assert getattr(config, key) == expected and type(getattr(config, key)) is float

    @pytest.mark.parametrize("key, value", [
        ("t_final", "abc"), ("t_final", "1/0"), ("t_final", None), ("t_start", [0]),
        ("t_start", "1e-2x"),
    ])
    def test_bad_time_is_value_error_naming_the_field(self, key, value):
        with pytest.raises(ValueError, match=re.escape(f"{key} must be a number or a fraction "
                                                       f"string, got {value!r}")):
            small_config(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("order", 2.9), ("order", True), ("order", "two"), ("order", "2.0"),
        ("modes", 100.7), ("modes", False), ("modes", "8.5"), ("modes", None),
    ])
    def test_from_json_rejects_non_integer_order_or_modes(self, key, value):
        doc = {"model": "grad", "order": 2, "epsilons": [1.0], "dts": ["1/20"], "t_final": 1,
               key: value}
        with pytest.raises(ValueError, match=re.escape(f"{key} must be an integer, got {value!r}")):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_direct_fractional_modes_rejected_before_any_cell(self):
        with pytest.raises(ValueError, match="modes must be an integer, got 8.5"):
            small_config(modes=8.5)

    @pytest.mark.parametrize("value", [16, "16", 16.0, np.int64(16)],
                             ids=["int", "str", "float", "int64"])
    def test_integer_modes_parse_to_int(self, value):
        modes = small_config(modes=value).modes
        assert modes == 16 and type(modes) is int

    def test_bad_norm(self):
        with pytest.raises(ValueError):
            small_config(error_norm="sup")

    def test_from_json_with_fractions_and_overrides(self):
        doc = {
            "model": "grad",
            "order": 3,
            "epsilons": ["1/100", 1.0],
            "dts": ["1/20", "1/40"],
            "t_final": 1,
            "modes": 8,
            "overrides": {"moments": 4},
        }
        config = ExperimentConfig.from_json(json.dumps(doc), order=2)
        assert config.order == 2  # command-line value wins
        assert config.epsilons == (0.01, 1.0)
        assert config.dts == (0.05, 0.025)
        assert config.overrides == {"moments": 4}


class TestStudy:
    def test_second_order_table(self):
        table = run_convergence_study(small_config())
        assert len(table.rows) == 3
        assert table.rows[0].order is None
        for row in table.rows[1:]:
            assert row.order == pytest.approx(2.0, abs=0.15)

    def test_order_column_matches_recomputation(self):
        table = run_convergence_study(small_config())
        for earlier, later in zip(table.rows, table.rows[1:]):
            recomputed = math.log(earlier.l2_error / later.l2_error) / math.log(
                earlier.dt / later.dt
            )
            assert later.order == pytest.approx(recomputed, abs=0.005)

    def test_single_dt_has_no_order(self):
        table = run_convergence_study(small_config(dts=(1 / 20,)))
        assert len(table.rows) == 1
        assert table.rows[0].order is None

    def test_deterministic_output(self):
        first = emit_table(run_convergence_study(small_config()), "csv")
        second = emit_table(run_convergence_study(small_config()), "csv")
        assert first == second

    def test_failed_reference_marks_cells(self, caplog):
        # The exact reference needs ~1000 squarings (cap 64) and fails at run
        # time: the whole block is marked, and the log names the mode.
        config = small_config(epsilons=(1e-300,))
        with caplog.at_level(logging.ERROR, logger="relaxbdf.harness"):
            table = run_convergence_study(config)
        assert all(row.l2_error is None for row in table.rows)
        text = emit_table(table, "csv")
        assert "ERROR" in text
        assert "mode k=0 at t=1, eps=1e-300: |t*matrix|_1" in caplog.text
        assert "squarings (cap 64)" in caplog.text

    def test_blown_up_cell_is_error_row_naming_the_step(self, caplog):
        config = ExperimentConfig(model="arz", order=4, epsilons=(1.0,), dts=(0.5,),
                                  t_final=500.0, startup="exact")
        with caplog.at_level(logging.ERROR, logger="relaxbdf.harness"):
            table = run_convergence_study(config)
        assert [row.l2_error for row in table.rows] == [None]
        assert "ERROR" in emit_table(table, "csv")
        [record] = caplog.records
        assert re.search(r"cell failed: epsilon=1 dt=0\.5: non-finite value in BDF step \d+ "
                         r"\(eps=1, dt=0\.5\)", record.getMessage())

    def test_order_without_initial_data_rejected_before_first_block(self, caplog):
        config = small_config(model="arz", order=1)
        with caplog.at_level(logging.ERROR, logger="relaxbdf.harness"):
            with pytest.raises(UnsupportedOrderError, match="arz data is defined for orders 2..4"):
                run_convergence_study(config)
        assert not caplog.records

    def test_grid_and_continuum_norms_differ_by_scale(self):
        grid_table = run_convergence_study(small_config())
        cont_table = run_convergence_study(small_config(error_norm="continuum"))
        scale = math.sqrt((2 * 8 + 1) / (2 * math.pi))
        for g, c in zip(grid_table.rows, cont_table.rows):
            assert g.l2_error == pytest.approx(c.l2_error * scale, rel=1e-12)

    def test_cross_reference_consistency(self):
        # Exact and fine-step references agree to a few percent per cell.
        exact_cfg = small_config(
            model="arz", epsilons=(1e-3,), dts=(1 / 24,), t_final=0.25, order=2
        )
        fine_cfg = small_config(
            model="arz",
            epsilons=(1e-3,),
            dts=(1 / 24,),
            t_final=0.25,
            order=2,
            reference=f"fine:{1 / (24 * 500)}",
        )
        exact_err = run_convergence_study(exact_cfg).rows[0].l2_error
        fine_err = run_convergence_study(fine_cfg).rows[0].l2_error
        assert fine_err == pytest.approx(exact_err, rel=0.05)

    def test_modes_must_cover_data(self):
        with pytest.raises(ValueError):
            run_convergence_study(small_config(model="broadwell", modes=3))

    def test_epsilon_override_is_rejected(self):
        # The config's epsilons set eps; an override of it is not a model parameter.
        config = ExperimentConfig.from_json(
            {"model": "arz", "order": 2, "epsilons": [1e-3], "dts": ["1/20"], "t_final": 1,
             "overrides": {"epsilon": 1e-6}}
        )
        with pytest.raises(InvalidParameterError, match=r"no parameters \['epsilon'\]"):
            run_convergence_study(config)

    @pytest.mark.parametrize("name, overrides, match", [
        ("grad", {}, "config is for model 'arz', got model 'grad'"),
        ("arz", {"c0": 2.0}, r"model 'arz' differs from its config: c0=2\.0 \(config 1\.5\)"),
    ], ids=["other-model", "other-parameter"])
    def test_model_must_be_the_configs_model(self, name, overrides, match):
        with pytest.raises(ValueError, match=match):
            run_convergence_study(small_config(model="arz"), build_model(name, **overrides))

    def test_configs_own_model_may_be_passed(self):
        config = small_config(model="grad", overrides={"moments": 8})
        assert run_convergence_study(config, build_model("grad", moments=8)) == \
            run_convergence_study(config)
        with pytest.raises(ValueError, match=r"moments=5\.0 \(config 8\)"):
            run_convergence_study(config, build_model("grad"))

    def test_acceptance_table_config_logs_no_step_bound_notice(self, caplog):
        # ARZ's data carries |k| <= 1 on [0, 1]: dt kappa^2 = 0.056 at dt = 1/700.
        config = small_config(model="arz", epsilons=(1.0,), dts=(1 / 700, 1 / 1400),
                              modes=100)
        with caplog.at_level(logging.WARNING, logger="relaxbdf.harness"):
            run_convergence_study(config)
        assert not caplog.records

    def test_step_bound_notice_names_the_dts_over_it(self, caplog):
        with caplog.at_level(logging.WARNING, logger="relaxbdf.harness"):
            run_convergence_study(small_config(model="arz", dts=(1 / 10, 1 / 20, 1 / 40)))
        [record] = caplog.records
        assert record.getMessage().startswith(
            "dt 0.1, 0.05 exceed the sufficient stability bound 1/kappa^2 = 0.0253"
        )

    @pytest.mark.skipif(
        not os.environ.get("RELAXBDF_SLOW"),
        reason="exhaustive fine-step references take minutes; set RELAXBDF_SLOW=1",
    )
    def test_cross_reference_consistency_full_sweep(self):
        # Every second-order traffic-table cell, once against the closed-form
        # reference and once against a 500x-finer integrator run.
        dts = (1 / 700, 1 / 1400, 1 / 2800, 1 / 5600)
        for epsilon in (1e-7, 1e-3, 1.0):
            exact_rows = run_convergence_study(
                small_config(
                    model="arz", order=2, epsilons=(epsilon,), dts=dts, t_final=1.0,
                    modes=100, startup="ars:500",
                )
            ).rows
            for dt, exact_row in zip(dts, exact_rows):
                fine_row = run_convergence_study(
                    small_config(
                        model="arz", order=2, epsilons=(epsilon,), dts=(dt,),
                        t_final=1.0, modes=100, startup="ars:500",
                        reference=f"fine:{dt / 500}",
                    )
                ).rows[0]
                assert fine_row.l2_error == pytest.approx(exact_row.l2_error, rel=0.05)


def per_cell_errors(config):
    """Each cell as its own ``run``, against a reference of its own, errors in
    config order."""
    model = build_model(config.model)
    errors = []
    for epsilon in config.epsilons:
        system = model.system_at(epsilon)
        u0 = initial_data(model, config.order, config.modes, epsilon)
        if config.reference == "exact":
            reference = exact_evolve(u0, system, config.t_final)
        else:
            dt_ref = float(Fraction(config.reference.split(":")[1]))
            reference = fine_step_reference(u0, system, config.order, dt_ref, config.t_final)
        for dt in config.dts:
            try:
                final = run(u0, system, config.order, dt, config.t_final, startup=config.startup)
            except Exception:
                errors.append(None)
                continue
            errors.append(grid_error(final, reference))
    return errors


class TestPropagatorChains:
    @pytest.mark.parametrize("startup, reference", [("exact", "exact"), ("ars:20", "exact"),
                                                    ("exact", "fine:1/320"),
                                                    ("ars:20", "fine:1/320")])
    @pytest.mark.parametrize("dts", [(1 / 20, 1 / 40, 1 / 80, 1 / 160), (1 / 20, 1 / 30, 1 / 60),
                                     (1 / 10, 1 / 80)])
    @pytest.mark.parametrize("order", [2, 4])
    def test_cells_match_separate_runs(self, startup, reference, dts, order):
        # eps=1 has depth-0 modes, 1e-5 crosses the depth-10 switch to long
        # double between the dts and 1e-10 is deep at every dt.  Each cell
        # equals a separate run against a separate reference, bit for bit.
        config = small_config(order=order, epsilons=(1.0, 1e-5, 1e-10), dts=dts, modes=16,
                              startup=startup, reference=reference)
        errors = [row.l2_error for row in run_convergence_study(config).rows]
        assert errors == per_cell_errors(config)
        assert None not in errors

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_exact_study_exponentiates_only_the_data_modes(self, name, order, monkeypatch):
        # Of 32 modes the data occupies 0..data_cutoff: each cell's startup
        # and each block's reference is one exponential of those modes.
        from relaxbdf import oracle

        calls = []
        original = oracle.matrix_exponential

        def counting(matrix, t=1.0):
            calls.append((len(matrix), t))
            return original(matrix, t)

        monkeypatch.setattr(oracle, "matrix_exponential", counting)
        config = small_config(model=name, order=order, epsilons=(1.0, 1e-5, 1e-10), modes=32)
        rows = run_convergence_study(config).rows
        assert None not in [row.l2_error for row in rows]
        support = build_model(name).data_cutoff + 1
        cells = [(support, dt) for dt in config.dts]
        assert sorted(calls) == sorted((cells + [(support, config.t_final)]) * 3)

    def test_reference_failing_after_the_cells_fails_its_block(self, monkeypatch, caplog):
        # The cap is lowered to the depth of the coarsest cell at eps=1e-10:
        # every cell runs, and the reference at t=1 is past the cap.
        epsilon = 1e-10
        system = build_model("grad").system_at(epsilon)
        norm = np.abs(mode_matrix(system, np.arange(9)) / 20).sum(axis=1).max()
        monkeypatch.setattr(linalg, "MAX_SQUARINGS", math.ceil(math.log2(norm)))
        cells = []
        monkeypatch.setattr(harness, "run", lambda *args, **kwargs: cells.append(args[3])
                            or run(*args, **kwargs))
        config = small_config(epsilons=(1.0, epsilon), dts=(1 / 20, 1 / 40, 1 / 80, 1 / 160))
        with caplog.at_level(logging.ERROR, logger="relaxbdf.harness"):
            blocks = run_convergence_study(config).blocks()
        assert cells == list(reversed(config.dts)) * 2
        assert None not in [row.l2_error for row in blocks[1.0]]
        assert [row.l2_error for row in blocks[epsilon]] == [None] * 4
        [record] = caplog.records
        assert record.getMessage() == "block failed for epsilon=1e-10"
        assert "mode k=" in caplog.text and " at t=1, eps=1e-10: " in caplog.text

    def test_rows_keep_config_order_and_orders(self):
        config = small_config(dts=(1 / 20, 1 / 30, 1 / 60))
        rows = run_convergence_study(config).rows
        assert [row.dt for row in rows] == list(config.dts)
        assert rows[0].order is None
        expected = math.log(rows[0].l2_error / rows[1].l2_error) / math.log(1.5)
        assert rows[1].order == expected

    def test_cells_past_the_squaring_cap_fail_alone(self, monkeypatch, caplog):
        # A real model fails its implicit solve long before dt/eps reaches
        # 2^64, so the cap is lowered to the depth of dt=1/80: the two
        # coarser cells exceed it.  The fine reference stays below it.
        epsilon = 1e-10
        system = build_model("grad").system_at(epsilon)
        norm = np.abs(mode_matrix(system, np.arange(9)) / 80).sum(axis=1).max()
        monkeypatch.setattr(linalg, "MAX_SQUARINGS", math.ceil(math.log2(norm)))
        config = small_config(epsilons=(epsilon,), dts=(1 / 20, 1 / 40, 1 / 80, 1 / 160),
                              reference="fine:1/320")
        with caplog.at_level(logging.ERROR, logger="relaxbdf.harness"):
            table = run_convergence_study(config)
        errors = [row.l2_error for row in table.rows]
        assert errors[:2] == [None, None]
        assert None not in errors[2:]
        assert errors == per_cell_errors(config)
        messages = [record.getMessage() for record in caplog.records]
        assert len(messages) == 2
        for dt, message in zip(("0.025", "0.05"), messages):
            assert message.startswith(f"cell failed: epsilon=1e-10 dt={dt}: mode k=")
            assert f" at t={dt}, eps=1e-10: " in message
            assert f"squarings (cap {linalg.MAX_SQUARINGS})" in message


class TestEmit:
    def test_empty_table(self):
        assert emit_table(ConvergenceTable([]), "csv") == "epsilon,dt,l2_error,order\n"

    def test_csv_layout(self):
        table = ConvergenceTable(
            [
                TableRow(1e-3, 1 / 20, 1.25e-4, None),
                TableRow(1e-3, 1 / 40, 3.1e-5, 2.0),
            ]
        )
        lines = emit_table(table, "csv").strip().splitlines()
        assert lines[0] == "epsilon,dt,l2_error,order"
        assert lines[1] == "0.001,5.00e-02,1.25e-04,"
        assert lines[2] == "0.001,2.50e-02,3.10e-05,2.00"

    def test_markdown_layout(self):
        table = ConvergenceTable([TableRow(1.0, 0.5, 1e-3, None)])
        text = emit_table(table, "md")
        assert text.startswith("| epsilon | dt | L2 error | order |")
        assert "| 1 | 5.00e-01 | 1.00e-03 | - |" in text

    def test_csv_roundtrip_is_exact(self):
        table = run_convergence_study(small_config())
        text = emit_table(table, "csv")
        reparsed = parse_table_csv(text)
        assert emit_table(reparsed, "csv") == text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table(ConvergenceTable([]), "xlsx")
