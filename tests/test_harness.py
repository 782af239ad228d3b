import json
import logging
import math
import os

import numpy as np
import pytest

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
from relaxbdf.integrator import NonIntegerStepCountError, UnsupportedOrderError
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
