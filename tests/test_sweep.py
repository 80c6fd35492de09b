from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fockthermo import fisher
from fockthermo.bath import BathParams, RateModel
from fockthermo.bounds import bound_fock_linear, short_time_valid
from fockthermo.dynamics import PROPAGATORS
from fockthermo.errors import DomainError, InsufficientDataError, SingularSupportError, SweepError
from fockthermo.fisher import FisherMethod, d_dT_state, gaussian_qfi, qfi_point
from fockthermo.probes import ProbeKind, ProbeSpec
from fockthermo.sweep import (
    CSV_HEADER,
    SweepAxis,
    SweepMethod,
    SweepSpec,
    fit_scaling_exponent,
    run_sweep,
)
from fockthermo.tables import cell


class TestFitScalingExponent:
    def test_nonpositive_values_excluded(self):
        ts = np.array([0.001, 0.01, 0.1, 1.0, 10.0])
        vals = np.array([0.0, 0.01, 0.1, 1.0, 10.0])
        fit = fit_scaling_exponent(ts, vals)
        assert fit.n_used == 4
        assert fit.slope == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("times, values, error, message", [
        ([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], InsufficientDataError, "need >= 4 positive points"),
        ([1.0, 2.0], [1.0], DomainError, "times and values must have equal length"),
    ])
    def test_unfittable_data_refused(self, times, values, error, message):
        with pytest.raises(error, match=message):
            fit_scaling_exponent(times, values)

    def test_non_finite_times_excluded(self):
        # an infinite time used to reach polyfit, which raised a bare LinAlgError
        fit = fit_scaling_exponent([1.0, 2.0, 3.0, math.inf, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert fit.n_used == 4
        assert fit.slope == pytest.approx(1.0, abs=1e-9)


class TestSpecValidation:
    def test_axis_values_must_ascend(self, fig_bath):
        with pytest.raises(DomainError):
            SweepSpec(
                axis=SweepAxis.TIME, axis_values=(0.2, 0.1), probes=(ProbeSpec.fock(1),),
                bath=fig_bath,
            )

    def test_excitation_axis_wants_kinds(self, fig_bath):
        with pytest.raises(DomainError):
            SweepSpec(
                axis=SweepAxis.EXCITATION_N, axis_values=(1.0, 2.0),
                probes=(ProbeSpec.fock(1),), bath=fig_bath,
            )

    def test_other_axes_want_full_specs(self, fig_bath):
        with pytest.raises(DomainError):
            SweepSpec(
                axis=SweepAxis.TIME, axis_values=(0.1, 0.2), probes=(ProbeKind.FOCK,),
                bath=fig_bath,
            )

    def test_excitation_values_integral(self, fig_bath):
        with pytest.raises(DomainError):
            SweepSpec(
                axis=SweepAxis.EXCITATION_N, axis_values=(1.5,), probes=(ProbeKind.FOCK,),
                bath=fig_bath,
            )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_axis_values_finite(self, fig_bath, bad):
        # an infinite axis value used to reach the JSON writer as a bare ValueError
        with pytest.raises(DomainError, match="finite"):
            SweepSpec(
                axis=SweepAxis.TIME, axis_values=(0.01, bad), probes=(ProbeSpec.fock(1),),
                methods=(SweepMethod.BOUND_FOCK_LINEAR,), bath=fig_bath,
            )

    def test_temperature_positive(self, fig_bath):
        with pytest.raises(DomainError):
            SweepSpec(
                axis=SweepAxis.TEMPERATURE, axis_values=(-0.1, 0.5),
                probes=(ProbeSpec.fock(1),), bath=fig_bath,
            )

    @pytest.mark.parametrize("axis, value, message", [
        (SweepAxis.DECAY_GAMMA, -0.1, "gamma must be > 0"),
        (SweepAxis.COUPLING_G, -0.1, "g must be >= 0"),
        (SweepAxis.TIME, -0.1, "time values must be >= 0"),
    ])
    def test_axis_value_outside_its_domain_refused_on_construction(
        self, fig_bath, axis, value, message
    ):
        # BathParams states the domain of T, gamma and g; the spec states t's
        with pytest.raises(DomainError, match=message):
            SweepSpec(axis=axis, axis_values=(value, 0.5), probes=(ProbeSpec.fock(1),),
                      bath=fig_bath)

    @pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
    @pytest.mark.parametrize("axis, value, probe", [
        (SweepAxis.TEMPERATURE, 0.5, ProbeSpec.fock(1)),
        (SweepAxis.COUPLING_G, 0.05, ProbeSpec.fock(1)),
        (SweepAxis.DECAY_GAMMA, 0.1, ProbeSpec.fock(1)),
        (SweepAxis.EXCITATION_N, 1.0, ProbeKind.FOCK),
    ])
    def test_t_outside_its_domain_refused_on_construction(self, fig_bath, axis, value, probe, t):
        # such a spec used to construct, and then fail every row of run_sweep
        with pytest.raises(DomainError, match="t must be finite and >= 0"):
            SweepSpec(axis=axis, axis_values=(value,), probes=(probe,), bath=fig_bath, t=t)

    @pytest.mark.parametrize("axis, values, probes, methods, message", [
        (SweepAxis.TIME, (), (ProbeSpec.fock(1),), ("cfi",), "axis_values must be nonempty"),
        (SweepAxis.TIME, (1.0,), (), ("cfi",), "probes and methods must be nonempty"),
        (SweepAxis.TIME, (1.0,), (ProbeSpec.fock(1),), (), "probes and methods must be nonempty"),
        (SweepAxis.TIME, (1.0,), (ProbeSpec.fock(1), ProbeSpec.parse("fock:1")), ("cfi",),
         "probe 'fock:1' is repeated"),
        (SweepAxis.TIME, (1.0,), (ProbeSpec.coherent(1), ProbeSpec.parse("coherent:1.0")),
         ("cfi",), "probe 'coherent:1.0' is repeated"),
        (SweepAxis.EXCITATION_N, (1.0,), ("fock", ProbeKind.FOCK), ("cfi",),
         "probe 'fock' is repeated"),
        (SweepAxis.TIME, (1.0,), (ProbeSpec.fock(1),), ("cfi", "qfi", SweepMethod.CFI),
         "method 'cfi' is repeated"),
    ])
    def test_empty_or_repeated_entry_refused(self, fig_bath, axis, values, probes, methods,
                                             message):
        # an empty list has no row to write; a repeat would be evaluated, and written, twice
        with pytest.raises(DomainError, match=message):
            SweepSpec(axis=axis, axis_values=values, probes=probes, methods=methods,
                      bath=fig_bath)

    def test_probes_stored_and_echoed_by_name(self, fig_bath):
        # a kind given as text is stored as its ProbeKind; echo names a spec
        # by canonical() and a kind by its value
        kinds = SweepSpec(axis=SweepAxis.EXCITATION_N, axis_values=(1.0,),
                          probes=("fock", ProbeKind.COHERENT), bath=fig_bath)
        assert kinds.probes == (ProbeKind.FOCK, ProbeKind.COHERENT)
        assert kinds.echo()["probes"] == ["fock", "coherent"]
        specs = SweepSpec(axis=SweepAxis.TIME, axis_values=(1.0,),
                          probes=(ProbeSpec.coherent(0.5 + 0.8j), ProbeSpec.fock(3)),
                          bath=fig_bath)
        assert specs.echo()["probes"] == ["coherent:0.5+0.8j", "fock:3"]

    def test_empty_plan_refused_on_construction(self, fig_bath):
        with pytest.raises(DomainError, match="sweep plan is empty"):
            SweepSpec(
                axis=SweepAxis.EXCITATION_N, axis_values=(1.0,), probes=(ProbeKind.FOCK,),
                methods=(SweepMethod.BOUND_COHERENT,), bath=fig_bath,
            )


class TestRunSweep:
    def test_degenerate_sweep_equals_direct_call(self, fig_bath):
        spec = SweepSpec(
            axis=SweepAxis.TIME, axis_values=(0.1,), probes=(ProbeSpec.fock(1),),
            methods=(SweepMethod.CFI,), bath=fig_bath,
        )
        result = run_sweep(spec, workers=1)
        assert len(result.rows) == 1
        direct = qfi_point(ProbeSpec.fock(1), fig_bath, 0.1, FisherMethod.CFI_NUMBER).value
        assert result.rows[0].qfi == direct

    def test_rows_ordered_and_complete(self, fig_bath):
        spec = SweepSpec(
            axis=SweepAxis.TIME, axis_values=(0.05, 0.1),
            probes=(ProbeSpec.fock(1), ProbeSpec.fock(2)),
            methods=(SweepMethod.CFI, SweepMethod.BOUND_FOCK_LINEAR),
            bath=fig_bath,
        )
        result = run_sweep(spec, workers=1)
        keys = [(r.axis_value, r.probe, r.method) for r in result.rows]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2])) or keys == [
            (0.05, "fock:1", "cfi"), (0.05, "fock:1", "bound_fock_linear"),
            (0.05, "fock:2", "cfi"), (0.05, "fock:2", "bound_fock_linear"),
            (0.1, "fock:1", "cfi"), (0.1, "fock:1", "bound_fock_linear"),
            (0.1, "fock:2", "cfi"), (0.1, "fock:2", "bound_fock_linear"),
        ]
        assert len(result.rows) == 8

    def test_bound_methods_skip_foreign_probes(self, fig_bath):
        spec = SweepSpec(
            axis=SweepAxis.TIME, axis_values=(0.1,),
            probes=(ProbeSpec.fock(1), ProbeSpec.coherent(1.0)),
            methods=(SweepMethod.BOUND_FOCK_LINEAR, SweepMethod.BOUND_COHERENT),
            bath=fig_bath,
        )
        result = run_sweep(spec, workers=1)
        pairs = {(r.probe, r.method) for r in result.rows}
        assert pairs == {
            ("fock:1", "bound_fock_linear"),
            ("coherent:1.0", "bound_coherent"),
        }

    def test_bound_rows_share_the_fisher_validity(self, fig_bath):
        # Gamma0 t (2n+1) = 0.01 (2n+1): valid through n = 4, invalid from n = 5
        spec = SweepSpec(
            axis=SweepAxis.EXCITATION_N, axis_values=(1.0, 4.0, 5.0, 6.0),
            probes=(ProbeKind.FOCK, ProbeKind.SQUEEZED, ProbeKind.COHERENT),
            methods=tuple(SweepMethod), bath=fig_bath, t=0.1,
        )
        rows = run_sweep(spec, workers=1).rows
        cfi = {(r.axis_value, r.probe): r for r in rows if r.method == "cfi"}
        bounds = [r for r in rows if r.method.startswith("bound_")]
        assert len(bounds) == 16  # two Fock bounds and one per Gaussian probe, per n
        for row in bounds:
            expected = short_time_valid(fig_bath, 0.1, ProbeSpec.parse(row.probe).mean_photon)
            assert row.error is None
            assert row.valid_short_time == cfi[row.axis_value, row.probe].valid_short_time
            assert row.valid_short_time == expected
        assert {r.valid_short_time for r in bounds} == {True, False}

    def test_coupling_axis_forces_purcell(self, fig_bath):
        spec = SweepSpec(
            axis=SweepAxis.COUPLING_G, axis_values=(0.03, 0.05),
            probes=(ProbeSpec.fock(1),), methods=(SweepMethod.BOUND_FOCK_LINEAR,),
            bath=fig_bath, t=0.01,
        )
        result = run_sweep(spec, workers=1)
        for row, g in zip(result.rows, (0.03, 0.05)):
            bath = BathParams(g=g, rate_model=RateModel.PURCELL)
            assert row.qfi == pytest.approx(bound_fock_linear(1, bath, 0.01), rel=1e-12)

    def test_decay_axis_scales_linear_bound(self, fig_bath):
        spec = SweepSpec(
            axis=SweepAxis.DECAY_GAMMA, axis_values=(0.1, 0.2),
            probes=(ProbeSpec.fock(1),), methods=(SweepMethod.BOUND_FOCK_LINEAR,),
            bath=fig_bath, t=0.01,
        )
        rows = run_sweep(spec, workers=1).rows
        assert rows[1].qfi == pytest.approx(2.0 * rows[0].qfi, rel=1e-12)

    def test_failed_point_is_marked_not_fatal(self, fig_bath):
        spec = SweepSpec(
            axis=SweepAxis.EXCITATION_N, axis_values=(1.0, 50.0),
            probes=(ProbeKind.FOCK,), methods=(SweepMethod.CFI,),
            bath=fig_bath, t=0.1, dim=40,
        )
        result = run_sweep(spec, workers=1)
        good, bad = result.rows
        assert good.error is None
        assert bad.error is not None and "dim" in bad.error
        assert math.isnan(bad.qfi)
        assert result.metadata["n_failed"] == 1

    def test_unrepresentable_bound_marks_its_row(self, fig_bath):
        # (omega/T^2) underflows its divisor at T = 1e-200
        spec = SweepSpec(
            axis=SweepAxis.TEMPERATURE, axis_values=(1e-200, 0.5),
            probes=(ProbeSpec.coherent(1.0),), methods=(SweepMethod.BOUND_COHERENT,),
            bath=fig_bath, t=0.01,
        )
        bad, good = run_sweep(spec, workers=1).rows
        assert bad.error is not None and bad.error.startswith("DomainError")
        assert math.isnan(bad.qfi)
        assert good.error is None and good.qfi > 0.0

    def test_majority_failure_aborts(self, fig_bath):
        spec = SweepSpec(
            axis=SweepAxis.EXCITATION_N, axis_values=(45.0, 50.0),
            probes=(ProbeKind.FOCK,), methods=(SweepMethod.CFI,),
            bath=fig_bath, t=0.1, dim=40,
        )
        with pytest.raises(SweepError):
            run_sweep(spec, workers=1)


class TestSharedDerivative:
    VALUES = (0.3, 0.5, 1.0)
    PROBES = (ProbeSpec.fock(1), ProbeSpec.thermal(0.5), ProbeSpec.coherent(1.0))

    def test_one_derivative_per_value_and_probe(self, fig_bath, monkeypatch):
        calls = []

        def counted(name):
            call = getattr(fisher, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return call(*args, **kwargs)
            return wrapper

        for name in ("evolve", "attenuate"):
            monkeypatch.setattr(fisher, name, counted(name))
        per_derivative = {}
        for probe in self.PROBES:
            calls.clear()
            d_dT_state(probe, fig_bath, 0.5)
            per_derivative[probe] = sorted(calls)
        # a thermal probe evolves under its five stencil temperatures, and
        # any other probe takes one channel kernel
        assert list(per_derivative.values()) == [["attenuate"], ["evolve"] * 5, ["attenuate"]]
        calls.clear()
        spec = SweepSpec(
            axis=SweepAxis.TEMPERATURE, axis_values=self.VALUES, probes=self.PROBES,
            methods=(SweepMethod.CFI, SweepMethod.QFI), bath=fig_bath,
        )
        rows = run_sweep(spec, workers=1).rows
        assert len(rows) == 2 * len(self.VALUES) * len(self.PROBES)
        assert sorted(calls) == sorted(sum(per_derivative.values(), []) * len(self.VALUES))

        direct = [
            (probe, qfi_point(probe, dataclasses.replace(fig_bath, T=T), spec.t, method))
            for T in self.VALUES
            for probe in self.PROBES
            for method in (FisherMethod.CFI_NUMBER, FisherMethod.QFI_SLD)
        ]
        for row, (probe, record) in zip(rows, direct):
            assert (row.probe, row.method) == (probe.canonical(), record.method)
            assert (row.qfi, row.leakage, row.h_used, row.dim) == (
                record.value, record.leakage, record.h_used, record.dim)

    def test_derivative_failure_marks_every_fisher_row_of_its_task(self, fig_bath):
        # |30> does not fit in dim = 20; its bound needs no state
        spec = SweepSpec(
            axis=SweepAxis.TIME, axis_values=(0.05, 0.1),
            probes=(ProbeSpec.fock(1), ProbeSpec.fock(30)),
            methods=(SweepMethod.CFI, SweepMethod.QFI, SweepMethod.BOUND_FOCK_LINEAR),
            bath=fig_bath, dim=20,
        )
        rows = run_sweep(spec, workers=1).rows
        assert all(r.error is None for r in rows if r.probe == "fock:1")
        for t in spec.axis_values:
            cfi, qfi, bound = (r for r in rows if r.axis_value == t and r.probe == "fock:30")
            assert cfi.error is not None and "dim" in cfi.error
            assert qfi.error == cfi.error
            assert bound.error is None
            assert bound.qfi == bound_fock_linear(30, fig_bath, t)

    def test_derivative_failure_spares_a_gaussian_qfi_row(self, fig_bath):
        # at T = 5, t = 5 the populations of coherent:1.0 outgrow the automatic
        # dim; its QFI is the closed form, which reads none of them
        bath, probe = dataclasses.replace(fig_bath, T=5.0), ProbeSpec.coherent(1.0)
        spec = SweepSpec(axis=SweepAxis.TIME, axis_values=(5.0,), probes=(probe,),
                         methods=(SweepMethod.CFI, SweepMethod.QFI), bath=bath)
        cfi, qfi = run_sweep(spec, workers=1).rows
        assert cfi.error.startswith("TruncationError: top-level population")
        assert qfi.error is None
        assert (qfi.qfi, qfi.leakage, qfi.h_used, qfi.dim) == (
            gaussian_qfi(probe, bath, 5.0), 0.0, 0.0, 0)

    def test_a_task_of_gaussian_qfis_and_bounds_evaluates_no_derivative(self, fig_bath,
                                                                        monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("no row of this sweep reads the populations")

        monkeypatch.setattr(fisher, "d_dT_state", refused)
        spec = SweepSpec(
            axis=SweepAxis.EXCITATION_N, axis_values=(1, 2),
            probes=(ProbeKind.SQUEEZED, ProbeKind.COHERENT),
            methods=(SweepMethod.QFI, SweepMethod.BOUND_SQUEEZED, SweepMethod.BOUND_COHERENT),
            bath=fig_bath,
        )
        rows = run_sweep(spec, workers=1).rows
        assert len(rows) == 8 and not any(r.error for r in rows)
        for row in rows:
            if row.method == "qfi":
                probe = ProbeSpec.parse(row.probe)
                assert (row.qfi, row.dim) == (gaussian_qfi(probe, fig_bath, spec.t), 0)

    def test_failed_reduction_marks_only_its_row(self, fig_bath, monkeypatch):
        def singular(*args, **kwargs):
            raise SingularSupportError("forced")

        # the QFI of a coherent probe is a closed form, not a CFI sum
        monkeypatch.setattr(fisher, "cfi_number_basis", singular)
        spec = SweepSpec(
            axis=SweepAxis.TIME, axis_values=(0.1,), probes=(ProbeSpec.coherent(1.0),),
            methods=(SweepMethod.CFI, SweepMethod.QFI), bath=fig_bath,
        )
        cfi, qfi = run_sweep(spec, workers=1).rows
        assert cfi.error == "SingularSupportError: forced"
        assert qfi.error is None
        assert qfi.qfi == qfi_point(ProbeSpec.coherent(1.0), fig_bath, 0.1,
                                    FisherMethod.QFI_SLD).value


class TestOutputs:
    def test_csv_schema_and_atomic_write(self, fig_bath, tmp_path):
        spec = SweepSpec(
            axis=SweepAxis.TIME, axis_values=(0.01, 0.02),
            probes=(ProbeSpec.fock(1),), methods=(SweepMethod.BOUND_FOCK_LINEAR,),
            bath=fig_bath,
        )
        result = run_sweep(spec, workers=1)
        out = tmp_path / "sweep.csv"
        result.write_csv(out)
        lines = out.read_text().strip().split("\n")
        # the README's schema, literally: the header is SweepRow's field order
        assert lines[0] == CSV_HEADER == (
            "axis,axis_value,probe,method,qfi,delta_t_min,valid_short_time,leakage,h_used,dim"
        )
        assert len(lines) == 3
        assert not list(tmp_path.glob(".sweep.csv.*"))  # no temp litter

    def test_a_failed_replace_keeps_the_old_file_and_no_temp(self, fig_bath, tmp_path,
                                                              monkeypatch):
        spec = SweepSpec(
            axis=SweepAxis.TIME, axis_values=(0.01,),
            probes=(ProbeSpec.fock(1),), methods=(SweepMethod.BOUND_FOCK_LINEAR,),
            bath=fig_bath,
        )
        out = tmp_path / "sweep.csv"
        out.write_text("old\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            run_sweep(spec, workers=1).write_csv(out)
        assert out.read_text() == "old\n"
        assert not list(tmp_path.glob(".sweep.csv.*.tmp"))

    @pytest.mark.parametrize(
        "value, text",
        [(None, ""), (True, "true"), (False, "false"), (1234567890, "1234567890"),
         (0.1, "0.1"), (1e-300, "1e-300"), (math.nan, "nan"), (math.inf, "inf"),
         (-0.0, "-0"), ("fock:1", "fock:1")],
    )
    def test_csv_cell_format(self, value, text):
        # ints print whole, floats with 9 significant digits, None as an empty cell
        assert cell(value) == text

    def test_json_mirror(self, fig_bath, tmp_path):
        spec = SweepSpec(
            axis=SweepAxis.TIME, axis_values=(0.01, 0.02),
            probes=(ProbeSpec.fock(1),), methods=(SweepMethod.CFI,),
            bath=fig_bath,
        )
        result = run_sweep(spec, workers=1)
        out = tmp_path / "sweep.json"
        result.write_json(out)
        payload = json.loads(out.read_text())
        assert payload["metadata"]["spec"]["axis"] == "time"
        assert payload["metadata"]["n_failed"] == 0
        assert len(payload["rows"]) == 2
        row = payload["rows"][0]
        for key in ("axis", "axis_value", "probe", "method", "qfi", "delta_t_min",
                    "valid_short_time", "leakage", "h_used", "dim", "error"):
            assert key in row

    def test_csv_is_the_same_at_every_worker_count_after_a_warm_parent(self, fig_bath,
                                                                        tmp_path):
        # pool workers fork with the parent's propagators, which hold the
        # bits a recomputation gives; the thermal probe's stencil reads them
        spec = SweepSpec(
            axis=SweepAxis.TEMPERATURE, axis_values=(0.3, 0.5, 1.0),
            probes=(ProbeSpec.fock(1), ProbeSpec.thermal(0.5), ProbeSpec.coherent(1.0)),
            methods=(SweepMethod.CFI, SweepMethod.QFI), t=0.5, bath=fig_bath,
        )

        def csv_bytes(workers):
            out = tmp_path / f"sweep-{workers}.csv"
            run_sweep(spec, workers=workers).write_csv(out)
            return out.read_bytes()

        cold = csv_bytes(1)
        PROPAGATORS.clear()
        qfi_point(ProbeSpec.thermal(0.5), fig_bath, 0.5, FisherMethod.CFI_NUMBER)
        assert len(PROPAGATORS) == 5
        assert [csv_bytes(workers) for workers in (1, 2, 3)] == [cold] * 3

    def test_default_worker_count(self, fig_bath):
        spec = SweepSpec(
            axis=SweepAxis.TIME, axis_values=(0.01, 0.02, 0.05),
            probes=(ProbeSpec.fock(1),), methods=(SweepMethod.BOUND_FOCK_LINEAR,),
            bath=fig_bath,
        )
        result = run_sweep(spec, workers=None)  # all cores
        assert len(result.rows) == 3
        with pytest.raises(DomainError):
            run_sweep(spec, workers=0)

    @pytest.mark.parametrize("workers", [True, 2.7, 0])
    def test_worker_count_not_a_positive_integer_refused(self, fig_bath, workers):
        # a bool or a fractional count used to be truncated by int()
        spec = SweepSpec(
            axis=SweepAxis.TIME, axis_values=(0.01,), probes=(ProbeSpec.fock(1),),
            methods=(SweepMethod.BOUND_FOCK_LINEAR,), bath=fig_bath,
        )
        with pytest.raises(DomainError, match=f"workers must be an integer >= 1, got {workers!r}"):
            run_sweep(spec, workers=workers)

    def test_excitation_sweep_leaves_scipy_sparse_unimported(self):
        # importing scipy.sparse alone adds ~4 MiB of resident memory
        code = textwrap.dedent("""
            import sys
            from fockthermo.probes import ProbeKind
            from fockthermo.sweep import SweepAxis, SweepMethod, SweepSpec, run_sweep
            spec = SweepSpec(
                axis=SweepAxis.EXCITATION_N, axis_values=(1, 2),
                probes=(ProbeKind.FOCK, ProbeKind.SQUEEZED, ProbeKind.COHERENT),
                methods=(SweepMethod.QFI,), t=0.5,
            )
            assert not any(row.error for row in run_sweep(spec, workers=1).rows)
            print(sorted(name for name in sys.modules if name.startswith("scipy.sparse")))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_end_to_end_slopes_from_sweep(self, fig_bath):
        ts = tuple(np.logspace(-2, -1, 5))
        spec = SweepSpec(
            axis=SweepAxis.TIME, axis_values=ts,
            probes=(ProbeSpec.fock(1), ProbeSpec.coherent(1.0)),
            methods=(SweepMethod.CFI,), bath=fig_bath,
        )
        rows = run_sweep(spec, workers=1).rows
        for probe, slope in (("fock:1", 1.0), ("coherent:1.0", 2.0)):
            vals = [r.qfi for r in rows if r.probe == probe]
            fit = fit_scaling_exponent(ts, vals)
            assert fit.slope == pytest.approx(slope, abs=0.05)
