"""Tests for the batch driver: configs, sweeps, artifacts, exit codes."""

import csv
import json

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from bornscat import cli
from bornscat.grids import SampledField, Space, make_grid, save_field

FAMILY3D = {
    "alpha": 1.0, "u": [1.0, 0.0, 0.0], "a": 1.0, "m": 2,
    "coupling": {"re": 1.0, "im": 0.0}, "ell_y": 2.0, "ell_z": 2.0,
}
POTENTIAL2D = {
    "alpha": 1.0, "u": [1.0, 0.0], "a": 1.0, "m": 2,
    "coupling": {"re": 1.0, "im": 0.0}, "ell_y": 2.0,
}
EM3D_ENTRIES = {
    "mode": "em3d", "potential": None,
    "grid": {"extents": [8.0, 8.0, 8.0], "counts": [8, 8, 8]},
}


def base_config(tmp_path, **overrides):
    data = {
        "schema_version": 1,
        "mode": "scalar2d",
        "potential": POTENTIAL2D,
        "k_sweep": [0.45, 0.8, 1.3],
        "grid": {"extents": [60.0, 60.0], "counts": [256, 256]},
        "n_orders": 4,
        "direction_count": 64,
        "tol": 1e-2,
        "out": str(tmp_path / "out"),
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestLoadConfig:
    def test_round_trip_and_overrides(self, tmp_path):
        path = base_config(tmp_path)
        config = cli.load_config(path, out="elsewhere", tol=5e-3, seed=7)
        assert config.mode == "scalar2d"
        assert config.k_sweep == (0.45, 0.8, 1.3)
        assert config.counts == (256, 256)
        assert config.out == "elsewhere"
        assert config.tol == 5e-3
        assert config.seed == 7
        assert config.potential.alpha == 1.0

    def test_rejects_wrong_schema_version(self, tmp_path):
        path = base_config(tmp_path, schema_version=99)
        with pytest.raises(ValueError, match="schema_version"):
            cli.load_config(path)

    def test_unknown_keys_preserved_not_fatal(self, tmp_path):
        path = base_config(tmp_path, note="keep me")
        config = cli.load_config(path)
        assert config.extra == {"note": "keep me"}


class TestValidate:
    def test_valid_config_has_no_diagnostics(self, tmp_path):
        config = cli.load_config(base_config(tmp_path))
        assert cli.validate(config) == []

    @pytest.mark.parametrize("overrides,needle", [
        ({"mode": "scalar9d"}, "mode"),
        ({"mode": "em3d"}, "3-component grid"),
        ({"k_sweep": []}, "sweep is empty"),
        ({"k_sweep": [0.5, -0.2]}, "positive"),
        ({"epsilon": -0.25}, "epsilon"),
        ({"eps_cells": 0.0}, "eps_cells"),
        ({"n_orders": 0}, "n_orders"),
        ({"direction_count": 0}, "direction_count"),
        ({"tol": 0.0}, "tol"),
        ({"grid": {"extents": [60.0, 60.0], "counts": [4, 4]}}, "counts"),
        ({"potential": None}, "potential"),
    ])
    def test_diagnostics(self, tmp_path, overrides, needle):
        config = cli.load_config(base_config(tmp_path, **overrides))
        problems = cli.validate(config)
        assert problems, f"expected a diagnostic for {overrides}"
        assert any(needle in p for p in problems)

    def test_potential_dimension_mismatch(self, tmp_path):
        path = base_config(
            tmp_path,
            mode="scalar3d",
            grid={"extents": [20.0, 6.0, 6.0], "counts": [32, 8, 8]},
        )
        config = cli.load_config(path)
        assert any("u has 2 components" in p for p in cli.validate(config))


class TestRun:
    def test_staircase_sweep(self, tmp_path):
        path = base_config(tmp_path)
        code = cli.main(["run", "--config", str(path)])
        assert code == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert [p["exact_order"] for p in summary["points"]] == [0, 1, 2]
        assert summary["pass"] is True
        assert summary["thresholds"] == {"half_alpha": 0.5, "alpha": 1.0}
        text = (out / "summary.txt").read_text()
        assert "k = alpha/2 = 0.5" in text and "k = alpha = 1" in text
        for index in range(3):
            report = json.loads(
                (out / f"point_{index:02d}_report.json").read_text()
            )
            assert report["schema_version"] == 1
            assert report["pass"] is True
            assert report["exactness"]["pass"] is True
            with open(out / f"point_{index:02d}_on_shell.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["order", "dir_x", "dir_y", "re", "im"]
            assert len(rows) == 1 + 4 * 64

    def test_verification_failure_exit_code(self, tmp_path):
        path = base_config(tmp_path, tol=1e-9, k_sweep=[0.8])
        assert cli.main(["run", "--config", str(path)]) == 1

    def test_config_error_exit_code(self, tmp_path):
        path = base_config(tmp_path, k_sweep=[])
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_missing_config_file_exit_code(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_divergence_exit_code(self, tmp_path):
        path = base_config(
            tmp_path,
            potential={
                "alpha": 1.0, "u": [1.0, 0.0], "a": 1.0, "m": 2,
                "coupling": {"re": 1e30, "im": 0.0}, "ell_y": 2.0,
            },
            k_sweep=[0.8],
        )
        assert cli.main(["run", "--config", str(path)]) == 3

    def test_byte_identical_reruns(self, tmp_path):
        path = base_config(tmp_path, k_sweep=[0.8], n_orders=2)
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert cli.main(["run", "--config", str(path), "--out", str(first)]) == 0
        assert cli.main(["run", "--config", str(path), "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.filterwarnings(
        "ignore:potential magnitude", "ignore:material magnitude"
    )
    def test_em3d_sweep(self, tmp_path):
        path = base_config(
            tmp_path,
            mode="em3d",
            potential=FAMILY3D,
            materials={"which": "eps"},
            grid={"extents": [14.0, 6.0, 6.0], "counts": [48, 16, 16]},
            k_sweep=[0.8],
            n_orders=2,
        )
        code = cli.main(["run", "--config", str(path)])
        assert code == 0
        out = tmp_path / "out"
        report = json.loads((out / "point_00_report.json").read_text())
        assert report["exact_order"] == 1
        assert len(report["polarization"]) == 3
        with open(out / "point_00_on_shell.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert len(header) == 4 + 12

    @pytest.mark.filterwarnings("ignore:material magnitude")
    @pytest.mark.parametrize("step", [1, -1], ids=["alpha-1-first", "alpha-0.5-first"])
    def test_em3d_entries_certify_their_smallest_alpha(self, tmp_path, step):
        entries = [
            {"i": 0, "j": 0, "spec": FAMILY3D},
            {"i": 1, "j": 1, "spec": dict(FAMILY3D, alpha=0.5)},
        ]
        path = base_config(
            tmp_path,
            mode="em3d",
            potential=None,
            materials={"eps_entries": entries[::step]},
            grid={"extents": [28.0, 12.0, 12.0], "counts": [96, 32, 32]},
            k_sweep=[0.8],
            n_orders=3,
            direction_count=8,
        )
        assert cli.main(["run", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "point_00_report.json").read_text())
        assert (report["alpha"], report["exact_order"], report["n_orders"]) == (0.5, 3, 4)


ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=2), st.integers(-2, 4),
    st.floats(-1.0, 30.0), st.sampled_from([float("nan"), float("inf")]),
)
ODD_LEAVES = st.one_of(ODD_VALUES, st.just(10**20))
FUZZ_FIELDS = (
    "mode", "potential", "materials", "k_sweep", "grid", "n_orders",
    "epsilon", "eps_cells", "direction_count", "tol", "spectral_checks", "seed",
    "out", "field_file",
)


def with_odd_leaf(spec):
    """spec, or spec with the value of one of its keys made odd.

    A positive alpha below 0.05 is valid but asks for N = 2k/alpha orders,
    which can take hours (see CHANGES.md), so it is not drawn.
    """
    def leaf(key):
        values = ODD_LEAVES.filter(lambda value: key != "alpha" or not (
            isinstance(value, float) and 0 < value < 0.05))
        return values.map(lambda value: dict(spec, **{key: value}))
    return st.one_of(st.just(spec), st.sampled_from(sorted(spec)).flatmap(leaf))


@st.composite
def fuzz_configs(draw):
    """A runnable config on a tiny grid with up to two fields made odd.

    Independently, one value of the potential block or of a material
    entry's spec may be made odd.
    """
    mode = draw(st.sampled_from(cli.MODES))
    dim = cli.MODE_DIM[mode]
    potential = dict(FAMILY3D, u=[1.0, 0.0, 0.0][:dim])
    if dim == 2:
        del potential["ell_z"]
    potential = draw(with_odd_leaf(potential))
    config = {
        "schema_version": 1,
        "mode": mode,
        "potential": potential,
        "materials": {"which": "eps"},
        "k_sweep": draw(st.lists(st.sampled_from([0.8, 1.6, 2.4]),
                                 min_size=1, max_size=2)),
        "grid": {"extents": [8.0] * dim,
                 "counts": draw(st.lists(st.sampled_from([8, 10, 12]),
                                         min_size=dim, max_size=dim))},
        "n_orders": draw(st.sampled_from([None, 1, 2])),
        "tol": 1e-2,
        "direction_count": 4,
        "spectral_checks": draw(st.booleans()),
    }
    entry = st.fixed_dictionaries({
        "i": st.integers(-1, 3), "j": st.integers(0, 2),
        "spec": st.sampled_from([potential, FAMILY3D, {"alpha": 1.0}]).flatmap(
            with_odd_leaf),
    })
    odd = {
        "mode": st.one_of(ODD_VALUES, st.sampled_from(cli.MODES)),
        "potential": st.one_of(ODD_VALUES, st.sampled_from([
            FAMILY3D, dict(potential, alpha=-1.0),
            dict(potential, coupling={"re": float("nan")}),
            dict(potential, coupling={"re": 1e300}),
        ])),
        "materials": st.one_of(
            ODD_VALUES,
            st.fixed_dictionaries({
                "which": st.sampled_from(["eps", "mu", "both", "x"]),
                "scale": ODD_VALUES,
            }),
            st.fixed_dictionaries({"eps_entries": st.lists(entry, max_size=2),
                                   "mu_entries": st.lists(entry, max_size=1)}),
        ),
        "k_sweep": st.one_of(ODD_VALUES, st.lists(ODD_VALUES, max_size=3)),
        "grid": st.one_of(ODD_VALUES, st.fixed_dictionaries({
            "extents": st.lists(st.sampled_from([-1.0, 0.0, 8.0, float("inf")]),
                                min_size=1, max_size=4),
            "counts": st.lists(st.integers(6, 12), min_size=1, max_size=4),
        })),
    }
    for key in draw(st.sets(st.sampled_from(FUZZ_FIELDS), max_size=2)):
        config[key] = draw(odd.get(key, ODD_VALUES))
    return config


class TestInvalidConfigs:
    @pytest.mark.parametrize("overrides,needle", [
        ({"grid": {"extents": [60.0, 60.0], "counts": [255, 256]}},
         "grid: counts must be even"),
        ({"k_sweep": [0.8, 20.0]}, "k sweep point 1: k = 20"),
        ({"k_sweep": [0.01]}, "k sweep point 0: k = 0.01 snaps"),
        ({"k_sweep": [float("nan")]}, "positive and finite"),
        ({"n_orders": "4"}, "n_orders must be an integer"),
        ({"epsilon": "small"}, "epsilon"),
        ({"potential": 1.5},
         "config error: potential: expected a JSON object or array, got float"),
        ({"grid": [60.0, 60.0]}, "config error: grid: expected a JSON object, got list"),
        ({"materials": "eps"}, "config error: materials: expected a JSON object, got str"),
        ({"k_sweep": 0.8}, "config error: k_sweep: expected a JSON array, got float"),
        ({"k_sweep": ["fast"]},
         "config error: k_sweep: item 0: expected a JSON number, got str"),
        ({"grid": {"extents": [60.0, 60.0], "counts": ["x", 8]}},
         "config error: grid: counts: item 0: expected a JSON integer, got str"),
        ({"mode": "em3d", "potential": None,
          "grid": {"extents": [8.0, 8.0, 8.0], "counts": [8, 8, 8]},
          "materials": {"eps_entries": [
              {"i": 0, "j": 0, "spec": FAMILY3D},
              {"i": 1, "j": 1, "spec": dict(FAMILY3D, u=[0.0, 1.0, 0.0])}]}},
         "materials block: all members must share the same axis u"),
        ({"spectral_checks": "false"}, "spectral_checks"),
        ({"direction_count": 2.7}, "direction_count"),
        ({"seed": 1.5}, "seed"),
        ({"eps_cells": True}, "eps_cells"),
        ({"k_sweep": [True]}, "k_sweep"),
        ({"tol": "x"}, "tol"),
        ({"out": 5}, "out"),
        ({"potential": dict(POTENTIAL2D, alpha=True)},
         "config error: potential: alpha: expected a JSON number, got bool"),
        ({"potential": dict(POTENTIAL2D, m=2.7)},
         "config error: potential: m: expected a JSON integer, got float"),
        ({"potential": dict(POTENTIAL2D, u=[True, False])},
         "config error: potential: u: item 0: expected a JSON number, got bool"),
        ({"potential": dict(POTENTIAL2D, a="1")},
         "config error: potential: a: expected a JSON number, got str"),
        ({"potential": dict(POTENTIAL2D, coupling="1")},
         "config error: potential: coupling: expected a JSON number, got str"),
        ({"potential": dict(POTENTIAL2D, coupling={"re": True})},
         "config error: potential: coupling: re: expected a JSON number, got bool"),
        ({"potential": {k: v for k, v in POTENTIAL2D.items() if k != "alpha"}},
         "config error: potential: alpha: missing"),
        (dict(EM3D_ENTRIES, materials={"eps_entries": [
            {"i": True, "j": 0, "spec": FAMILY3D}]}),
         "config error: materials: eps_entries: item 0: i: expected a JSON integer"),
        (dict(EM3D_ENTRIES, materials={"eps_entries": [3]}),
         "config error: materials: eps_entries: item 0: expected a JSON object, got int"),
        (dict(EM3D_ENTRIES, potential=FAMILY3D, materials={"scale": {"re": True}}),
         "config error: materials: scale: re: expected a JSON number, got bool"),
        ({"potential": dict(POTENTIAL2D, m=10**20)},
         "config error: interaction: field values must be finite"),
        ({"command": "make-potential",
          "potential": dict(POTENTIAL2D, coupling={"re": 0})},
         "config error: potential: potential transform is identically zero"),
        ({"n_orders": 10**20}, "k sweep point 0: n_orders = 100000000000000000000"),
    ])
    def test_exit_2_with_diagnostic_and_no_artifacts(
        self, tmp_path, capsys, overrides, needle
    ):
        overrides = dict(overrides)
        command = overrides.pop("command", "run")  # a case may name another command
        path = base_config(tmp_path, **overrides)
        assert cli.main([command, "--config", str(path)]) == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", [
        lambda head, payload: (b"[" + head + b"]", payload),
        lambda head, payload: (head.replace(b"[60.0, 60.0]", b'"60"'), payload),
        lambda head, payload: (head.replace(b"[32, 32]", b"null"), payload),
        lambda head, payload: (head.replace(b'"position"', b'"momentum"'), payload),
        lambda head, payload: (head, bytes(len(payload))),
    ], ids=["array-header", "string-extents", "null-counts", "momentum-space", "all-zero"])
    def test_verify_rejects_a_malformed_stored_field(self, tmp_path, capsys, edit):
        stored = tmp_path / "stored.field"
        path = base_config(tmp_path, k_sweep=[0.8], field_file=str(stored),
                           grid={"extents": [60.0, 60.0], "counts": [32, 32]})
        grid = make_grid(2, (60.0, 60.0), (32, 32))
        save_field(stored, SampledField(grid, np.ones(grid.shape), Space.POSITION))
        head, payload = edit(*stored.read_bytes().split(b"\n", 1))
        stored.write_bytes(head + b"\n" + payload)
        assert cli.main(["verify", "--config", str(path)]) == 2
        assert f"config error: stored field {stored}: " in capsys.readouterr().err
        assert not (tmp_path / "out" / "verify_report.json").exists()

    def test_verify_field_file_must_be_a_string(self, tmp_path, capsys):
        path = base_config(tmp_path, field_file=5)
        assert cli.main(["verify", "--config", str(path)]) == 2
        assert "field_file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:potential magnitude")
    def test_oracle_ignores_the_grid_and_the_sweep(self, tmp_path):
        path = base_config(
            tmp_path, k_sweep=[], grid={"extents": [60.0, 60.0], "counts": [255, 255]}
        )
        assert cli.main(["oracle", "--config", str(path)]) == 0

    def test_independent_problems_are_all_reported(self, tmp_path, capsys):
        path = base_config(
            tmp_path, tol=0, grid={"extents": [60.0, 60.0], "counts": [255, 256]}
        )
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "grid: counts must be even" in err
        assert "tol must be" in err

    def test_sweep_and_grid_problems_do_not_block_make_potential(self, tmp_path):
        path = base_config(tmp_path, k_sweep=[0.01, 20.0])
        assert cli.main(["make-potential", "--config", str(path)]) == 0

    def test_oracle_support_threshold_beyond_its_grid(self, tmp_path, capsys):
        potential = json.loads(base_config(tmp_path).read_text())["potential"]
        path = base_config(tmp_path, potential=dict(potential, alpha=50.0))
        assert cli.main(["oracle", "--config", str(path)]) == 2
        assert "oracle grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings(
        "ignore:potential magnitude", "ignore:material magnitude"
    )
    @settings(max_examples=80, deadline=None)
    @given(config=fuzz_configs(), command=st.sampled_from(
        ["run", "run", "make-potential", "verify"]))
    def test_any_config_ends_in_a_defined_exit_code(
        self, tmp_path_factory, config, command
    ):
        workdir = tmp_path_factory.mktemp("fuzz")
        path = workdir / "config.json"
        path.write_text(json.dumps(config))
        out = workdir / "out"
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        event(f"{command} exit {code}")
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            assert not list(out.glob("point_*"))


class TestMakePotentialAndVerify:
    def test_round_trip(self, tmp_path):
        path = base_config(tmp_path, k_sweep=[0.8], n_orders=2)
        out = tmp_path / "out"
        assert cli.main(["make-potential", "--config", str(path)]) == 0
        assert (out / "potential.field").exists()
        support = json.loads((out / "support_report.json").read_text())
        assert support["support"]["pass"] is True
        assert cli.main(["verify", "--config", str(path)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["pass"] is True
        assert report["points"][0]["exact_order"] == 1

    @pytest.mark.filterwarnings(
        "ignore:potential magnitude", "ignore:material magnitude"
    )
    def test_verify_em3d_only_for_the_medium_it_rebuilds(self, tmp_path, capsys):
        em3d = dict(
            mode="em3d", potential=FAMILY3D, k_sweep=[0.8], n_orders=2, tol=5e-2,
            grid={"extents": [14.0, 6.0, 6.0], "counts": [48, 16, 16]},
        )
        path = base_config(tmp_path, materials={"which": "eps"}, **em3d)
        assert cli.main(["make-potential", "--config", str(path)]) == 0
        assert cli.main(["verify", "--config", str(path)]) == 0
        capsys.readouterr()
        for materials in (
            {"which": "mu"},
            {"which": "eps", "scale": 2.0},
            {"eps_entries": [{"i": 0, "j": 1, "spec": FAMILY3D}]},
        ):
            path = base_config(tmp_path, materials=materials, **em3d)
            assert cli.main(["verify", "--config", str(path)]) == 2
            assert "cannot check materials" in capsys.readouterr().err

    def test_verify_without_stored_field(self, tmp_path):
        path = base_config(tmp_path)
        assert cli.main(["verify", "--config", str(path)]) == 2

    def test_make_potential_needs_a_spec(self, tmp_path):
        path = base_config(tmp_path, potential=None, mode="em3d",
                           grid={"extents": [8.0, 8.0, 8.0],
                                 "counts": [8, 8, 8]},
                           materials={"eps_entries": [{"i": 0, "j": 0, "spec": {
                               "alpha": 1.0, "u": [1.0, 0.0, 0.0], "a": 1.0,
                               "m": 2, "coupling": {"re": 1.0, "im": 0.0},
                               "ell_y": 2.0, "ell_z": 2.0}}]})
        assert cli.main(["make-potential", "--config", str(path)]) == 2


class TestOracle:
    @pytest.mark.filterwarnings("ignore:potential magnitude")
    def test_oracle_report(self, tmp_path):
        path = base_config(tmp_path)
        assert cli.main(["oracle", "--config", str(path), "--seed", "3"]) == 0
        report = json.loads(
            (tmp_path / "out" / "oracle_report.json").read_text()
        )
        assert report["oracle"] is True
        assert report["dft_relative_error"] <= 1e-12
        assert report["order2_relative_error"] <= 1e-8
        assert report["seed"] == 3
        assert all("elapsed" not in p for p in report["order2_points"])
        assert all(p["oracle"] is True for p in report["order2_points"])
