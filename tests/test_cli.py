"""Tests for the batch driver: configs, sweeps, artifacts, exit codes."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from bornscat import cli
from bornscat.grids import SampledField, make_grid, save_field
from bornscat.potentials import sample_potential, spec_from_dict

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
    """The problems `run` reports before any work: exit 2, each one on stderr."""

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
    def test_diagnostics(self, tmp_path, capsys, overrides, needle):
        path = base_config(tmp_path, **overrides)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert needle in capsys.readouterr().err

    def test_potential_dimension_mismatch(self, tmp_path, capsys):
        path = base_config(
            tmp_path,
            mode="scalar3d",
            grid={"extents": [20.0, 6.0, 6.0], "counts": [32, 8, 8]},
        )
        assert cli.main(["run", "--config", str(path)]) == 2
        assert ("u must be a vector of 3 components, all finite; got shape (2,)"
                in capsys.readouterr().err)


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

    @pytest.mark.filterwarnings("ignore:potential magnitude")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [32, 512])
    @pytest.mark.parametrize("command,line", [
        ("run", "sweep point 0 (k_requested = 0.8) diverged at order 2"),
        ("oracle", "oracle: the series diverged at order 2"),
    ], ids=["run", "oracle"])
    def test_an_overflow_exits_3_without_a_numpy_warning(
        self, tmp_path, capsys, command, line, n
    ):
        # at 512^2 the overflowing product runs on the grid thread pool
        path = base_config(
            tmp_path, potential=dict(POTENTIAL2D, coupling={"re": 1e300, "im": 0.0}),
            k_sweep=[0.8], grid={"extents": [16.0, 16.0], "counts": [n, n]},
            direction_count=8,
        )
        assert cli.main([command, "--config", str(path)]) == 3
        assert capsys.readouterr().err == line + "\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_keys_are_named_and_change_nothing(self, tmp_path, capsys):
        runs = {}
        for name, typos in (("plain", {}), ("typos", {"spectral_check": True, "n_order": 6})):
            path = base_config(tmp_path, k_sweep=[0.8], n_orders=2, direction_count=8, **typos)
            out = tmp_path / name
            assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
            runs[name] = capsys.readouterr().err, {p.name: p.read_bytes() for p in out.iterdir()}
        (plain_err, plain_files), (typos_err, typos_files) = runs["plain"], runs["typos"]
        assert typos_err == (
            'config warning: unknown key "spectral_check" is ignored\n'
            'config warning: unknown key "n_order" is ignored\n' + plain_err
        )
        assert typos_files == plain_files

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

    @pytest.mark.filterwarnings("ignore:potential magnitude")
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

    @pytest.mark.parametrize("materials,sampled", [
        ({"which": "eps"}, 1),
        ({"eps_entries": [{"i": 0, "j": 0, "spec": FAMILY3D},
                          {"i": 1, "j": 1, "spec": dict(FAMILY3D, coupling=0.5)}]}, 2),
    ], ids=["isotropic", "two-entries"])
    def test_em3d_truncation_warns_once_per_sampled_array(
        self, tmp_path, recwarn, materials, sampled
    ):
        path = base_config(
            tmp_path, mode="em3d", materials=materials,
            potential=FAMILY3D if "which" in materials else None,
            grid={"extents": [8.0, 4.0, 4.0], "counts": [16, 8, 8]},
            k_sweep=[0.8], n_orders=1, direction_count=4,
        )
        assert cli.main(["run", "--config", str(path)]) in (0, 1)
        truncation = [w for w in recwarn if "at the box boundary" in str(w.message)]
        assert len(truncation) == sampled

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
    """spec, or spec with the value of one of its keys made odd."""
    def leaf(key):
        return ODD_LEAVES.map(lambda value: dict(spec, **{key: value}))
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
        # an interaction that is zero at every node scatters nothing
        ({"potential": dict(POTENTIAL2D, coupling={"re": 0})},
         "config error: interaction: the sampled interaction is zero at every node, "
         "so nothing scatters\n"),
        (dict(EM3D_ENTRIES, materials={"eps_entries": [
            {"i": 0, "j": 0, "spec": dict(FAMILY3D, coupling={"re": 0})}]}),
         "config error: interaction: the sampled interaction is zero at every node, "
         "so nothing scatters\n"),
        # one sweep point: a problem keeps the point's index
        ({"n_orders": 10**20, "k_sweep": [0.8]},
         "k sweep point 0: n_orders = 100000000000000000000"),
        (dict(EM3D_ENTRIES, potential=dict(FAMILY3D, alpha=2.0), materials={
            "eps_entries": [{"i": 1, "j": 1,
                             "spec": dict(FAMILY3D, alpha=0.5, u=[0.0, 1.0, 0.0])}]}),
         "config error: materials: eps_entries and mu_entries build the em3d medium"),
        ({"materials": {"eps_entries": [
            {"i": 1, "j": 1, "spec": dict(FAMILY3D, alpha=0.5, u=[0.0, 1.0, 0.0])}]}},
         "config error: materials: only em3d builds a medium, so a scalar2d config"),
        ({"mode": "scalar3d", "potential": FAMILY3D, "materials": {"which": "mu"},
          "grid": {"extents": [8.0, 8.0, 8.0], "counts": [8, 8, 8]}},
         "config error: materials: only em3d builds a medium, so a scalar3d config"),
        # one momentum cell along u is 2 pi / 60 = 0.1047
        ({"potential": dict(POTENTIAL2D, alpha=0.1), "k_sweep": [0.8]},
         "k sweep point 0: alpha = 0.1 must be at least one momentum cell along u, 0.1047"),
        ({"tol": math.inf}, "config error: tol must be a positive finite number, got Infinity"),
        # |u| would overflow to inf, and so would the snapped wave vector of a
        # huge k, which is reported as requested; no numpy warning either way
        ({"potential": dict(POTENTIAL2D, u=[1e308, 1e308])},
         "config error: potential: u must be a nonzero vector of finite length"),
        ({"k_sweep": [1e308]},
         "k sweep point 0: k = 1e+308 must lie below the momentum band edge 13.4"),
        ({"k_sweep": [1e200]},
         "k sweep point 0: k = 1e+200 must lie below the momentum band edge 13.4"),
        # a key that no reader of its block knows is a misspelling, not a default
        ({"potential": dict(POTENTIAL2D, centre=[3.0, 0.0])},
         'config error: potential: unknown key "centre"'),
        ({"command": "oracle", "potential": dict(POTENTIAL2D, centre=[3.0, 0.0])},
         'config error: potential: unknown key "centre"'),
        (dict(EM3D_ENTRIES, potential=FAMILY3D, materials={"wich": "mu"}),
         'config error: materials: unknown key "wich"'),
        ({"potential": dict(POTENTIAL2D, coupling={"real": 1})},
         'config error: potential: coupling: unknown key "real"'),
        ({"grid": {"extents": [60.0, 60.0], "counts": [256, 256], "count": [8, 8]}},
         'config error: grid: unknown key "count"'),
        (dict(EM3D_ENTRIES, materials={"eps_entries": [
            {"i": 0, "j": 0, "spec": FAMILY3D, "k": 1}]}),
         'config error: materials: eps_entries: item 0: unknown key "k"'),
        # the entries build the whole medium, so which and scale would be dropped
        (dict(EM3D_ENTRIES, materials={
            "which": "mu", "scale": 5.0,
            "eps_entries": [{"i": 0, "j": 0, "spec": FAMILY3D}]}),
         "config error: materials: eps_entries and which/scale are two forms of one "
         "medium; give one\n"),
        (dict(EM3D_ENTRIES, materials={
            "scale": 5.0, "eps_entries": [], "mu_entries": [{"i": 0, "j": 0, "spec": FAMILY3D}]}),
         "config error: materials: eps_entries/mu_entries and scale are two forms of one "
         "medium; give one\n"),
    ])
    # numpy's overflow warnings too: m = 10**20 overflows while sampling
    @pytest.mark.filterwarnings("error::RuntimeWarning")
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
        lambda head, payload: (b"[" * 100000, payload),
    ], ids=["array-header", "string-extents", "null-counts", "momentum-space", "all-zero",
            "nested-header"])
    def test_verify_rejects_a_malformed_stored_field(self, tmp_path, capsys, edit):
        stored = tmp_path / "stored.field"
        path = base_config(tmp_path, k_sweep=[0.8], field_file=str(stored),
                           grid={"extents": [60.0, 60.0], "counts": [32, 32]})
        grid = make_grid(2, (60.0, 60.0), (32, 32))
        save_field(stored, SampledField(grid, np.ones(grid.shape)))
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

    @pytest.mark.parametrize("overrides,lines", [
        ({"eps_cells": -1},
         ["config error: k sweep: eps_cells = -1.0 must be positive and finite"]),
        # one momentum cell along u is 2 pi / 8 = 0.7854
        ({"potential": dict(POTENTIAL2D, alpha=1e-5), "k_sweep": [0.8, 1.6],
          "grid": {"extents": [8.0, 8.0], "counts": [8, 8]}},
         ["config error: k sweep: alpha = 1e-05 must be at least one momentum cell "
          "along u, 0.7854"]),
        ({"k_sweep": [0.01, 20.0]},
         ["config error: k sweep point 0: k = 0.01 snaps",
          "config error: k sweep point 1: k = 20"]),
        # rejected before any direction is built: 10**15 of them would not fit
        ({"direction_count": 10**15},
         ["config error: k sweep: direction_count = 1000000000000000 exceeds the "
          "grid's node count, 65536"]),
    ], ids=["eps_cells-3-points", "alpha-2-points", "different-texts",
            "huge-direction_count"])
    def test_a_problem_of_every_sweep_point_is_reported_once(
        self, tmp_path, capsys, overrides, lines
    ):
        path = base_config(tmp_path, **overrides)
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(lines), err
        assert all(got.startswith(want) for got, want in zip(err, lines)), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "make-potential", "verify", "oracle"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_an_out_on_a_file_exits_2_before_any_work(
        self, tmp_path, capsys, command, below
    ):
        grid = {"extents": [60.0, 60.0], "counts": [32, 32]}
        stored = tmp_path / "stored.field"
        path = base_config(tmp_path, k_sweep=[0.8], grid=grid, field_file=str(stored))
        save_field(stored, sample_potential(spec_from_dict(POTENTIAL2D),
                                            make_grid(2, grid["extents"], grid["counts"])))
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "sub" if below else taken
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: out: {taken} exists and is not a directory\n"
        )
        assert taken.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "stored.field", "taken"
        ]

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_an_infinite_tol_override_exits_2(self, tmp_path, capsys, command):
        path = base_config(tmp_path, k_sweep=[0.8])
        assert cli.main([command, "--config", str(path), "--tol", "inf"]) == 2
        assert capsys.readouterr().err == (
            "config error: tol must be a positive finite number, got Infinity\n"
        )
        assert not (tmp_path / "out").exists()

    # 4194304^2 and 32768^3 complex nodes take 256 and 512 TiB, beyond the
    # 128 TiB user address space, so the allocation fails at once whatever
    # the overcommit policy
    @pytest.mark.parametrize("command,counts", [
        ("run", [4194304] * 2), ("make-potential", [4194304] * 2),
        ("run", [32768] * 3), ("make-potential", [32768] * 3),
    ], ids=["run", "make-potential", "run-32768^3", "make-potential-32768^3"])
    def test_a_config_too_large_to_allocate_exits_2(self, tmp_path, capsys, command, counts):
        dim = len(counts)
        path = base_config(tmp_path, k_sweep=[0.8], mode=f"scalar{dim}d",
                           potential=FAMILY3D if dim == 3 else POTENTIAL2D,
                           grid={"extents": [60.0] * dim, "counts": counts})
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: not enough memory for this config: Unable to allocate"
        ), err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_a_deeply_nested_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 100000)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: JSON nested too deeply to decode\n"
        )
        assert not out.exists()

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

    @pytest.mark.filterwarnings("ignore:potential magnitude")
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

    @pytest.mark.filterwarnings("ignore:potential magnitude")
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

    @pytest.mark.filterwarnings("ignore:potential magnitude")
    @pytest.mark.parametrize("alpha", [0.5, 5.0])
    def test_oracle_grid_follows_alpha(self, tmp_path, alpha):
        # an 8-long box holds neither: 0.5 is below its momentum cell and
        # k = 0.8 * 5 lies beyond its band edge
        path = base_config(tmp_path, potential=dict(POTENTIAL2D, alpha=alpha))
        assert cli.main(["oracle", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "oracle_report.json").read_text())
        assert report["grid"] == {"extents": [5 * np.pi / alpha] * 2, "counts": [8, 8]}
        assert report["pass"] is True

    @pytest.mark.filterwarnings("ignore:potential magnitude")
    def test_em3d_checks_the_medium_built_from_entries(self, tmp_path):
        # two distinct arrays: each takes several seconds of literal sums
        path = base_config(tmp_path, **dict(EM3D_ENTRIES, materials={
            "eps_entries": [{"i": 0, "j": 1, "spec": FAMILY3D}],
            "mu_entries": [{"i": 1, "j": 1, "spec": dict(FAMILY3D, coupling=0.5)}],
        }))
        assert cli.main(["oracle", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "oracle_report.json").read_text())
        assert report["mode"] == "em3d"
        assert [len(p["value_re"]) for p in report["order2_points"]] == [6] * 5
        assert report["order2_relative_error"] <= 1e-8

    @pytest.mark.filterwarnings("ignore:potential magnitude")
    def test_nodes_are_drawn_where_order_two_is_nonzero(self, tmp_path):
        # the slab covers the whole 5 pi / 50 box, so order 2 is nonzero
        # only at p_y = 0
        path = base_config(tmp_path, potential=dict(POTENTIAL2D, alpha=50.0))
        assert cli.main(["oracle", "--config", str(path)]) == 0

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        report = json.loads((tmp_path / "out" / "oracle_report.json").read_text(),
                            parse_constant=reject)
        assert report["order2_relative_error"] <= 1e-8
        assert all(p["point"][1] == 0.0 for p in report["order2_points"])

    @pytest.mark.filterwarnings("ignore:potential magnitude")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("overrides", [
        {"potential": dict(POTENTIAL2D, coupling={"re": 1e300, "im": 0.0})},
        dict(EM3D_ENTRIES, potential=dict(FAMILY3D, coupling={"re": 1e300, "im": 0.0})),
    ], ids=["scalar2d", "em3d"])
    def test_a_diverging_series_exits_3(self, tmp_path, capsys, overrides):
        path = base_config(tmp_path, **overrides)
        assert cli.main(["oracle", "--config", str(path)]) == 3
        assert capsys.readouterr().err == "oracle: the series diverged at order 2\n"
        assert not (tmp_path / "out").exists()

    def test_a_zero_order_two_term_exits_2(self, tmp_path, capsys):
        # a zero coupling leaves an interaction that is zero at every node
        path = base_config(tmp_path, potential=dict(POTENTIAL2D, coupling=0))
        assert cli.main(["oracle", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: oracle grid (8, 8): the sampled interaction is zero at "
            "every node, so nothing scatters\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:potential magnitude")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_order_two_term_that_underflows_exits_2(self, tmp_path, capsys):
        # v ~ 1e-200 is nonzero, but v * B_1 ~ 1e-400 underflows to zero
        path = base_config(tmp_path, potential=dict(POTENTIAL2D, coupling=1e-200))
        assert cli.main(["oracle", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: oracle: the order-2 term is zero on the oracle grid, "
            "so there is nothing to compare\n"
        )
        assert not (tmp_path / "out").exists()
