"""Dispatch, emission, and reproducibility tests for the command line tool."""

import csv
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kakeyalab
from kakeyalab.boxdim import minkowski_estimate, neighborhood_volume_curve
from kakeyalab.cli import (
    CliError,
    dispatch,
    emit_report,
    emit_svg,
    load_config,
    parse_deltas,
    read_field,
    sha256_file,
    write_field,
)
from kakeyalab.exactgeom.region import Region2
from kakeyalab.perron import PerronSpec, build_perron_tree, tree_from_json
from kakeyalab.spectral import GridField, MultiplierSpec, apply_multiplier
from kakeyalab.tubelab import family_from_json, generate_directions, generate_family, union_volume


def run(tmp_path, *argv):
    return dispatch([str(a) for a in argv])


class TestDispatch:
    def test_perron_happy_path(self, tmp_path):
        out = tmp_path / "t.json"
        code = dispatch(["perron", "--m", "4",
                         "--schedule", "0.33,0.5,0.6,0.67",
                         "--out", str(out)])
        assert code == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
        assert manifest["subcommand"] == "perron"
        assert manifest["parameters"]["m"] == 4
        tree = tree_from_json(out.read_text())
        assert tree.spec.m == 4

    def test_unsupported_dim_is_validation_error(self, tmp_path):
        code = dispatch(["tubes", "gen", "--delta", "0.3", "--dim", "4",
                         "--out", str(tmp_path / "f.json")])
        assert code == 2

    def test_unknown_subcommand_usage_on_stderr(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag(self, tmp_path):
        assert dispatch(["perron", "--out", str(tmp_path / "t.json")]) == 2

    def test_bad_flag_value(self, tmp_path):
        assert dispatch(["perron", "--m", "four",
                         "--out", str(tmp_path / "t.json")]) == 2

    @pytest.mark.parametrize("cmd", ["perron", "kakeya"])
    def test_depth_past_the_cap_is_refused_before_building(self, tmp_path, monkeypatch, capsys, cmd):
        import kakeyalab.perron as perron

        def no_build(*args, **kwargs):
            raise AssertionError("nothing may be built for a refused depth")

        for name in ("overlay", "bisect", "shifted_leaves"):
            monkeypatch.setattr(perron, name, no_build)
        out = tmp_path / "t.json"
        assert dispatch([cmd, "--m", str(perron.MAX_DEPTH + 1), "--out", str(out)]) == 2
        assert "deepest" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_file_is_exit_2(self, tmp_path, capsys):
        for argv in (["multiplier", "--kind", "ball", "--R", "1.0",
                      "--in", str(tmp_path / "missing.bin"),
                      "--out", str(tmp_path / "g.bin")],
                     ["dim", "--in", str(tmp_path / "missing.json"),
                      "--deltas", "2^-3..2^-6", "--out", str(tmp_path / "d.csv")],
                     ["perron", "--m", "2",
                      "--out", str(tmp_path / "no-such-dir" / "t.json")]):
            assert dispatch(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda obj: {},
        lambda obj: {**obj, "piece_shifts": obj["piece_shifts"][:-1]},
        lambda obj: {**obj, "m": 2.0},
        # a Q^2 unit square: no tree lies in that frame
        lambda obj: {**obj, "region": {"polygons": [[[0, 1, 0, 1, 0, 1, 0, 1], [1, 1, 0, 1, 0, 1, 0, 1],
                                                     [1, 1, 0, 1, 1, 1, 0, 1], [0, 1, 0, 1, 1, 1, 0, 1]]]}},
        # a shift whose x mixes both halves
        lambda obj: {**obj, "piece_shifts": [[1, 2, 1, 3, 0, 1, 0, 1]] * 4},
    ], ids=["no-keys", "short-shifts", "float-m", "rational-region", "mixed-shift"])
    def test_malformed_tree_file_is_exit_2(self, tmp_path, capsys, edit):
        src = tmp_path / "t.json"
        assert dispatch(["perron", "--m", "2", "--out", str(src)]) == 0
        src.write_text(json.dumps(edit(json.loads(src.read_text()))))
        assert dispatch(["fefferman", "--r", "0.25", "--tree", str(src),
                         "--out", str(tmp_path / "f.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda obj: obj["tubes"][0].update(a=[0.0, 0.0]),
        lambda obj: obj["tubes"][0].update(omega=[0.0, 0.0, 2.0]),
        lambda obj: obj["tubes"][0].update(a=[float("nan"), 0.0, 0.0]),
        lambda obj: obj["tubes"][0].update(len=0.0),
        lambda obj: obj.update(delta=1.5),
        lambda obj: obj.update(tubes=[]),
        lambda obj: obj["tubes"][0].pop("len"),
        lambda obj: obj.update(dim=2),  # every tube a 3-vector
    ], ids=["2-vector-anchor", "non-unit-omega", "nan-anchor", "zero-len", "delta-1.5",
            "no-tubes", "no-len-key", "dim-2-of-3-vectors"])
    def test_malformed_family_file_is_exit_2(self, tmp_path, capsys, edit):
        src = tmp_path / "f.json"
        assert dispatch(["tubes", "gen", "--dim", "3", "--delta", "0.25",
                         "--out", str(src)]) == 0
        obj = json.loads(src.read_text())
        edit(obj)
        src.write_text(json.dumps(obj))
        capsys.readouterr()
        assert dispatch(["dim", "--in", str(src), "--deltas", "2^-2..2^-5",
                         "--out", str(tmp_path / "d.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_check_failure_is_exit_3(self, tmp_path):
        # a segment's neighborhood volume decays too fast for the
        # dimension-2 lower bound, so --check must reject it
        pts = np.stack([np.linspace(0.0, 1.0, 2001),
                        np.full(2001, 0.5)], axis=1)
        src = tmp_path / "seg.csv"
        np.savetxt(src, pts, delimiter=",")
        out = tmp_path / "dim.csv"
        code = dispatch(["dim", "--in", str(src), "--deltas", "2^-4..2^-8",
                         "--out", str(out), "--check"])
        assert code == 3
        assert out.exists()

    def test_check_success_is_exit_0(self, tmp_path):
        out = tmp_path / "t.json"
        code = dispatch(["perron", "--m", "3", "--out", str(out), "--check"])
        assert code == 0

    def test_bad_schedule_is_exit_2(self, tmp_path, capsys):
        assert dispatch(["perron", "--m", "2", "--schedule", "a,b",
                         "--out", str(tmp_path / "t.json")]) == 2
        assert capsys.readouterr().err.startswith("error: bad schedule")

    def test_empty_check_list_is_exit_2(self, tmp_path, capsys):
        assert dispatch(["tubes", "analyze", "--delta", "0.125", "--checks", ",",
                         "--out", str(tmp_path / "r.csv")]) == 2
        assert "empty check list" in capsys.readouterr().err

    def test_unparsable_points_csv_is_exit_2(self, tmp_path, capsys):
        src = tmp_path / "pts.csv"
        src.write_text("0.5,0.5\nx,y\n")
        assert dispatch(["dim", "--in", str(src), "--deltas", "2^-2..2^-4",
                         "--out", str(tmp_path / "d.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: ") and "Traceback" not in err


class TestCheckBranches:
    """Each subcommand's --check assertion, at sizes that take well under a second."""

    def test_kakeya_covers_the_full_circle(self, tmp_path, capsys):
        assert dispatch(["kakeya", "--m", "2", "--out", str(tmp_path / "k.json"),
                         "--check"]) == 0
        assert "coverage 1440/1440 full-circle directions" in capsys.readouterr().out

    def test_tubes_analyze_pass_and_fail(self, tmp_path, capsys):
        base = ["tubes", "analyze", "--delta", "0.125", "--mc-samples", "20000"]
        assert dispatch(base + ["--checks", "volume",
                                "--out", str(tmp_path / "a.csv"), "--check"]) == 0
        assert "(0 fail)" in capsys.readouterr().out
        # the slab packs delta^-2 tubes into one prism: the Wolff check fails
        assert dispatch(base + ["--placement", "parallel-lines", "--checks", "wolff",
                                "--out", str(tmp_path / "b.csv"), "--check"]) == 3
        captured = capsys.readouterr()
        assert "(1 fail)" in captured.out
        assert "acceptance check failed" in captured.err

    @pytest.mark.parametrize("samples, code", [(20000, 3), (400000, 0)])
    def test_heisenberg_needs_a_one_percent_error(self, tmp_path, samples, code):
        assert dispatch(["heisenberg", "--delta", "0.125", "--samples", str(samples),
                         "--out", str(tmp_path / "h.csv"), "--check"]) == code

    @pytest.mark.parametrize("p", ["2", "4"])
    def test_fefferman_ratio(self, tmp_path, capsys, p):
        out = tmp_path / "f.csv"
        assert dispatch(["fefferman", "--r", "0.25", "--p", p, "--out", str(out),
                         "--check"]) == 0
        assert re.search(rf"^4 packets, L\^{p} ratio 0\.\d{{4}} -> ", capsys.readouterr().out, re.M)
        row = next(csv.DictReader(io.StringIO(out.read_text())))
        assert 0.0 < float(row["ratio"]) < 1.0


class TestEarlyRefusal:
    """Inputs that would stall or crash a run exit 2 at once, with an error line."""

    def refused(self, capsys, argv, seconds=1.0):
        started = time.perf_counter()
        assert dispatch(argv) == 2
        assert time.perf_counter() - started < seconds
        return capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--delta", "0"],  # no 1/delta to take
        ["--delta", "0.3", "--samples", "20000000"],  # refused before 2e7 draws
        ["--delta", "1e-8"],  # a lattice count over 2e8 rows
    ])
    def test_heisenberg_bad_delta(self, tmp_path, capsys, flags):
        out = tmp_path / "h.csv"
        assert self.refused(capsys, ["heisenberg", *flags, "--out", str(out)]).startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        # the default checks: distinct refuses this family (sticky would too)
        (["--delta", "0.011", "--dim", "3", "--placement", "random"],
         "51,854 tubes make 1,344,392,731 pairs, over the limit of 16,777,216"),
        (["--delta", "0.125", "--checks", "volume,wolff"],
         "the prism occupancy check is three-dimensional only"),
        (["--delta", "0.1", "--dim", "3", "--checks", "volume,sticky"],
         "the default scale ladder needs a dyadic delta"),
    ])
    def test_tube_checks_admitted_before_any_runs(self, tmp_path, capsys, monkeypatch,
                                                  flags, message):
        # 2e7 volume samples would take tens of seconds if volume ran first,
        # and each family is refused from its net's size before it is built
        def build(*args, **kwargs):
            raise AssertionError("the family was built")

        monkeypatch.setattr(sys.modules["kakeyalab.cli.main"], "generate_family", build)
        out = tmp_path / "r.csv"
        err = self.refused(capsys, ["tubes", "analyze", *flags, "--mc-samples", "20000000",
                                    "--out", str(out)], seconds=2.0)
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("delta, message", [
        ("0", "delta must lie in (0, 1), got 0.0"),
        ("-0.5", "delta must lie in (0, 1), got -0.5"),
        ("nan", "delta must lie in (0, 1), got nan"),
        ("inf", "delta must lie in (0, 1), got inf"),
        ("1e-320", "1/delta must be an integer >= 2, got inf"),  # 1/delta overflows
    ])
    def test_parallel_lines_delta_outside_range(self, tmp_path, capsys, delta, message):
        out = tmp_path / "slab.json"
        err = self.refused(capsys, ["tubes", "gen", f"--delta={delta}",
                                    "--placement", "parallel-lines", "--out", str(out)])
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_parallel_lines_pairs_refused_before_building(self, tmp_path, capsys, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} reached before the pair limit")

        monkeypatch.setattr(sys.modules["kakeyalab.tubelab.generate"], "np", NoNumpy())
        out = tmp_path / "r.csv"
        err = self.refused(capsys, ["tubes", "analyze", "--delta", repr(1 / 128),
                                    "--placement", "parallel-lines", "--checks", "distinct",
                                    "--out", str(out)])
        assert err == ("error: 16,384 tubes make 134,209,536 pairs, "
                       "over the limit of 16,777,216\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--mc-samples", "2000000000"],
        ["--method", "grid", "--grid-res", "100000"],
    ])
    def test_volume_inputs_admitted_only_for_volume(self, tmp_path, capsys, flags):
        # no sample is drawn and no grid filled when volume is not requested
        out = tmp_path / "r.csv"
        assert dispatch(["tubes", "analyze", "--delta", "0.25", "--checks", "distinct",
                         *flags, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("distinct,0.25,flagged_pairs,")
        assert dispatch(["tubes", "analyze", "--delta", "0.25", "--checks", "volume",
                         *flags, "--out", str(out)]) == 2
        assert "over the limit of" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--mc-samples", "0"], "need at least one sample"),
        (["--method", "grid", "--grid-res", "1"], "resolution must be at least 2"),
    ])
    def test_volume_lower_bounds_refused_before_building(self, tmp_path, capsys, monkeypatch,
                                                          flags, message):
        def build(*args, **kwargs):
            raise AssertionError("the family was built")

        monkeypatch.setattr(sys.modules["kakeyalab.cli.main"], "generate_family", build)
        out = tmp_path / "r.csv"
        err = self.refused(capsys, ["tubes", "analyze", "--delta", "0.25", "--checks", "volume",
                                    *flags, "--out", str(out)])
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_perron_base_in_3d_refused_by_its_own_rule(self, tmp_path, capsys):
        # the 3-D net at 0.011 is over the pair limit, but the placement
        # rule is the refusal that names the fault
        err = self.refused(capsys, ["tubes", "analyze", "--delta", "0.011", "--dim", "3",
                                    "--placement", "perron-base", "--out", str(tmp_path / "r.csv")])
        assert err == "error: perron-base placement is two-dimensional only\n"

    def test_field_header_checked_before_sizing(self, tmp_path, capsys):
        # 32 bytes claiming dim 2^20 and N = 2^32 - 1: 16 * N ** dim would
        # be a multi-megabyte integer
        src = tmp_path / "f.bin"
        src.write_bytes(struct.pack("<8sIId8x", b"KAKFLD01", 2 ** 20, 2 ** 32 - 1, 1.0))
        err = self.refused(capsys, ["multiplier", "--kind", "ball", "--R", "1",
                                    "--in", str(src), "--out", str(tmp_path / "g.bin")])
        assert err == f"error: {src}: dim must be 1 or 2, got 1048576\n"

    @pytest.mark.parametrize("dim, n, match", [
        (2, 12, "N must be a power of two >= 8, got 12"),
        (1, 4, "N must be a power of two >= 8, got 4"),
        (2, 2 ** 31, "expected 73786976294838206464 data bytes, found 0"),
    ])
    def test_field_header_rules(self, tmp_path, dim, n, match):
        src = tmp_path / "f.bin"
        src.write_bytes(struct.pack("<8sIId8x", b"KAKFLD01", dim, n, 1.0))
        with pytest.raises(CliError, match=match):
            read_field(str(src))


class TestFeffermanGrid:
    @pytest.mark.parametrize("flags, n, period", [
        (["--grid", "2048"], 2048, 256.0),
        (["--period", "512"], 2048, 512.0),
        ([], 1024, 256.0),
    ])
    def test_given_grid_or_period_is_kept(self, tmp_path, flags, n, period):
        out = tmp_path / "f.csv"
        assert dispatch(["fefferman", "--r", "0.125", *flags, "--out", str(out)]) == 0
        row = next(csv.DictReader(io.StringIO(out.read_text())))
        assert (int(row["N"]), float(row["L"])) == (n, period)

    def test_grid_too_small_for_its_period(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert dispatch(["fefferman", "--r", "0.125", "--period", "512", "--grid", "1024",
                         "--out", str(out)]) == 2
        assert "need N >= 2048" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_below_the_heat_map_bins(self, tmp_path):
        # r = 0.5 gets the minimal grid N = 64, fewer samples than the
        # 128 heat map bins: the map takes one bin per sample
        out, svg = tmp_path / "f.csv", tmp_path / "heat.svg"
        assert dispatch(["fefferman", "--r", "0.5", "--out", str(out),
                         "--heatmap", str(svg)]) == 0
        assert int(next(csv.DictReader(io.StringIO(out.read_text())))["N"]) == 64
        assert '<rect width="64" height="64" fill="#ffffff"/>' in svg.read_text()

    def test_grid_not_a_power_of_two_refused_before_allocating(self, tmp_path, capsys):
        # N = 3000 clears the Nyquist bound; its spectrum alone would take 144 MB
        out = tmp_path / "f.csv"
        tracemalloc.start()
        try:
            code = dispatch(["fefferman", "--r", "0.125", "--grid", "3000", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "N must be a power of two >= 8, got 3000" in capsys.readouterr().err
        assert peak < 16 * 3000 ** 2 / 20
        assert not out.exists()


class TestManifest:
    def test_digests_recomputable(self, tmp_path):
        out = tmp_path / "t.json"
        svg = tmp_path / "t.svg"
        assert dispatch(["perron", "--m", "3", "--out", str(out),
                         "--svg", str(svg)]) == 0
        manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
        assert set(manifest["outputs"]) == {str(out), str(svg)}
        for path, digest in manifest["outputs"].items():
            assert sha256_file(path) == digest
        assert manifest["wall_time_s"] > 0
        assert manifest["tool_version"]

    def test_seed_recorded(self, tmp_path):
        out = tmp_path / "h.csv"
        assert dispatch(["heisenberg", "--delta", "0.125", "--samples",
                         "20000", "--seed", "9", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "h.csv.manifest.json").read_text())
        assert manifest["seeds"] == {"seed": 9}


class TestReproducibility:
    def test_heisenberg_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["heisenberg", "--delta", "0.0625", "--samples", "50000",
                "--seed", "7"]
        assert dispatch(args + ["--out", str(a)]) == 0
        assert dispatch(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        args = ["tubes", "analyze", "--delta", "0.125", "--placement",
                "random", "--seed", "5", "--mc-samples", "100000"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(args + ["--out", str(a)]) == 0
        monkeypatch.setenv("KAKEYA_LAB_THREADS", "4")
        assert dispatch(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_svg_rerun_identical(self, tmp_path):
        s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
        for s in (s1, s2):
            assert dispatch(["perron", "--m", "4",
                             "--out", str(tmp_path / "t.json"),
                             "--svg", str(s)]) == 0
        assert s1.read_bytes() == s2.read_bytes()


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        out = tmp_path / "h.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\ndelta=0.125\nsamples=20000\n"
                       f"seed=3\nout={out}\n")
        assert dispatch(["heisenberg", "--config", str(cfg)]) == 0
        assert out.exists()

    def test_cli_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta=0.125\nsamples=20000\nseed=3\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(["heisenberg", "--config", str(cfg),
                         "--out", str(a)]) == 0
        assert dispatch(["heisenberg", "--config", str(cfg), "--seed", "4",
                         "--out", str(b)]) == 0
        rows_a = a.read_text().splitlines()[1]
        rows_b = b.read_text().splitlines()[1]
        assert rows_a != rows_b

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta=0.125\nfrobs=7\n")
        assert dispatch(["heisenberg", "--config", str(cfg),
                         "--out", str(tmp_path / "h.csv")]) == 2

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta=wide\n")
        assert dispatch(["heisenberg", "--config", str(cfg),
                         "--out", str(tmp_path / "h.csv")]) == 2
        assert "argument --delta: invalid float value: 'wide'" in capsys.readouterr().err

    def test_bad_choice_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta=0.25\nplacement=spiral\n")
        assert dispatch(["tubes", "gen", "--config", str(cfg),
                         "--out", str(tmp_path / "f.json")]) == 2
        assert "argument --placement: invalid choice: 'spiral'" in capsys.readouterr().err

    def test_positional_is_not_a_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=gen\ndelta=0.25\n")
        assert dispatch(["tubes", "analyze", "--config", str(cfg),
                         "--out", str(tmp_path / "f.json")]) == 2
        assert "unknown key 'mode'" in capsys.readouterr().err

    def test_in_key_reaches_infile(self, tmp_path):
        src, dst = tmp_path / "f.bin", tmp_path / "g.bin"
        write_field(str(src), GridField(1, 8, 1.0, np.ones(8, dtype=complex)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kind=ball\nR=1.0\nin={src}\n")
        assert dispatch(["multiplier", "--config", str(cfg), "--out", str(dst)]) == 0
        manifest = json.loads((tmp_path / "g.bin.manifest.json").read_text())
        assert manifest["parameters"]["in"] == str(src)
        assert manifest["flags"]["config"] == str(cfg)

    @pytest.mark.parametrize("name", ["a=b.csv", "-h.csv", "--out"])
    def test_value_stays_a_value(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"delta=0.125\nsamples=20000\nout={name}\n")
        assert dispatch(["heisenberg", "--config", str(cfg)]) == 0
        assert (tmp_path / name).exists()

    def test_negative_number_stays_a_value(self, tmp_path, capsys):
        # -0.125 reaches the library, which refuses it, instead of being
        # taken for a flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta=-0.125\n")
        assert dispatch(["heisenberg", "--config", str(cfg),
                         "--out", str(tmp_path / "h.csv")]) == 2
        assert capsys.readouterr().err == "error: 1/delta must be a positive integer\n"

    def test_cli_choice_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta=0.5\nplacement=random\nseed=1\n")
        out = tmp_path / "f.json"
        assert dispatch(["tubes", "gen", "--config", str(cfg), "--placement", "bush",
                         "--delta", "0.25", "--out", str(out)]) == 0
        params = json.loads((tmp_path / "f.json.manifest.json").read_text())["parameters"]
        assert (params["placement"], params["delta"]) == ("bush", 0.25)
        assert json.loads(out.read_text())["placement_tag"] == "bush"

    def test_required_option_missing_after_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=20000\n")
        assert dispatch(["heisenberg", "--config", str(cfg),
                         "--out", str(tmp_path / "h.csv")]) == 2
        assert capsys.readouterr().err == "error: missing required option --delta\n"

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta 0.125\n")
        assert dispatch(["heisenberg", "--config", str(cfg),
                         "--out", str(tmp_path / "h.csv")]) == 2

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        assert dispatch(["heisenberg", "--config", str(tmp_path / "none.cfg"),
                         "--out", str(tmp_path / "h.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_load_config_normalizes_dashes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mc-samples=5\n")
        assert load_config(str(cfg), {"mc_samples"}) == {"mc_samples": "5"}


class TestEmitReport:
    def test_zero_rows_header_only(self):
        text, nans = emit_report([], ("a", "b"))
        assert text == "a,b\n"
        assert nans == 0

    def test_nan_printed_and_counted(self):
        text, nans = emit_report([(1, float("nan"))], ("k", "v"))
        assert "nan" in text.splitlines()[1]
        assert nans == 1

    def test_seventeen_significant_digits(self):
        value = 1.0 / 3.0
        text, _ = emit_report([(value,)], ("v",))
        cell = text.splitlines()[1]
        assert cell == "%.17g" % value
        assert float(cell) == value

    def test_round_trip_parse(self):
        rows = [(0.125, -3.5e-17, 42, "slab"), (math.pi, 2.0, 0, "x,y")]
        text, _ = emit_report(rows, ("a", "b", "c", "d"))
        back = list(csv.reader(io.StringIO(text)))
        assert back[0] == ["a", "b", "c", "d"]
        for row, parsed in zip(rows, back[1:]):
            assert float(parsed[0]) == row[0]
            assert float(parsed[1]) == row[1]
            assert int(parsed[2]) == row[2]
            assert parsed[3] == row[3]

    def test_rfc4180_quoting_and_line_endings(self):
        text, _ = emit_report([("a,b", 1)], ("name", "n"))
        assert '"a,b"' in text
        assert "\r" not in text
        assert text.endswith("\n")

    def test_schema_mismatch_raises(self):
        with pytest.raises(CliError, match="schema"):
            emit_report([(1, 2, 3)], ("a", "b"))


class TestEmitSvg:
    def test_empty_region_is_valid_svg(self):
        text = emit_svg(Region2([]))
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "<g" in text and "<path" not in text

    def test_one_path_per_polygon(self):
        region = build_perron_tree(PerronSpec.default(4)).region
        text = emit_svg(region)
        assert text.count("<path") == len(region.polygons)

    def test_deterministic(self):
        region = build_perron_tree(PerronSpec.default(3)).region
        assert emit_svg(region) == emit_svg(region)

    def test_heatmap_rects(self):
        arr = np.zeros((4, 4))
        arr[1, 2] = 2.0
        arr[3, 0] = 1.0
        text = emit_svg(arr)
        # background plus one rect per positive cell
        assert text.count("<rect") == 3
        assert 'fill-opacity="1.0000"' in text
        assert 'fill-opacity="0.5000"' in text

    def test_heatmap_rejects_wrong_rank(self):
        with pytest.raises(CliError, match="2d"):
            emit_svg(np.zeros(5))


class TestFieldFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        field = GridField(2, 32, 4.0, data)
        path = tmp_path / "f.bin"
        write_field(str(path), field)
        back = read_field(str(path))
        assert back.dim == 2 and back.N == 32 and back.L == 4.0
        assert np.array_equal(back.data, field.data)

    def test_read_and_write_hold_the_field_once(self, tmp_path):
        # the write sends the array's own buffer; the read fills one array
        n = 512
        size = 16 * n * n
        field = GridField(2, n, 1.0, np.full((n, n), 1 + 2j))
        path = tmp_path / "f.bin"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_field(str(path), field)
            write_extra = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            back = read_field(str(path))
            read_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert write_extra < size / 8
        assert size <= read_peak < size * 9 / 8
        assert np.array_equal(back.data, field.data)

    def test_header_is_32_bytes(self, tmp_path):
        field = GridField(1, 8, 1.0, np.zeros(8, dtype=complex))
        path = tmp_path / "f.bin"
        write_field(str(path), field)
        assert path.stat().st_size == 32 + 16 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"NOTAFILE" + bytes(24) + bytes(16 * 8))
        with pytest.raises(CliError, match="magic"):
            read_field(str(path))

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"short")
        with pytest.raises(CliError, match="truncated"):
            read_field(str(path))

    def test_wrong_payload_size_rejected(self, tmp_path):
        field = GridField(1, 8, 1.0, np.zeros(8, dtype=complex))
        path = tmp_path / "f.bin"
        write_field(str(path), field)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CliError, match="bytes"):
            read_field(str(path))

    def test_multiplier_subcommand_matches_library(self, tmp_path):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        field = GridField(2, 64, 8.0, data)
        src, dst = tmp_path / "f.bin", tmp_path / "g.bin"
        write_field(str(src), field)
        code = dispatch(["multiplier", "--kind", "ball", "--R", "2.5",
                         "--in", str(src), "--out", str(dst), "--check"])
        assert code == 0
        want = apply_multiplier(field, MultiplierSpec.ball(2.5))
        assert np.array_equal(read_field(str(dst)).data, want.data)

    def test_square_multiplier_matches_library(self, tmp_path):
        rng = np.random.default_rng(9)
        field = GridField(2, 32, 4.0, rng.standard_normal((32, 32)) + 0j)
        src, dst = tmp_path / "f.bin", tmp_path / "g.bin"
        write_field(str(src), field)
        assert dispatch(["multiplier", "--kind", "square", "--R", "1.5",
                         "--in", str(src), "--out", str(dst), "--check"]) == 0
        want = apply_multiplier(field, MultiplierSpec.square(1.5))
        assert np.array_equal(read_field(str(dst)).data, want.data)


class TestParseDeltas:
    def test_dyadic_range(self):
        assert parse_deltas("2^-3..2^-5") == [0.125, 0.0625, 0.03125]

    def test_comma_floats(self):
        assert parse_deltas("0.5,0.25,0.125,0.0625") == [0.5, 0.25, 0.125, 0.0625]

    def test_rejects_garbage(self):
        for text in ("", "2^-5..2^-3", "3^-1..3^-4", "a,b"):
            with pytest.raises(CliError):
                parse_deltas(text)


class TestDimInputs:
    def test_reads_tree_json(self, tmp_path):
        tree_path = tmp_path / "t.json"
        assert dispatch(["perron", "--m", "4", "--out", str(tree_path)]) == 0
        out = tmp_path / "d.csv"
        code = dispatch(["dim", "--in", str(tree_path),
                         "--deltas", "2^-3..2^-6", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "delta,volume,ratio"
        assert len(rows) == 5

    def test_prints_the_scales_the_fit_used(self, tmp_path, capsys):
        # The fit drops one scale at each end: of 2^-3..2^-6 it uses
        # 2^-4 and 2^-5, and says so.
        tree_path = tmp_path / "t.json"
        assert dispatch(["perron", "--m", "4", "--out", str(tree_path)]) == 0
        capsys.readouterr()
        assert dispatch(["dim", "--in", str(tree_path), "--deltas", "2^-3..2^-6",
                         "--out", str(tmp_path / "d.csv")]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^dimension \d\.\d{3} over deltas \[0\.0625, 0\.03125\], ",
                         out, re.M)

    def test_manifest_records_the_estimate(self, tmp_path):
        tree_path, out = tmp_path / "t.json", tmp_path / "d.csv"
        assert dispatch(["perron", "--m", "4", "--out", str(tree_path)]) == 0
        assert dispatch(["dim", "--in", str(tree_path), "--deltas", "2^-3..2^-6",
                         "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        curve = neighborhood_volume_curve(tree_from_json(tree_path.read_text()).region,
                                          [2.0 ** -k for k in range(3, 7)])
        est = minkowski_estimate(curve, 2)
        assert manifest["estimate"] == {
            "dimension": est.dimension, "residual": est.residual,
            "delta_range": [0.0625, 0.03125], "local_slopes": list(est.local_slopes),
            "uncertainty": est.uncertainty}
        assert "estimate" not in json.loads(
            (tmp_path / "t.json.manifest.json").read_text())

    def test_reads_family_json(self, tmp_path):
        fam_path = tmp_path / "fam.json"
        assert dispatch(["tubes", "gen", "--delta", "0.125", "--placement",
                         "bush", "--out", str(fam_path)]) == 0
        out = tmp_path / "d.csv"
        code = dispatch(["dim", "--in", str(fam_path),
                         "--deltas", "2^-2..2^-5", "--out", str(out)])
        assert code == 0

    def test_rejects_unknown_json(self, tmp_path):
        src = tmp_path / "x.json"
        src.write_text('{"what": 1}')
        assert dispatch(["dim", "--in", str(src), "--deltas", "2^-3..2^-6",
                         "--out", str(tmp_path / "d.csv")]) == 2


class TestTubesReport:
    def test_analyze_schema_and_verdicts(self, tmp_path):
        out = tmp_path / "r.csv"
        code = dispatch(["tubes", "analyze", "--delta", "0.03125",
                         "--placement", "parallel-lines",
                         "--checks", "wolff", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert set(rows[0]) == {"check", "scale", "statistic", "value",
                                "threshold", "verdict"}
        by_stat = {r["statistic"]: r for r in rows}
        # the slab packs delta^-2 tubes into a prism of volume ~ 2 delta
        assert by_stat["max_prism_ratio"]["verdict"] == "fail"
        assert float(by_stat["slab_ratio"]["value"]) > 10.0

    def test_unknown_check_name(self, tmp_path):
        assert dispatch(["tubes", "analyze", "--delta", "0.125",
                         "--checks", "bogus",
                         "--out", str(tmp_path / "r.csv")]) == 2

    def test_wolff_on_planar_family_rejected(self, tmp_path):
        assert dispatch(["tubes", "analyze", "--delta", "0.125",
                         "--placement", "bush", "--checks", "wolff",
                         "--out", str(tmp_path / "r.csv")]) == 2


class TestTubesPaths:
    def test_grid_volume(self, tmp_path):
        out = tmp_path / "r.csv"
        assert dispatch(["tubes", "analyze", "--delta", "0.125", "--checks", "volume",
                         "--method", "grid", "--grid-res", "32", "--out", str(out)]) == 0
        rows = {r["statistic"]: r for r in csv.DictReader(io.StringIO(out.read_text()))}
        want = union_volume(generate_family(0.125, 2, "bush"), method="grid", resolution=32)
        assert float(rows["union_volume"]["value"]) == want.value
        assert float(rows["std_error"]["value"]) == want.std_error > 0

    def test_perron_base_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert dispatch(["tubes", "gen", "--delta", "0.0625",
                             "--placement", "perron-base", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        fam = family_from_json(a.read_text())
        assert fam.placement_tag == "perron-base"
        assert len(fam) == len(generate_directions(0.0625, 2))

    def test_three_dimensional_family(self, tmp_path):
        out = tmp_path / "f.json"
        assert dispatch(["tubes", "gen", "--dim", "3", "--delta", "0.25",
                         "--placement", "random", "--seed", "3", "--out", str(out)]) == 0
        fam = family_from_json(out.read_text())
        assert fam.dim == 3
        assert len(fam) == len(generate_directions(0.25, 3))
        assert (np.sum(fam.anchors ** 2, axis=1) <= 1.0).all() and (fam.omegas[:, 2] >= 0.0).all()


def test_module_entry_point_runs_quietly():
    # python -m kakeyalab.cli must not re-import an already imported
    # kakeyalab.cli.main (runpy warns when that happens)
    env = {**os.environ, "PYTHONPATH": str(Path(kakeyalab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "kakeyalab.cli", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == f"kakeyalab {kakeyalab.__version__}\n"
