"""Command-line behavior: outputs, exit codes, file artifacts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitcut
from splitcut import Cut, cut_size, parse_instance
from splitcut.cli import main

CHORD_TEXT = "p edge 5 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\ne 5 2\n"
SPLIT_TEXT = (
    "p edge 10 19\n"
    + "".join(f"e {u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6))
    + "e 1 6\ne 1 7\ne 2 7\ne 3 7\ne 4 8\ne 5 8\ne 5 9\ne 3 10\ne 5 10\n"
)
PATH_TEXT = "p edge 3 2\ne 1 2\ne 2 3\n"


@pytest.fixture
def chord_file(tmp_path):
    path = tmp_path / "chord.col"
    path.write_text(CHORD_TEXT)
    return str(path)


@pytest.fixture
def split_file(tmp_path):
    path = tmp_path / "split.col"
    path.write_text(SPLIT_TEXT)
    return str(path)


class TestSolve:
    def test_split_instance_text_report(self, split_file, capsys):
        assert main(["solve", split_file]) == 0
        out = capsys.readouterr().out
        assert "max cut: 14" in out
        assert "n: 10" in out
        assert "m: 19" in out
        assert "subsets enumerated: 32" in out

    def test_json_report_field_order_and_integrity(self, split_file, capsys):
        assert main(["solve", split_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == [
            "instance",
            "n",
            "m",
            "algorithm",
            "size",
            "side1",
            "subsets_enumerated",
            "wall_ms",
        ]
        assert report["size"] == 14
        assert report["side1"] == sorted(report["side1"])
        g = parse_instance(SPLIT_TEXT)
        side1 = frozenset(v - 1 for v in report["side1"])
        cut = Cut(side1, frozenset(range(g.n)) - side1)
        assert cut_size(g, cut) == report["size"]

    def test_non_split_instance_falls_back_to_reduction(self, chord_file, capsys):
        assert main(["solve", chord_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["size"] == 5
        assert report["n"] == 5

    def test_force_reduction_on_split_input(self, split_file, capsys):
        assert main(["solve", split_file, "--force-reduction", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["size"] == 14

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/g.col"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_instance(self, tmp_path, capsys):
        path = tmp_path / "bad.col"
        path.write_text("p edge 2 1\ne 1 5\n")
        assert main(["solve", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_huge_vertex_count_is_refused(self, tmp_path, capsys):
        path = tmp_path / "huge.col"
        path.write_text(f"p edge {2**20 + 1} 0\n")
        assert main(["solve", str(path)]) == 2
        assert f"line 1: vertex count {2**20 + 1} exceeds" in capsys.readouterr().err


class TestDecide:
    def test_yes_and_no(self, split_file, capsys):
        assert main(["decide", split_file, "14"]) == 0
        assert capsys.readouterr().out.strip() == "yes"
        assert main(["decide", split_file, "15"]) == 1
        assert capsys.readouterr().out.strip() == "no"

    def test_non_split_input_is_an_error(self, chord_file, capsys):
        assert main(["decide", chord_file, "3"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRecognize:
    def test_split_instance(self, split_file, capsys):
        assert main(["recognize", split_file]) == 0
        out = capsys.readouterr().out
        assert "clique: 1 2 3 4 5" in out
        assert "independent: 6 7 8 9 10" in out

    def test_non_split_instance(self, chord_file, capsys):
        assert main(["recognize", chord_file]) == 1
        assert capsys.readouterr().out.strip() == "not split"


class TestReduce:
    def test_writes_image_and_sidecar(self, chord_file, tmp_path, capsys):
        out_path = str(tmp_path / "image.col")
        assert main(["reduce", chord_file, "-o", out_path]) == 0
        image = parse_instance((tmp_path / "image.col").read_text())
        assert image.n == 9
        assert image.m == 18
        map_lines = (tmp_path / "image.col.map").read_text().splitlines()
        assert map_lines == ["a 6 1 3", "a 7 1 4", "a 8 2 4", "a 9 3 5"]

    def test_solving_the_image_shifts_by_twice_the_nonedges(
        self, chord_file, tmp_path, capsys
    ):
        out_path = str(tmp_path / "image.col")
        main(["reduce", chord_file, "-o", out_path])
        capsys.readouterr()
        assert main(["solve", out_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["size"] == 13


class TestOracle:
    def test_matches_solver(self, split_file, capsys):
        assert main(["oracle", split_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["algorithm"] == "oracle"
        assert report["size"] == 14

    def test_cap_violation(self, tmp_path, capsys):
        path = tmp_path / "big.col"
        path.write_text("p edge 25 0\n")
        assert main(["oracle", str(path)]) == 2
        assert "cap" in capsys.readouterr().err
        assert main(["oracle", str(path), "--cap", "25"]) == 0


class TestGenerate:
    def test_writes_parseable_split_instance(self, tmp_path, capsys):
        out_path = str(tmp_path / "gen.col")
        args = [
            "generate", "--clique", "5", "--is", "5",
            "--prob", "0.4", "--seed", "1", "-o", out_path,
        ]
        assert main(args) == 0
        g = parse_instance((tmp_path / "gen.col").read_text())
        assert g.n == 10
        assert main(["recognize", out_path]) == 0


class TestBench:
    def test_csv_schema_and_exact_subset_column(self, capsys):
        assert main(["bench", "--min-t", "3", "--max-t", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,n,subsets,size,millis"
        assert len(lines) == 4
        for line, t in zip(lines[1:], range(3, 6)):
            fields = line.split(",")
            assert int(fields[0]) == t
            assert int(fields[1]) == 2 * t
            assert int(fields[2]) == 2**t
            assert int(fields[3]) > 0
            float(fields[4])

    def test_no_balanced_instance_is_an_error(self, capsys):
        assert main(["bench", "--min-t", "2", "--max-t", "3", "--prob", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no balanced instance found for t=2")


class TestArgumentErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag(self, chord_file):
        with pytest.raises(SystemExit) as err:
            main(["solve", chord_file, "--fast"])
        assert err.value.code == 2


class TestModuleEntry:
    def test_python_dash_m_help(self):
        # The child must import the same splitcut as this process.
        src = str(Path(splitcut.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-m", "splitcut", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: splitcut")
