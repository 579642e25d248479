"""Exit codes, output formats, and error reporting of the CLI."""

import argparse
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import toricgit
from toricgit import cli, lp
from toricgit.cli import main
from toricgit.fans import (
    blowup_pn_along_linear,
    fan_from_json,
    fan_to_json,
    product_fan,
    projective_space_fan,
)
from toricgit.vgit import _class_membership, _enumerate_cells, enumerate_chambers
from toricgit.vgit import unstable_supports

ROOT = Path(__file__).resolve().parents[1]

NON_PROJECTIVE = {
    "dim": 3,
    "rays": [
        [-1, -1, -1], [-1, -1, 1], [-1, 1, -1], [-1, 1, 1],
        [1, -1, -1], [1, -1, 1], [1, 1, -1], [1, 2, 3],
    ],
    "max_cones": [
        [0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 4, 5],
        [1, 2, 3], [1, 3, 5], [2, 3, 6], [2, 4, 6],
        [3, 5, 7], [3, 6, 7], [4, 5, 7], [4, 6, 7],
    ],
}


@pytest.fixture()
def write(tmp_path):
    def _write(payload, name):
        path = tmp_path / name
        if not isinstance(payload, str):
            payload = json.dumps(payload)
        path.write_text(payload)
        return str(path)

    return _write


@pytest.fixture()
def p2_file(write):
    return write(fan_to_json(projective_space_fan(2)), "p2.json")


@pytest.fixture()
def f1_file(write):
    return write(fan_to_json(blowup_pn_along_linear(2, 0)), "f1.json")


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def package_modules():
    return [
        importlib.import_module(f"toricgit.{m.name}")
        for m in pkgutil.iter_modules(toricgit.__path__)
    ]


class TestValidate:
    def test_text_output(self, p2_file, capsys):
        code, out, _ = run(["validate", p2_file], capsys)
        assert code == 0
        assert "projective: true" in out

    def test_json_output(self, p2_file, capsys):
        code, out, _ = run(["validate", p2_file, "--json"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "complete": True,
            "projective": True,
            "simplicial": True,
            "smooth": True,
        }

    def test_malformed_json_reports_position(self, write, capsys):
        path = write('{"dim": 2,\n "rays": [[1,0]', "bad.json")
        code, _, err = run(["validate", path], capsys)
        assert code == 2
        assert "line" in err and "column" in err

    def test_non_simplicial_cone_named(self, write, capsys):
        path = write(
            {
                "dim": 2,
                "rays": [[1, 0], [-1, 0], [0, 1]],
                "max_cones": [[0, 1], [0, 2], [1, 2]],
            },
            "nonsimp.json",
        )
        code, _, err = run(["validate", path], capsys)
        assert code == 2
        assert "simplicial" in err
        assert "(0, 1)" in err

    def test_missing_file(self, capsys):
        code, _, err = run(["validate", "/nonexistent/fan.json"], capsys)
        assert code == 2
        assert "error" in err


class TestAnalyze:
    def test_f1_report(self, f1_file, capsys):
        code, out, _ = run(["analyze", f1_file, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["unstable_codim"] == 2
        assert data["max_neighborly_m"] == 1
        assert data["small_unstable_locus"] is False
        assert data["class_group"]["free_rank"] == 2
        assert data["ample_character"] == [2, -1]

    def test_incomplete_fan_has_no_class_group(self, write, capsys):
        path = write(
            {"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]},
            "affine.json",
        )
        code, out, _ = run(["analyze", path, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["validation"]["complete"] is False
        assert data["class_group"] is None

    def test_round_trip_from_construct(self, capsys, tmp_path):
        code, out, _ = run(["construct", "blowup-linear", "4", "1"], capsys)
        assert code == 0
        path = tmp_path / "constructed.json"
        path.write_text(out)
        code, out, _ = run(["analyze", str(path), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["unstable_codim"] == 3

    def test_json_matches_certified_reference(self, tmp_path, capsys):
        # Every fan of the analyze benchmark, with every cache cleared
        # first as in a fresh process, byte for byte.
        reference = json.loads(
            (ROOT / "bench" / "reference" / "analyze_json.json").read_text(encoding="utf-8")
        )
        assert len(reference) == 158
        caches = [
            fn
            for module in package_modules()
            for fn in vars(module).values()
            if hasattr(fn, "cache_clear") and getattr(fn, "__module__", None) == module.__name__
        ]
        for i, entry in enumerate(reference.values()):
            path = tmp_path / f"fan{i}.json"
            path.write_text(json.dumps(entry["fan"], sort_keys=True), encoding="utf-8")
            for fn in caches:
                fn.cache_clear()
            got = run(["analyze", str(path), "--json"], capsys)
            want = entry["output"]
            assert got == (want["rc"], want["stdout"], want["stderr"])


class TestNeighborly:
    def test_true_exit_zero(self, write, capsys):
        path = write(fan_to_json(blowup_pn_along_linear(4, 1)), "bl.json")
        code, out, _ = run(["neighborly", "--m", "2", path], capsys)
        assert code == 0
        assert out.strip() == "true"

    def test_false_exit_one(self, f1_file, capsys):
        code, out, _ = run(["neighborly", "--m", "2", f1_file], capsys)
        assert code == 1
        assert out.strip() == "false"

    def test_bad_m(self, f1_file, capsys):
        code, _, err = run(["neighborly", "--m", "0", f1_file], capsys)
        assert code == 2


class TestChambers:
    def test_f1_lists_two(self, f1_file, capsys):
        code, out, _ = run(["chambers", f1_file, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data) == 2
        assert data[0]["facets"] == [[0, 1], [2, 3]]
        assert data[0]["codim"] == 2
        assert data[1] == {
            "interior_point": [1, 1],
            "facets": [[0, 1, 2], [3]],
            "codim": 1,
        }

    def test_json_pinned_on_corpus(self, corpus, tmp_path, capsys):
        # byte for byte the output recorded when every chamber signature
        # still came from LP membership
        want = json.loads((ROOT / "tests" / "chambers_corpus.json").read_text(encoding="utf-8"))
        assert sorted(want) == sorted(name for name, _ in corpus)
        assert len(want) == 65
        for name, fan in corpus:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(fan_to_json(fan), sort_keys=True), encoding="utf-8")
            assert run(["chambers", str(path), "--json"], capsys) == (0, want[name], ""), name

    def test_character_report(self, f1_file, capsys):
        code, out, _ = run(["chambers", f1_file, "--char", "0,1", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["on_boundary"] is True
        assert data["facets"] == [[0, 1, 2]]

    def test_pivot_limit_exits_two(self, p2_file, capsys, monkeypatch):
        def stuck(*args):
            raise lp.PivotLimit("simplex did not terminate")

        monkeypatch.setattr(lp, "_simplex_core", stuck)
        unstable_supports.cache_clear()  # force a fresh LP
        _class_membership.cache_clear()
        code, out, err = run(["chambers", p2_file, "--char", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: simplex did not terminate\n"

    def test_pivot_limit_in_cell_search_exits_two(self, f1_file, capsys, monkeypatch):
        def stuck(*args):
            raise lp.PivotLimit("simplex did not terminate")

        monkeypatch.setattr(lp, "_dual_simplex", stuck)
        enumerate_chambers.cache_clear()  # force a fresh cell search
        _enumerate_cells.cache_clear()
        code, out, err = run(["chambers", f1_file], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: simplex did not terminate\n"

    def test_character_arity_checked(self, f1_file, capsys):
        code, _, err = run(["chambers", f1_file, "--char", "1"], capsys)
        assert code == 2
        assert "coordinates" in err

    def test_incomplete_fan_rejected(self, write, capsys):
        path = write(
            {"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]},
            "affine.json",
        )
        code, _, err = run(["chambers", path], capsys)
        assert code == 2
        assert "complete" in err


class TestNef:
    def test_generators(self, f1_file, capsys):
        code, out, _ = run(["nef", f1_file, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["generators"] == [[1, -1], [1, 0]]
        assert data["ample_character"] == [2, -1]

    def test_membership_true(self, f1_file, capsys):
        code, out, _ = run(["nef", f1_file, "--char", "1,0"], capsys)
        assert code == 0
        assert out.strip() == "true"

    def test_membership_false(self, f1_file, capsys):
        code, out, _ = run(["nef", f1_file, "--char", "0,1"], capsys)
        assert code == 1
        assert out.strip() == "false"

    def test_non_projective_exit_one(self, write, capsys):
        path = write(NON_PROJECTIVE, "np.json")
        code, out, _ = run(["nef", path], capsys)
        assert code == 1
        assert "not projective" in out


class TestSections:
    def test_count(self, p2_file, write, capsys):
        div = write({"coefficients": [1, 1, 1]}, "d.json")
        code, out, _ = run(["sections", p2_file, div], capsys)
        assert code == 0
        assert out.strip() == "10"

    def test_wrong_length_divisor(self, p2_file, write, capsys):
        div = write({"coefficients": [1, 1]}, "d.json")
        code, _, err = run(["sections", p2_file, div], capsys)
        assert code == 2
        assert "coefficients" in err

    def test_large_nef_count_on_p8(self, write, capsys):
        # h^0(P^8, O(40)) = C(48, 8): Brion's formula, no enumeration
        fan = write(fan_to_json(projective_space_fan(8)), "p8.json")
        div = write({"coefficients": [0] * 8 + [40]}, "d.json")
        code, out, _ = run(["sections", fan, div], capsys)
        assert code == 0
        assert out.strip() == "377348994"

    def test_memoized_walk_counts_non_nef_on_bl8(self, write, capsys):
        # 40 on the far ray and 1 on the exceptional ray of Bl_pt P^8 is
        # not nef; its polytope is 40 times the standard simplex, whose
        # C(48, 8) points the memoized walk counts in a few thousand steps
        fan = write(fan_to_json(blowup_pn_along_linear(8, 0)), "bl8_0.json")
        div = write({"coefficients": [0] * 8 + [40, 1]}, "d.json")
        code, out, _ = run(["sections", fan, div], capsys)
        assert code == 0
        assert out.strip() == "377348994"

    def test_enumeration_budget_exits_two(self, write, capsys):
        # 400H + E on Bl_pt P^8: even memoized, the walk needs more steps
        # than the budget allows
        fan = write(fan_to_json(blowup_pn_along_linear(8, 0)), "bl8_0.json")
        div = write({"coefficients": [0] * 8 + [400, 1]}, "d.json")
        code, out, err = run(["sections", fan, div], capsys)
        assert code == 2
        assert out == ""
        assert "enumeration steps" in err


class TestConstruct:
    def test_pn_round_trips(self, capsys):
        code, out, _ = run(["construct", "pn", "2"], capsys)
        assert code == 0
        assert fan_from_json(json.loads(out)) == projective_space_fan(2)

    def test_prints_fan_json_without_a_flag(self, capsys):
        code, out, _ = run(["construct", "pn", "1"], capsys)
        assert code == 0
        assert json.loads(out) == fan_to_json(projective_space_fan(1))
        with pytest.raises(SystemExit) as exc:
            main(["construct", "pn", "1", "--json"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_byte_deterministic(self, capsys):
        _, out1, _ = run(["construct", "blowup-linear", "4", "1"], capsys)
        _, out2, _ = run(["construct", "blowup-linear", "4", "1"], capsys)
        assert out1 == out2

    def test_product_concatenates_ray_blocks(self, p2_file, f1_file, capsys):
        code, out, _ = run(["construct", "product", p2_file, f1_file], capsys)
        assert code == 0
        fan = fan_from_json(json.loads(out))
        expected = product_fan(projective_space_fan(2), blowup_pn_along_linear(2, 0))
        assert fan == expected

    def test_bundle(self, p2_file, write, capsys):
        zero = write({"coefficients": [0, 0, 0]}, "zero.json")
        code, out, _ = run(["construct", "bundle", p2_file, zero, zero], capsys)
        assert code == 0
        fan = fan_from_json(json.loads(out))
        assert fan.dim == 3
        assert fan.n_rays == 5

    def test_bad_params(self, capsys):
        code, _, err = run(["construct", "pn", "0"], capsys)
        assert code == 2
        code, _, err = run(["construct", "blowup-linear", "4"], capsys)
        assert code == 2
        code, _, err = run(["construct", "pn", "two"], capsys)
        assert code == 2
        assert "integer" in err


class TestCheck:
    def test_single_pass(self, write, capsys):
        path = write(fan_to_json(blowup_pn_along_linear(4, 1)), "bl.json")
        code, out, _ = run(["check", "two-neighborly", path], capsys)
        assert code == 0
        assert out.startswith("PASS two-neighborly-equivalence")

    def test_failed_check_exits_one_with_witness(self, write, capsys):
        fan = product_fan(projective_space_fan(1), projective_space_fan(3))
        path = write(fan_to_json(fan), "p1xp3.json")
        code, out, _ = run(["check", "small-unstable-locus", path], capsys)
        assert code == 1
        assert out.startswith("FAIL small-unstable-locus")
        assert "unstable_codim" in out

    def test_neighborly_codim_needs_m(self, p2_file, capsys):
        code, _, err = run(["check", "neighborly-codim", p2_file], capsys)
        assert code == 2
        code, out, _ = run(["check", "neighborly-codim", p2_file, "--m", "3"], capsys)
        assert code == 0

    def test_moving_vs_nef_prints_codim(self, capsys):
        code, out, _ = run(["check", "moving-vs-nef"], capsys)
        assert code == 0
        assert "PASS moving-vs-nef" in out
        assert '"stable_base_locus_codim": 3' in out

    def test_bundle_check_via_files(self, write, capsys):
        base = blowup_pn_along_linear(4, 1)
        base_file = write(fan_to_json(base), "base.json")
        n = base.n_rays
        e = write({"coefficients": [int(i == n - 1) for i in range(n)]}, "e.json")
        h = write({"coefficients": [int(i == n - 2) for i in range(n)]}, "h.json")
        code, out, _ = run(
            ["check", "bundle", base_file, e, h, h, "--m-max", "2"], capsys
        )
        assert code == 0
        assert "PASS bundle-unstable-locus" in out

    @pytest.mark.parametrize("m_max", ["0", "-3"])
    def test_bundle_check_without_a_scaling_is_an_error(
        self, p2_file, write, capsys, m_max
    ):
        # Trying no scaling at all decides nothing, so it must not exit 1.
        zero = write({"coefficients": [0, 0, 0]}, "zero.json")
        code, out, err = run(
            ["check", "bundle", p2_file, zero, zero, zero, "--m-max", m_max], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "m_max" in err

    def test_product_check_via_files(self, p2_file, capsys):
        code, out, _ = run(["check", "product", p2_file, p2_file], capsys)
        assert code == 0

    def test_missing_files_rejected(self, capsys):
        code, _, err = run(["check", "rank-one"], capsys)
        assert code == 2
        assert "needs input files" in err

    @pytest.mark.parametrize(
        "name, n_files, count",
        [
            ("two-neighborly", 2, "1 fan file, got 2"),
            ("quotient-properties", 3, "1 fan file, got 3"),
            ("product", 3, "2 fan files, got 3"),
            ("product", 1, "2 fan files, got 1"),
            ("all", 1, "no fan files, got 1"),
            ("moving-vs-nef", 1, "no fan files, got 1"),
        ],
    )
    def test_file_count_must_match(self, p2_file, capsys, name, n_files, count):
        # a surplus file must not be dropped silently with a PASS
        code, out, err = run(["check", name] + [p2_file] * n_files, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: check {name} takes {count}\n"

    def test_unknown_name_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "no-such-check"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_check_all_json(self, capsys):
        code, out, _ = run(["check", "all", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data) == 476
        assert all(entry["passed"] for entry in data)
        # byte for byte the certified reference, also with asserts stripped
        reference = (ROOT / "bench" / "reference" / "check_all.json").read_text(encoding="utf-8")
        assert out == reference
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "toricgit.cli", "check", "all", "--json"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == reference


# {fan} and {div} stand for a P^2 fan file and a divisor file on it
PARSER_ARGVS = [
    ["validate", "{fan}"],
    ["validate", "{fan}", "--json"],
    ["analyze", "{fan}"],
    ["analyze", "{fan}", "--json"],
    ["neighborly", "{fan}", "--m", "2"],
    ["chambers", "{fan}", "--char", "1", "--json"],
    ["nef", "{fan}"],
    ["sections", "{fan}", "{div}", "--json"],
    ["construct", "pn", "2"],
    ["check", "two-neighborly", "{fan}", "--json"],
    *([verb, "--help"] for verb in cli._VERBS),
    ["analyze"],
    ["sections", "{fan}"],
    ["neighborly", "{fan}"],
    ["construct"],
    ["check"],
    ["check", "no-such-check"],
    ["construct", "cube", "2"],
    ["neighborly", "{fan}", "--m", "two"],
    ["analyze", "f.json", "--bogus"],
    ["validate", "f.json", "g.json"],
    ["check", "all", "x", "--json"],
    [],
    ["--help"],
    ["-h"],
    ["bogus"],
    ["--json", "analyze", "f.json"],
]


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
    def test_one_verb_parser_matches_full_parser(self, argv, write, capsys, monkeypatch):
        files = {
            "{fan}": write(fan_to_json(projective_space_fan(2)), "p2.json"),
            "{div}": write({"coefficients": [0, 0, 2]}, "div.json"),
        }
        argv = [files.get(a, a) for a in argv]

        def outcome():
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            return (code, *capsys.readouterr())

        pruned = outcome()
        full = cli._build_parser(None)
        monkeypatch.setattr(cli, "_build_parser", lambda verb=None: full)
        assert outcome() == pruned

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "error: the following arguments are required: verb\n"),
            (["bogus"], "error: argument verb: invalid choice: 'bogus'"),
        ],
        ids=["no verb", "unknown verb"],
    )
    def test_full_parser_names_the_verb_argument(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_verb_parser_holds_one_verb(self):
        parser = cli._build_parser("analyze")
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == ["analyze"]


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "toricgit.cli", "construct", "pn", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 1
