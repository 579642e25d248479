"""Exit codes, output formats, and error reporting of the CLI."""

import argparse
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import toricgit
from oracles import _max_neighborly
from toricgit import cli, lp, vgit
from toricgit.checks import PRODUCT_PAIRS
from toricgit.cli import main
from toricgit.fans import (
    blowup_pn_along_linear,
    fan_from_json,
    fan_to_json,
    product_fan,
    projective_space_fan,
)
from toricgit.vgit import _chamber_keys

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

    def test_deeply_nested_json_exits_two(self, write, capsys):
        # json.load recurses once per array; past the recursion limit it
        # raises RecursionError, which must not leak as a traceback
        path = write("[" * 100_000 + "]" * 100_000, "deep.json")
        code, _, err = run(["validate", path], capsys)
        assert code == 2
        assert "nests too deeply" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize(
        "case", ["ray entry", "divisor coefficient", "ray dimension", "cone index"]
    )
    def test_oversized_entry_is_not_echoed_in_full(self, case, p2_file, write, capsys):
        # an entry, ray or cone that an error message names is cut to a
        # prefix, so a megabyte of bad input gives one short line on
        # stderr, not megabytes
        big = "x" * 1_000_000
        fan, div = p2_file, None
        if case == "ray entry":
            fan = write({"dim": 2, "rays": [[big, 0]], "max_cones": [[0]]}, "f.json")
            said = "ray entry must be an integer, got '" + "x" * 99 + "..."
        elif case == "divisor coefficient":
            div = write({"coefficients": [big, 0, 0]}, "d.json")
            said = "divisor coefficient must be an integer, got '" + "x" * 99 + "..."
        elif case == "ray dimension":
            fan = write({"dim": 1, "rays": [[1] * 1_000_000], "max_cones": [[0]]}, "f.json")
            said = "ray (1, 1, 1, "
        else:
            fan = write({"dim": 1, "rays": [[1], [-1]], "max_cones": [list(range(1_000_001))]}, "f.json")
            said = "cone (0, 1, 2, "
        code, out, err = run(["validate", fan] if div is None else ["sections", fan, div], capsys)
        assert code == 2 and out == ""
        assert said in err and len(err.encode()) < 1024

    @pytest.mark.parametrize("which", ["fan", "divisor"])
    def test_oversized_path_is_not_echoed_in_full(self, which, p2_file, capsys):
        # a path that cannot be opened comes back cut, after the errno
        # and its text: "[Errno 36] File name too long: 'xxx..."
        path = "x" * 100_000
        argv = ["validate", path] if which == "fan" else ["sections", p2_file, path]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno ") and err.endswith(": '" + "x" * 99 + "...\n")
        assert len(err.encode()) < 300


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

    def test_more_than_twenty_rays_exits_two(self, write, capsys):
        # A complete polygon fan on 21 rays, over the hitting-set cap.
        rays = [[1, j] for j in range(-4, 6)] + [[0, 1]]
        rays += [[-1, j] for j in range(4, -5, -1)] + [[0, -1]]
        cones = [[i, (i + 1) % len(rays)] for i in range(len(rays))]
        path = write({"dim": 2, "rays": rays, "max_cones": cones}, "polygon21.json")
        code, out, err = run(["analyze", path, "--json"], capsys)
        assert code == 2
        assert out == ""
        assert "capped at 20 variables" in err

    def test_round_trip_from_construct(self, capsys, tmp_path):
        code, out, _ = run(["construct", "blowup-linear", "4", "1"], capsys)
        assert code == 0
        path = tmp_path / "constructed.json"
        path.write_text(out)
        code, out, _ = run(["analyze", str(path), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["unstable_codim"] == 3

    def test_max_neighborly_matches_the_search(self, corpus, tmp_path, capsys):
        # The corpus, the analyze benchmark's products (all but bl4_1 x
        # bl4_1, whose analyze is slow) and (P^1)^2..(P^1)^5, the
        # half-plane fan, which is not complete, and a one-cone fan,
        # whose irrelevant ideal is the unit ideal, against the search
        # for the largest m.
        by_name = dict(corpus)
        fans = [f for _, f in corpus]
        fans += [product_fan(by_name[a], by_name[b]) for a, b in PRODUCT_PAIRS if (a, b) != ("bl4_1", "bl4_1")]
        power = by_name["p1"]
        for _ in range(4):
            power = product_fan(power, by_name["p1"])
            fans.append(power)
        fans.append(fan_from_json({"dim": 2, "rays": [[1, 0], [0, 1], [-1, 0]], "max_cones": [[0, 1], [1, 2]]}))
        fans.append(fan_from_json({"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}))
        path = tmp_path / "fan.json"
        for fan in fans:
            path.write_text(json.dumps(fan_to_json(fan)), encoding="utf-8")
            code, out, _ = run(["analyze", str(path), "--json"], capsys)
            assert code == 0
            assert json.loads(out)["max_neighborly_m"] == _max_neighborly(fan)
        assert _max_neighborly(fans[-1]) == 2  # the unit ideal: both rays span its one cone

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

    def test_p30_answers_m15_within_a_second(self, write, capsys):
        # C(31, 15) m-sets, which the complete fan's face numbers count
        # without listing; every cache is cleared, as in a fresh process
        path = write(fan_to_json(projective_space_fan(30)), "p30.json")
        for module in package_modules():
            for fn in vars(module).values():
                if hasattr(fn, "cache_clear") and getattr(fn, "__module__", None) == module.__name__:
                    fn.cache_clear()
        start = time.perf_counter()
        code, out, err = run(["neighborly", "--m", "15", path], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (0, "true\n", "")

    @pytest.mark.parametrize("argv", [["neighborly", "f.json", "--m"], ["check", "bundle", "--m-max"]], ids=" ".join)
    def test_oversized_int_option_is_not_echoed_in_full(self, argv, capsys):
        # argparse reports an invalid int value after the verb's usage;
        # the value is cut (check's usage lists its ten names, 290 B)
        value = "x" * 100_000
        with pytest.raises(SystemExit) as exc:
            main([*argv, value])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.endswith(f"error: argument {argv[-1]}: invalid int value: '" + "x" * 99 + "...\n")
        assert len(err.encode()) < (300 if argv[0] == "neighborly" else 600)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["check"], "argument name: invalid choice: '" + "x" * 99 + "... (choose from 'all', "),
            (["construct"], "argument kind: invalid choice: '" + "x" * 99 + "... (choose from 'pn', "),
            (["validate", "a.json"], "unrecognized arguments: " + "x" * 100 + "...\n"),
        ],
        ids=["check", "construct", "validate"],
    )
    def test_oversized_word_is_not_echoed_in_full(self, argv, named, capsys, monkeypatch):
        # an invalid choice and an extra word come back cut, each word
        # of argparse's message past 100 characters; check's usage and
        # choices list its ten names (474 B with the name "bogus")
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "x" * 100_000])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert named in err
        assert len(err.encode()) < (600 if argv[0] == "check" else 300)

    def test_incomplete_fan_past_the_budget_exits_two(self, write, capsys):
        # P^22 less one maximal cone takes the m-set loop, whose 11-sets
        # pass fans._NEIGHBORLY_BUDGET
        data = fan_to_json(projective_space_fan(22))
        data["max_cones"] = data["max_cones"][1:]
        path = write(data, "p22_less_one.json")
        code, out, err = run(["neighborly", "--m", "11", path], capsys)
        assert code == 2 and out == ""
        assert err == (
            "error: 11-neighborliness of a fan that is not complete needs more "
            "than 1000000 tests of 11 rays against a cone\n"
        )


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
        # still came from LP membership; the digest of the outputs in
        # corpus order was recorded before the witnesses moved out of
        # the cached chamber pass
        want = json.loads((ROOT / "tests" / "chambers_corpus.json").read_text(encoding="utf-8"))
        assert sorted(want) == sorted(name for name, _ in corpus)
        assert len(want) == 65
        digest = hashlib.sha256()
        for name, fan in corpus:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(fan_to_json(fan), sort_keys=True), encoding="utf-8")
            code, out, err = run(["chambers", str(path), "--json"], capsys)
            assert (code, out, err) == (0, want[name], ""), name
            digest.update(out.encode())
        assert digest.hexdigest() == (
            "dc6a561c3cfae02ff6effa9ffd6afa63c135c7e2dd0cf20741d6bede6d9e2022"
        )

    def test_character_report(self, f1_file, capsys):
        code, out, _ = run(["chambers", f1_file, "--char", "0,1", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["on_boundary"] is True
        assert data["facets"] == [[0, 1, 2]]

    def test_pivot_limit_in_cell_search_exits_two(self, f1_file, capsys, monkeypatch):
        def stuck(*args):
            raise lp.PivotLimit("simplex did not terminate")

        monkeypatch.setattr(lp, "_dual_simplex", stuck)
        _chamber_keys.cache_clear()  # force a fresh cell search
        code, out, err = run(["chambers", f1_file], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: simplex did not terminate\n"

    def test_cell_budget_exits_two(self, f1_file, capsys, monkeypatch):
        monkeypatch.setattr(vgit, "_TABLEAU_BUDGET", 0)
        _chamber_keys.cache_clear()  # force a fresh cell search
        try:
            code, out, err = run(["chambers", f1_file, "--json"], capsys)
        finally:
            _chamber_keys.cache_clear()
        assert code == 2
        assert out == ""
        assert err == "error: chamber cell search needs more than 0 simplex tableau entries\n"

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

    @pytest.mark.parametrize("char", ["abc", "1,2"])
    def test_bad_char_on_non_projective_fan_exits_two(self, write, capsys, char):
        # --char is parsed before the nef cone is built, so a usage
        # error is not reported as the verdict "false"
        path = write(NON_PROJECTIVE, "np.json")
        code, out, err = run(["nef", path, "--char", char], capsys)
        assert code == 2
        assert out == ""
        assert "--char" in err
        if char == "abc":
            assert "--char expects" in err


    @pytest.mark.parametrize("char", ["x" * 100_000, "1" * 100_000])
    def test_oversized_char_is_not_echoed_in_full(self, f1_file, capsys, char):
        # the message names --char and a prefix of the argument, not all
        # of it
        code, out, err = run(["nef", f1_file, "--char", char], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: --char expects comma-separated integers, got '" + char[:99] + "...")
        assert len(err.encode()) < 300


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
        # C(48, 8) points Brion's formula counts on the chamber fan
        fan = write(fan_to_json(blowup_pn_along_linear(8, 0)), "bl8_0.json")
        div = write({"coefficients": [0] * 8 + [40, 1]}, "d.json")
        code, out, _ = run(["sections", fan, div], capsys)
        assert code == 0
        assert out.strip() == "377348994"

    def test_non_nef_count_on_bl8_does_not_grow_with_the_divisor(self, write, capsys):
        # 400H + E, which the lattice walk could not finish: C(408, 8)
        fan = write(fan_to_json(blowup_pn_along_linear(8, 0)), "bl8_0.json")
        div = write({"coefficients": [0] * 8 + [400, 1]}, "d.json")
        start = time.perf_counter()
        code, out, _ = run(["sections", fan, div], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 0
        assert out.strip() == "17773458424095231"

    def test_enumeration_budget_exits_two(self, write, capsys):
        # a cone of index 200,001 holds more parallelepiped points than
        # the budget on the summed cone index allows
        k = 200_001
        fan = write({"dim": 2, "rays": [[0, 1], [k, -1], [-1, 0]],
                     "max_cones": [[0, 1], [1, 2], [0, 2]]}, "f.json")
        div = write({"coefficients": [0, 0, 1]}, "d.json")
        code, out, err = run(["sections", fan, div], capsys)
        assert code == 2
        assert out == ""
        assert "200000" in err and "budget" in err


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

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["pn", "1"], "8fa552bd04a93a2a"),
            (["pn", "3"], "284978cceb1333de"),
            (["pn", "40"], "3a81a4867b793d9c"),
            (["blowup-linear", "2", "0"], "46a8eb3c039f1d45"),
            (["blowup-linear", "4", "1"], "3a1205f7d926aad2"),
            (["blowup-linear", "7", "3"], "daae84847e46b246"),
            (["blowup-linear", "30", "12"], "99c7a7b70b617c70"),
        ],
    )
    def test_output_pinned(self, argv, digest, capsys):
        # sha256 prefixes of the output from before the size limit
        code, out, _ = run(["construct", *argv], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_oversized_integer_argument_is_not_echoed_in_full(self, capsys):
        code, out, err = run(["construct", "pn", "x" * 100_000], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: expected an integer argument, got '" + "x" * 99 + "...")
        assert len(err.encode()) < 300

    def test_oversized_construction_exits_two_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(["construct", "pn", "100000"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == (
            "error: construct would print 20000200000 ray and cone entries, "
            "past the limit of 1000000\n"
        )
        code, out, err = run(["construct", "blowup-linear", "100000", "50000"], capsys)
        assert code == 2 and out == "" and "past the limit" in err

    @pytest.mark.parametrize(
        "argv", [["pn", "5"], ["blowup-linear", "6", "0"], ["blowup-linear", "6", "2"], ["blowup-linear", "6", "4"]]
    )
    def test_limit_counts_the_printed_entries(self, argv, capsys, monkeypatch):
        # exactly the entries of the output pass the limit; one fewer refuses
        _, out, _ = run(["construct", *argv], capsys)
        data = json.loads(out)
        entries = sum(map(len, data["rays"])) + sum(map(len, data["max_cones"]))
        monkeypatch.setattr(cli, "MAX_CONSTRUCT_ENTRIES", entries)
        assert run(["construct", *argv], capsys)[1] == out
        monkeypatch.setattr(cli, "MAX_CONSTRUCT_ENTRIES", entries - 1)
        code, out, err = run(["construct", *argv], capsys)
        assert code == 2 and out == ""
        assert f"print {entries} ray and cone entries" in err

    def test_oversized_product_is_refused_before_it_is_built(self, write, capsys, monkeypatch):
        # (P^1)^8 with itself would print 16 * (32 + 65,536) entries
        f = projective_space_fan(1)
        for _ in range(7):
            f = product_fan(f, projective_space_fan(1))
        path = write(fan_to_json(f), "p1_8.json")

        def refuse(*args):
            raise AssertionError("the product was built")

        monkeypatch.setattr(cli, "product_fan", refuse)
        code, out, err = run(["construct", "product", path, path], capsys)
        assert code == 2 and out == ""
        assert err == (
            "error: construct would print 1049088 ray and cone entries, "
            "past the limit of 1000000\n"
        )

    @pytest.mark.parametrize("kind", ["product", "bundle"])
    def test_product_and_bundle_limits_count_the_printed_entries(
        self, kind, p2_file, f1_file, write, capsys, monkeypatch
    ):
        # the printed entries pass the limit; one fewer refuses before the
        # constructor runs
        if kind == "product":
            argv, constructor = ["product", p2_file, f1_file], "product_fan"
        else:
            zero = write({"coefficients": [0, 0, 0]}, "zero.json")
            argv, constructor = ["bundle", p2_file, zero, zero, zero], "projective_bundle_fan"
        _, out, _ = run(["construct", *argv], capsys)
        data = json.loads(out)
        entries = sum(map(len, data["rays"])) + sum(map(len, data["max_cones"]))
        monkeypatch.setattr(cli, "MAX_CONSTRUCT_ENTRIES", entries)
        assert run(["construct", *argv], capsys)[1] == out

        def refuse(*args):
            raise AssertionError("the fan was built")

        monkeypatch.setattr(cli, "MAX_CONSTRUCT_ENTRIES", entries - 1)
        monkeypatch.setattr(cli, constructor, refuse)
        code, out, err = run(["construct", *argv], capsys)
        assert code == 2 and out == ""
        assert f"print {entries} ray and cone entries" in err

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

    @pytest.mark.parametrize(
        "name, options, flag",
        [
            ("two-neighborly", ["--m", "7", "--m-max", "0"], "--m"),
            ("two-neighborly", ["--m-max", "0"], "--m-max"),
            ("rank-one", ["--m-max", "0"], "--m-max"),
            ("neighborly-codim", ["--m", "2", "--m-max", "3"], "--m-max"),
        ],
    )
    def test_option_the_check_does_not_read_is_an_error(
        self, p2_file, capsys, name, options, flag
    ):
        code, out, err = run(["check", name, p2_file, *options], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: check {name} does not take {flag}\n"

    def test_bundle_takes_no_m(self, p2_file, write, capsys):
        zero = write({"coefficients": [0, 0, 0]}, "zero.json")
        code, out, err = run(["check", "bundle", p2_file, zero, zero, zero, "--m", "2"], capsys)
        assert (code, out, err) == (2, "", "error: check bundle does not take --m\n")

    def test_neighborly_codim_reads_m(self, p2_file, capsys):
        # test_bundle_check_via_files runs bundle with --m-max 2
        code, out, _ = run(["check", "neighborly-codim", p2_file, "--m", "2"], capsys)
        assert code == 0 and out.startswith("PASS neighborly-codim")

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
    # forms the verb table's reader leaves to the full parser
    ["analyze", "{fan}", "--js"],
    ["chambers", "{fan}", "--char=1"],
    ["chambers", "{fan}", "--char", "-1", "--json"],
    ["analyze", "--", "{fan}"],
    ["analyze", "{fan}", "--json", "--json"],
    ["neighborly", "--m", "2", "{fan}", "--m", "3"],
    ["neighborly", "{fan}", "--m", "-1"],
    ["neighborly", "{fan}", "--m"],
    ["sections", "{fan}", "--json", "{div}"],
    ["check", "product", "a.json", "--json", "b.json"],
    ["analyze", "{fan}", "--json", "extra"],
    ["construct", "pn"],
]

# every token the property test draws argv from: verbs, option names,
# abbreviations, help, --, --opt=value, integer-looking and negative
# values, file names, check and construct names, valid and invalid
ARGV_TOKENS = [
    *cli._VERBS, "bogus",
    "--json", "--m", "--m-max", "--char", "--js", "--m-", "--ch", "--bogus",
    "-h", "--help", "--", "-", "", "--char=1,2", "--json=1",
    "2", "two", "-1", "1,0", "-1,0",
    "f.json", "g.json",
    *cli._CHECKS, "pn", "product", "blowup-linear", "bundle", "cube",
]


@st.composite
def table_argv(draw):
    """A verb with words for its positionals and some of its options, in
    any order, often with one token of ARGV_TOKENS thrown in."""
    verb = draw(st.sampled_from(list(cli._VERBS)))
    _, _, positionals, *options = cli._VERBS[verb]
    words = [draw(st.sampled_from(choices or ["f.json", "g.json"])) for _, _, choices, _ in positionals]
    if positionals[-1][3]:
        words[-1:] = draw(st.lists(st.sampled_from(["f.json", "2"]), max_size=2))
    units = [words]
    for flag, kind, *_ in options:
        if draw(st.booleans()):
            units.append([flag] if kind is bool else [flag, draw(st.sampled_from(["2", "1,0", "two", "-1"]))])
    units += draw(st.lists(st.sampled_from(ARGV_TOKENS).map(lambda token: [token]), max_size=1))
    return [verb, *(token for unit in draw(st.permutations(units)) for token in unit)]


TEXTS = ROOT / "tests" / "cli_texts.json"


def parser_outcome(argv, write, capsys):
    """("returned" or "exit", code, stdout, stderr) of main on argv, with
    {fan} and {div} written out."""
    files = {
        "{fan}": write(fan_to_json(projective_space_fan(2)), "p2.json"),
        "{div}": write({"coefficients": [0, 0, 2]}, "div.json"),
    }
    try:
        code = ["returned", main([files.get(a, a) for a in argv])]
    except SystemExit as exc:
        code = ["exit", exc.code]
    return [*code, *capsys.readouterr()]


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
    def test_one_verb_parser_matches_full_parser(self, argv, write, capsys, monkeypatch):
        plain = parser_outcome(argv, write, capsys)
        # the full parser alone, on every argv
        monkeypatch.setattr(cli, "_parse", lambda argv: None)
        assert parser_outcome(argv, write, capsys) == plain

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
    def test_texts_pinned(self, argv, write, capsys, monkeypatch):
        # exit code, stdout and stderr at 80 columns, taken from a front
        # end that ran argparse on every command line, so a change to the
        # verb table cannot move both sides as it can in the test above;
        # argparse words its help and errors differently across Python
        # versions, so the texts hold for the version they were taken on
        pinned = json.loads(TEXTS.read_text(encoding="utf-8"))
        if pinned["python"] != "%d.%d" % sys.version_info[:2]:
            pytest.skip(f"texts recorded under Python {pinned['python']}")
        monkeypatch.setenv("COLUMNS", "80")
        assert parser_outcome(argv, write, capsys) == pinned["outcomes"][" ".join(argv)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "f", "--js"],
            ["analyze", "f", "--json=1"],
            ["chambers", "f", "--char=1,0"],
            ["analyze", "--", "f"],
            ["analyze", "f", "--json", "--json"],
            ["neighborly", "f", "--m", "-1"],
            ["chambers", "f", "--char", "-1,0"],
            ["neighborly", "f", "--m", "two"],
            ["neighborly", "f", "--m"],
            ["neighborly", "f"],
            ["sections", "f", "--json", "d"],
            ["check", "product", "a", "--json", "b"],
            ["check", "cube", "a"],
            ["validate", "f", "g"],
            ["analyze", "-"],
            ["analyze", "f", "-h"],
            ["bogus", "f"],
            [],
        ],
        ids=" ".join,
    )
    def test_reader_declines(self, argv):
        assert cli._parse(argv) is None

    @pytest.mark.parametrize(
        "argv, fields",
        [
            (["analyze", "f", "--json"], {"fan": "f", "json": True}),
            (["analyze", "--json", "f"], {"fan": "f", "json": True}),
            (["neighborly", "--m", "2", "f"], {"fan": "f", "json": False, "m": 2}),
            (["chambers", "f", "--char", "1,0"], {"fan": "f", "json": False, "char": "1,0"}),
            (["construct", "pn"], {"kind": "pn", "params": []}),
            (["check", "all", "--json"], {"name": "all", "args": [], "m": None, "m_max": None, "json": True}),
            (
                ["check", "--m", "3", "product", "a", "b"],
                {"name": "product", "args": ["a", "b"], "m": 3, "m_max": None, "json": False},
            ),
        ],
    )
    def test_reader_accepts(self, argv, fields):
        args = cli._parse(argv)
        assert args.handler is cli._VERBS[argv[0]][1]
        assert {k: v for k, v in vars(args).items() if k != "handler"} == fields

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.lists(st.sampled_from(ARGV_TOKENS), max_size=6), table_argv()))
    @example(["check", "product", "a", "--json", "b"])
    @example(["check", "all", "--json", "x"])
    def test_reader_agrees_with_full_parser(self, argv):
        # whatever the table reader accepts, the full parser accepts and
        # reads the same
        args = cli._parse(list(argv))
        event("read" if args else "declined")
        if args is None:
            return
        try:
            full = cli._build_parser().parse_args(list(argv))
        except SystemExit:
            raise AssertionError(f"the reader accepts {argv}, the full parser rejects it")
        assert args.handler is full.handler
        assert {k: v for k, v in vars(full).items() if k not in ("verb", "handler")} == {
            k: v for k, v in vars(args).items() if k != "handler"
        }

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

    def test_plain_argv_builds_no_parser(self, p2_file, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for _ in range(2):
            assert main(["analyze", p2_file, "--json"]) == 0
        assert built == []
        assert json.loads(capsys.readouterr().out.splitlines()[0])["dim"] == 2
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        assert built[0] == "toricgit" and "toricgit analyze" in built

    def test_plain_argv_imports_no_argparse(self, p2_file):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        script = (
            "import sys\n"
            "from toricgit import cli\n"
            f"code = cli.main(['analyze', {p2_file!r}, '--json'])\n"
            "print(code, 'argparse' in sys.modules)\n"
            "try:\n"
            "    cli.main(['analyze', '--help'])\n"
            "except SystemExit:\n"
            "    print('argparse' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert json.loads(lines[0])["dim"] == 2
        # argparse is left out for the plain argv, and loaded for --help
        assert (lines[1], lines[-1]) == ("0 False", "True")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "toricgit.cli", "construct", "pn", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 1
