import argparse
import csv
import hashlib
import io
import json
import os
import stat
import time
from pathlib import Path

import numpy as np
import pytest

from specball import cli, flows, kernelgrowth, liegen
from specball.flows import matrix_from_json, matrix_to_json


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_tables_matches_golden(capsys):
    code, out = run(capsys, ["tables", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["config"]["command"] == "tables"
    assert payload["golden_match"] is True


def test_tables_n2_emits_three_generators(capsys):
    code, out = run(capsys, ["tables", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["golden_match"] is None
    assert len(payload["tables"]["generators"]) == 3


def test_tables_n10_uses_bracketed_syntax(capsys):
    code, out = run(capsys, ["tables", "--n", "10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["tables"]["variables"][0] == "x[1,1]"


@pytest.mark.parametrize("argv", [
    ["kernels", "--n", "2", "--field", "xi1", "--m", "0..2", "--format", "text"],
    ["tables", "--n", "2", "--format", "csv"],
    ["generate", "--n", "2", "--max-degree", "1", "--seed", "3"],
])
def test_unread_output_options_are_usage_errors(capsys, argv):
    # --format exists only on tables and verify (json or text), --seed only on verify
    code, out = run(capsys, argv)
    assert code == 2
    assert out == ""


def test_tables_text_format(capsys):
    code, out = run(capsys, ["tables", "--n", "3", "--format", "text"])
    assert code == 0
    assert out.startswith("generator fields (n=3)")
    assert "golden_match: True" in out


def test_verify_all(capsys):
    code, out = run(capsys, ["verify", "--all", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert all(r["holds"] for r in payload["identities"])


def test_verify_report_matches_recorded(capsys):
    # every field of the --all report at seed 0, forms and notes included
    with open(Path(__file__).parent / "data" / "verify_all_seed0.json") as fh:
        recorded = json.load(fh)
    for n in ("2", "3"):
        code, out = run(capsys, ["verify", "--all", "--n", n, "--seed", "0"])
        assert code == 0
        assert json.loads(out) == recorded[n]


def test_verify_single_id(capsys):
    code, out = run(capsys, ["verify", "--id", "d2-hyperbolic", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    (res,) = payload["identities"]
    assert res["holds"] and not res["matches_printed"]


def test_verify_unknown_id_is_usage_error(capsys):
    code, _ = run(capsys, ["verify", "--id", "not-a-thing", "--n", "2"])
    assert code == 2


@pytest.mark.parametrize("n", ["1", "0", "-1"])
def test_verify_small_n_is_usage_error(capsys, n):
    # every identity needs a Theta generator: each id, and --all, stops
    # before any instance is built, naming n
    from specball.liegen import identity_names
    for selector in [["--all"]] + [["--id", name] for name in identity_names()]:
        code = cli.main(["verify", *selector, "--n", n])
        captured = capsys.readouterr()
        assert code == 2, selector
        assert captured.out == ""
        assert f"needs n >= 2, got n={n}" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("n", ["1", "0", "-1"])
@pytest.mark.parametrize("command", [["kernels", "--m", "0..2"], ["growth", "--m", "0..2"]])
def test_field_small_n_is_usage_error(capsys, command, n):
    # a field needs a generator: the message names n, not an empty list
    code = cli.main([*command, "--field", "xi1", "--n", n])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"needs n >= 2, got n={n}" in captured.err
    assert "Traceback" not in captured.err


def test_verify_text_format(capsys):
    code, out = run(capsys, ["verify", "--id", "d2-hyperbolic", "--n", "2", "--format", "text"])
    assert code == 0
    assert out == "d2-hyperbolic: pass (matches_printed=False)\n"


def test_tables_golden_mismatch_is_verification_failure(capsys, monkeypatch):
    golden = cli._golden_tables()
    golden["action"][0][0] = "x11"
    monkeypatch.setattr(cli, "_golden_tables", lambda: golden)
    code, out = run(capsys, ["tables", "--n", "3"])
    assert code == 5
    assert json.loads(out)["golden_match"] is False


def test_tables_golden_match_is_structural(capsys, monkeypatch):
    # a reference that differs from the report only in order still matches:
    # the parsed structures are compared once the JSON differs
    golden = cli._golden_tables()
    for entry in golden["generators"]:
        entry["components"].reverse()
    assert golden != cli.emit_tables(3)
    monkeypatch.setattr(cli, "_golden_tables", lambda: golden)
    code, out = run(capsys, ["tables", "--n", "3"])
    assert code == 0
    assert json.loads(out)["golden_match"] is True


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2


_PARSE_RECORDED = json.loads((Path(__file__).parent / "data" / "cli_parse_recorded.json").read_text())


@pytest.mark.parametrize("record", _PARSE_RECORDED, ids=lambda r: " ".join(r["argv"]) or "(none)")
def test_parse_messages_match_recorded(capsys, monkeypatch, record):
    # recorded when main ran every argv through the whole parser: each
    # command is now parsed by its own parser, with the same output, the
    # same messages (usage and help at 80 columns) and the same exit code
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.main(list(record["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (record["code"], record["out"], record["err"])


def test_commands_skip_the_top_level_parse(capsys, monkeypatch, orbit_files, tmp_path):
    mat, word, bad, empty = orbit_files
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def subcommand_parse_only(parser, *args, **kwargs):
        if parser.prog == "specball":
            raise AssertionError("an argv with a subcommand went through the whole parser")
        return parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", subcommand_parse_only)
    for argv in (["tables", "--n", "2"], ["verify", "--n", "2", "--id", "xi-bracket"],
                 ["generate", "--max-degree", "1"],
                 ["kernels", "--field", "theta12", "--m", "0..2"],
                 ["growth", "--chain", "--m", "1..2"], ["jets", "--k", "1", "--m", "0..1"],
                 ["orbit", "--word", str(word), "--matrix", str(mat)]):
        assert cli.main(argv + ["--out", str(tmp_path / "report")]) == 0, argv
        assert (tmp_path / "report").read_text()


def test_generate_small(capsys):
    code, out = run(capsys, ["generate", "--n", "2", "--max-degree", "2"])
    assert code == 0
    payload = json.loads(out)
    for entry in payload["degrees"]:
        assert entry["certified"]
        assert entry["achieved_rank"] == entry["target_rank"]
        assert not entry["missing_witnesses"]


def test_generate_n1_is_precondition_error(capsys):
    code = cli.main(["generate", "--n", "1", "--max-degree", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: n must be at least 2\n"


def test_generate_budget_exhaustion(capsys):
    code, out = run(capsys, ["generate", "--n", "2", "--max-degree", "3",
                             "--budget-brackets", "4"])
    assert code == 3
    payload = json.loads(out)
    assert not payload["complete"]


@pytest.mark.parametrize("budget,code,last", [(30, 3, 1), (100, 0, 3), (200, 0, 3), (None, 0, 3)])
def test_generate_report_matches_recorded(capsys, budget, code, last):
    # the stdout of generate at n = 3 to grade 3, byte for byte: a bracket
    # budget that stops in grade 1 pins the counters of a grade cut short
    # (brackets evaluated and skipped, blocks computed, missing witnesses).
    # Grades 0-1 take 74 brackets and grades >= 2 none, so budgets 100 and
    # 200 complete like the full run, which pins every certified grade
    argv = ["generate", "--n", "3", "--max-degree", "3"]
    name = "generate_n3_d3"
    if budget is not None:
        argv += ["--budget-brackets", str(budget)]
        name += f"_budget{budget}"
    got, out = run(capsys, argv)
    assert got == code
    assert out == (Path(__file__).parent / "data" / f"{name}.json").read_text(encoding="utf-8")
    payload = json.loads(out)
    assert payload["degrees"][-1]["degree"] == last
    assert payload["complete"] == (code == 0)


@pytest.mark.parametrize("n,max_degree", [(4, 3), (2, 6)])
def test_generate_report_matches_recorded_at_other_sizes(capsys, n, max_degree):
    # the same byte-for-byte check where the lemmas prove every grade from
    # 2 up: (4,3), whose grade 3 has 309 blocks, and n = 2 up to grade 6
    code, out = run(capsys, ["generate", "--n", str(n), "--max-degree", str(max_degree)])
    assert code == 0
    name = f"generate_n{n}_d{max_degree}.json"
    assert out == (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")


def test_generate_method_flag_has_no_effect(capsys):
    # every grade has the pair-coordinate certificate whatever --method says,
    # with the lemmas of `_certify_degree` from grade 2 on
    degrees = []
    for method in ("auto", "exact", "modular"):
        code, out = run(capsys, ["generate", "--n", "2", "--max-degree", "3",
                                 "--method", method])
        assert code == 0
        degrees.append(json.loads(out)["degrees"])
    assert degrees[0] == degrees[1] == degrees[2]
    assert [d["method"] for d in degrees[0]] == ["pair-coordinate"] * 2 \
        + ["pair-coordinate/weight-lemma"] * 2


@pytest.mark.parametrize("n,max_degree,rows", [
    (2, 4, [(3, 3, 0, 3, 0, 0, 3, 3), (9, 8, 1, 9, 8, 6, 5, 5),
            (18, 15, 3, 0, 0, 0, 7, 0), (30, 24, 6, 0, 0, 0, 9, 0),
            (45, 35, 10, 0, 0, 0, 11, 0)]),
    (3, 2, [(8, 8, 0, 8, 0, 0, 7, 7), (64, 63, 1, 64, 246, 74, 19, 19),
            (288, 279, 9, 0, 0, 0, 37, 0)]),
])
def test_generate_pinned_rows(capsys, n, max_degree, rows):
    # (target rank, component rank, relation rank, kept vectors, brackets,
    # brackets evaluated, blocks, blocks computed) per grade; the
    # ranks are those the closure gave when it eliminated polynomial fields
    # exactly over Q.  Grades 0-1 bracket the generators with the kept
    # vectors and skip brackets in full blocks; grades 2 and up take no
    # bracket and keep no vector, as the lemmas prove them from grade 1.
    # Grades 0-1 keep one vector per pair, as every block is full from
    # brackets and seeds alone
    code, out = run(capsys, ["generate", "--n", str(n), "--max-degree", str(max_degree)])
    assert code == 0
    degrees = json.loads(out)["degrees"]
    assert len(degrees) == len(rows)
    for d, (row, values) in enumerate(zip(degrees, rows)):
        target, rank, relations, kept, brackets, evaluated, blocks, computed = values
        assert row == {
            "n": n, "degree": d,
            "method": "pair-coordinate" if d <= 1 else "pair-coordinate/weight-lemma",
            "operands": "seeds" if d <= 1 else "T_1 x T_{d-1}",
            "target_rank": target, "achieved_rank": target, "missing_witnesses": [],
            "sl_component_rank": rank, "sl_target_component_rank": rank,
            "gl_component_rank": kept, "brackets_evaluated": evaluated,
            "brackets_skipped": brackets - evaluated,
            "blocks": blocks, "blocks_computed": computed,
            "prime": 2 ** 31 - 1, "relation_rank": relations,
            "certified": True, "complete": True,
        }
        assert kept == (target if d <= 1 else 0)


@pytest.mark.parametrize("flags", [
    ["--max-degree", "-1"],
    ["--max-degree", "2", "--budget-brackets", "-1"],
    ["--max-degree", "2", "--budget-ms", "-5"],
    ["--max-degree", "2", "--budget-ms", "0"],
])
def test_generate_rejects_out_of_range_bounds(capsys, flags):
    code, out = run(capsys, ["generate", "--n", "2"] + flags)
    assert code == 2
    assert out == ""


def test_generate_budget_ms_counts_seed_building(capsys, monkeypatch):
    # the clock stands still except while the seeds are built, which takes
    # the whole --budget-ms and more: no grade is started, and generate
    # exits 3 with no grade reported
    clock = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    build = liegen.build_seeds

    def slow_build(n):
        seeds = build(n)
        clock[0] += 1.0
        return seeds

    monkeypatch.setattr(liegen, "build_seeds", slow_build)
    code, out = run(capsys, ["generate", "--n", "2", "--max-degree", "2", "--budget-ms", "500"])
    assert code == 3
    payload = json.loads(out)
    assert payload["degrees"] == [] and not payload["complete"]


def test_generate_zero_bracket_budget(capsys):
    # no bracket allowed: the seeds alone, reported as out of budget
    code, out = run(capsys, ["generate", "--n", "2", "--max-degree", "1",
                             "--budget-brackets", "0"])
    assert code == 3
    assert not json.loads(out)["complete"]


def test_kernels_csv(capsys):
    code, out = run(capsys, ["kernels", "--n", "2", "--field", "xi1", "--m", "0..4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config:")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert rows[0][:6] == ["n", "field", "m", "slice_dim", "dim_ker", "dim_ker_sq"]
    data = rows[1:]
    assert [int(r[4]) for r in data] == [1, 2, 4, 6, 9]
    # diagonal field: counted by weights, and the weight DP column repeats dim_ker
    assert all(r[6] == "weights" and r[7] == r[4] for r in data)
    # the growth degree n^2 - 2, proved from the weights, on every row
    assert rows[0][8] == "degree" and all(r[8] == "2" for r in data)


def test_growth_chain(capsys):
    code, out = run(capsys, ["growth", "--chain", "--m", "1..12"])
    assert code == 0
    rows = list(csv.reader(io.StringIO("\n".join(out.splitlines()[1:]))))[1:]
    assert all(r[-1] == "True" for r in rows)


def test_growth_field(capsys):
    code, out = run(capsys, ["growth", "--field", "theta12", "--n", "2", "--m", "0..6"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    assert all(r["method"] == "sl2" and r["degree"] == "2" for r in rows)


@pytest.mark.parametrize("argv", [["growth", "--field", "theta12", "--n", "2", "--m", "0..3"],
                                  ["growth", "--chain", "--m", "1..3"]], ids=["field", "chain"])
@pytest.mark.parametrize("rows", [[(1, 1), (2, 3), (4, 3), (5, 6)],     # dim ker > dim ker^2
                                  [(1, 1), (2, 3), (3, 99), (4, 5)],    # dim ker^2 > slice size
                                  [(1, 1), (2, 3), (-1, 4), (4, 5)]],   # dim ker < 0
                         ids=["ker-above-ker2", "ker2-above-slice", "negative"])
def test_growth_count_violation_is_verification_failure(capsys, monkeypatch, argv, rows):
    # a kernel table that breaks 0 <= dim ker <= dim ker^2 <= slice size ends
    # `growth` with exit 5 and a message at degree 2, not a traceback, also
    # under python -O
    monkeypatch.setattr(kernelgrowth, "kernel_dim_with_method",
                        lambda der, m_max: (rows[:m_max + 1], "weights", None))
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.startswith("verification failed: degree 2: ")
    assert "Traceback" not in captured.err


def test_growth_needs_field_or_chain(capsys):
    assert cli.main(["growth", "--m", "0..3"]) == 2
    assert cli.main(["growth", "--chain", "--field", "theta12", "--m", "0..3"]) == 2
    assert cli.main(["growth", "--field", "theta12", "--m=-1..3"]) == 2


@pytest.mark.parametrize("argv", [
    ["kernels", "--n", "2", "--field", "theta13", "--m", "0..2"],
    ["kernels", "--n", "2", "--field", "xiz", "--m", "0..2"],
    ["kernels", "--n", "2", "--field", "foo", "--m", "0..2"],
    ["growth", "--n", "2", "--field", "xi2", "--m", "0..2"],
])
def test_unknown_field_lists_known_labels(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "known: theta12, theta21, xi1" in captured.err


def test_kernels_bracketed_label_for_n10(capsys):
    code, out = run(capsys, ["kernels", "--n", "10", "--field", "theta[10,2]", "--m", "0..1"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    # the linear slice of a root field: 100 - rank(ad E_ab) = 100 - 18
    assert [(r["field"], r["dim_ker"]) for r in rows] == [("theta[10,2]", "1"), ("theta[10,2]", "82")]


def test_growth_chain_range_below_one_is_usage_error(capsys):
    # the chain table starts at m = 1; a range reaching below it is refused
    code = cli.main(["growth", "--chain", "--m", "0..3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "m = 1" in captured.err


def test_kernels_range_not_from_zero(capsys):
    code, out = run(capsys, ["kernels", "--n", "3", "--field", "theta12", "--m", "2..3"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    got = [(r["m"], r["slice_dim"], r["dim_ker"], r["dim_ker_sq"], r["method"]) for r in rows]
    assert got == [("2", "45", "19", "33", "sl2"), ("3", "165", "57", "103", "sl2")]


@pytest.mark.parametrize("field", ["theta12", "xi1"])
def test_kernels_degree_at_n3(capsys, field):
    # the bench window m <= 7, too short for any estimate on the window, still
    # carries the degree n^2 - 2 = 7 on every row
    code, out = run(capsys, ["kernels", "--n", "3", "--field", field, "--m", "0..7"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    assert len(rows) == 8 and all(r["degree"] == "7" for r in rows)


def test_kernels_single_degree(capsys):
    # --m 5 is the range 5..5: one row, the xi1 kernel of the degree-5 slice
    code, out = run(capsys, ["kernels", "--n", "2", "--field", "xi1", "--m", "5"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    assert [(r["m"], r["slice_dim"], r["dim_ker"]) for r in rows] == [("5", "56", "12")]


def test_kernels_empty_range_is_usage_error(capsys):
    code = cli.main(["kernels", "--n", "2", "--field", "xi1", "--m", "3..1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "empty range '3..1'" in captured.err


@pytest.mark.parametrize("hi", [cli.MAX_DEGREE + 1, 10 ** 20])
@pytest.mark.parametrize("argv", [
    ["kernels", "--n", "2", "--field", "theta12"],
    ["growth", "--chain"],
    ["growth", "--n", "2", "--field", "theta12"],
    ["jets", "--n", "2", "--k", "5"],
])
def test_upper_degree_above_maximum_is_usage_error(capsys, monkeypatch, argv, hi):
    # a table to degree m costs time and memory growing as m^2, so an upper
    # end above the documented maximum is refused before any table is built
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")
    monkeypatch.setattr(kernelgrowth, "kernel_dim_with_method", refuse)
    code = cli.main(argv + ["--m", f"1..{hi}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"maximum --m of {cli.MAX_DEGREE}" in captured.err


def test_upper_degree_at_maximum_is_accepted(capsys):
    code, out = run(capsys, ["growth", "--chain", "--m", str(cli.MAX_DEGREE)])
    assert code == 0
    assert out.splitlines()[-1].split(",")[2] == str(cli.MAX_DEGREE)


def test_largest_kernel_table_matches_recorded_digest(tmp_path):
    # the CSV of the largest table the CLI accepts, byte for byte: its sha256
    # was recorded when the weight counts were kept in one dict per degree,
    # before they were packed into integers
    out = tmp_path / "kernels.csv"
    code = cli.main(["kernels", "--n", "3", "--field", "theta12",
                     "--m", f"0..{cli.MAX_DEGREE}", "--out", str(out)])
    assert code == 0
    recorded = (Path(__file__).parent / "data" / "kernels_n3_theta12_m1000.sha256").read_text()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == recorded.split()[0]


def test_jets(capsys):
    code, out = run(capsys, ["jets", "--n", "2", "--k", "5", "--m", "0..10"])
    assert code == 0
    assert "# crossover_m0: 5" in out


def test_jets_cumulative(capsys):
    code, out = run(capsys, ["jets", "--n", "2", "--k", "5", "--m", "0..10",
                             "--cumulative"])
    assert code == 0
    assert "# crossover_m0: None" in out


@pytest.fixture
def orbit_files(tmp_path):
    A = np.array([[0.3, 0.2], [0.1, -0.2]], dtype=complex)
    mat = tmp_path / "A.json"
    mat.write_text(json.dumps(matrix_to_json(A)))
    word = tmp_path / "w.json"
    word.write_text(json.dumps([
        {"overshear": {"theta": [1, 2], "f": "x11", "t": [0.3, 0.0]}},
        {"transpose": {}},
    ]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(matrix_to_json(np.diag([1.5, 0.2]))))
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    return mat, word, bad, empty


def test_orbit_identity_word_echoes_input(capsys, orbit_files):
    mat, word, bad, empty = orbit_files
    code, out = run(capsys, ["orbit", "--word", str(empty), "--matrix", str(mat)])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == payload["trajectory"][0]


def test_orbit_fibre_check(capsys, orbit_files):
    mat, word, bad, empty = orbit_files
    code, out = run(capsys, ["orbit", "--word", str(word), "--matrix", str(mat),
                             "--check-fibre"])
    assert code == 0
    payload = json.loads(out)
    assert payload["fibre_drift"] < 1e-8
    assert payload["in_ball"] is True
    assert len(payload["trajectory"]) == 3


def test_orbit_fibre_drift_is_verification_error(capsys, orbit_files, tmp_path):
    # two shears by 1e8 around a transpose: rounding moves the fibre by ~0.1,
    # so the check fails (exit 5) and the report is still written
    mat = orbit_files[0]
    shear = {"overshear": {"theta": [1, 2], "f": "1", "t": [1e8, 0]}}
    word = tmp_path / "drift.json"
    word.write_text(json.dumps([shear, {"transpose": {}}, shear]))
    code, out = run(capsys, ["orbit", "--word", str(word), "--matrix", str(mat),
                             "--check-fibre"])
    assert code == 5
    payload = json.loads(out)
    assert 1e-8 <= payload["fibre_drift"] < 1
    assert payload["in_ball"] is True
    assert len(payload["trajectory"]) == 4


def test_orbit_computes_each_fibre_once(capsys, orbit_files, monkeypatch):
    mat, word, bad, empty = orbit_files
    seen = []
    real_char_poly = flows.char_poly

    def counting(A):
        seen.append(np.array(A))
        return real_char_poly(A)

    monkeypatch.setattr(flows, "char_poly", counting)
    code, out = run(capsys, ["orbit", "--word", str(word), "--matrix", str(mat),
                             "--check-fibre"])
    assert code == 0
    payload = json.loads(out)
    assert len(seen) == 2
    assert np.array_equal(seen[0], matrix_from_json(payload["trajectory"][0]))
    assert np.array_equal(seen[1], matrix_from_json(payload["result"]))


@pytest.mark.parametrize("n", [3, 4])
def test_orbit_report_at_root_finder_sizes(capsys, tmp_path, n):
    # n = 3 and 4 take the Aberth-Ehrlich root finder; the report holds
    # plain JSON values, and its result decodes back to itself
    A = np.diag([0.3, -0.2, 0.1j, 0.25][:n]) + 0.1 * np.triu(np.ones((n, n)), 1)
    G = np.eye(n)
    G[0, n - 1] = 0.5
    mat, word = tmp_path / "A.json", tmp_path / "w.json"
    mat.write_text(json.dumps(matrix_to_json(A)))
    word.write_text(json.dumps([
        {"overshear": {"theta": [1, 2], "f": "x31", "t": [0.3, 0.1]}},
        {"overshear": {"theta": [2, 3], "f": "-1/2*x21", "t": 0.2}},
        {"transpose": {}},
        {"conjugate": {"G": matrix_to_json(G)}},
    ]))
    code, out = run(capsys, ["orbit", "--word", str(word), "--matrix", str(mat),
                             "--check-fibre"])
    assert code == 0
    assert '\n  "in_ball": true,\n' in out
    payload = json.loads(out)
    assert payload["n"] == n and payload["in_ball"] is True
    assert type(payload["fibre_drift"]) is float and payload["fibre_drift"] < 1e-8
    assert matrix_to_json(matrix_from_json(payload["result"])) == payload["result"]
    assert len(payload["trajectory"]) == 5


def test_orbit_outside_ball_is_precondition_error(capsys, orbit_files):
    mat, word, bad, empty = orbit_files
    code, _ = run(capsys, ["orbit", "--word", str(word), "--matrix", str(bad)])
    assert code == 4


@pytest.mark.parametrize("word,field", [
    ({"a": 1}, "list of atom objects"),
    (["transpose"], "exactly one key"),
    ([{"overshear": {"theta": 5, "f": "x11", "t": [0.3, 0.0]}}], "'theta'"),
    ([{"overshear": {"theta": ["1", "2"], "f": "x11", "t": [0.3, 0.0]}}], "'theta'"),
    ([{"overshear": {"theta": [1, 2], "f": 5, "t": [0.3, 0.0]}}], "'f'"),
    ([{"moebius": {"alpha": 0.5, "gamma": [1, 0]}}], "'alpha'"),
    # json reads NaN and Infinity; the atom names the field, not the matrix
    ([{"moebius": {"alpha": [float("nan"), 0], "gamma": [1, 0]}}], "moebius 'alpha' must be finite"),
    ([{"moebius": {"alpha": [0.2, 0], "gamma": [float("nan"), 0]}}], "moebius 'gamma' must be finite"),
    ([{"overshear": {"theta": [1, 2], "f": "x11", "t": float("nan")}}], "overshear 't' must be finite"),
    ([{"overshear": {"theta": [1, 2], "f": "x11", "t": [0.3, float("inf")]}}],
     "overshear 't' must be finite"),
    # json reads true as a bool, which Python counts as the int 1
    ([{"overshear": {"theta": [1, 2], "f": "x11", "t": True}}], "overshear 't'"),
    ([{"overshear": {"theta": [True, 2], "f": "x11", "t": [0.3, 0.0]}}], "overshear 'theta'"),
    ([{"moebius": {"alpha": [True, 0], "gamma": [1, 0]}}], "moebius 'alpha'"),
    ([{"overshear": {"theta": [1, 2], "t": [0.3, 0.0]}}], "overshear atom: missing 'f'"),
    ([{"moebius": {"alpha": [0.2, 0]}}], "moebius atom: missing 'gamma'"),
    ([{"conjugate": {}}], "conjugate atom: missing 'G'"),
    ([{"overshear": {"theta": [1, 2], "f": "x1", "t": [0.3, 0.0]}}], "overshear 'f'"),
    # a 3x3 G against the 2x2 matrix
    ([{"conjugate": {"G": [[[1, 0] if i == j else [0, 0] for j in range(3)] for i in range(3)]}}],
     "conjugate 'G': expected a 2x2 matrix"),
    # each cell of G is an [re, im] pair of numbers, named by row and column
    ([{"conjugate": {"G": [[[1, 0, 9], [0, 0]], [[0, 0], [1, 0]]]}}],
     "conjugate 'G': matrix entry (1, 1)"),
    ([{"conjugate": {"G": [[[1, 0], [0, 0]], [[0, 0], [True, 0]]]}}],
     "conjugate 'G': matrix entry (2, 2)"),
    ([{"conjugate": {"G": [[[1, 0], ["0", 0]], [[0, 0], [1, 0]]]}}],
     "conjugate 'G': matrix entry (1, 2)"),
    # rows of different lengths
    ([{"conjugate": {"G": [[[1, 0], [0, 0]], [[0, 0]]]}}], "conjugate 'G': expected a square matrix"),
    # an integer too large for a double reads as a non-finite value
    ([{"conjugate": {"G": [[[10 ** 400, 0], [0, 0]], [[0, 0], [1, 0]]]}}],
     "conjugate 'G': matrix entries must be finite"),
    ([{"overshear": {"theta": [1, 2], "f": "x11", "t": 10 ** 400}}],
     "overshear 't' must be finite"),
    ([{"overshear": {"theta": [1, 2], "f": "x11", "t": [0.3, -10 ** 400]}}],
     "overshear 't' must be finite"),
    ([{"moebius": {"alpha": [10 ** 400, 0], "gamma": [1, 0]}}], "moebius 'alpha' must be finite"),
    ([{"overshear": {"theta": [1, 2], "f": f"{10 ** 400}*x21", "t": 1}}],
     "overshear 'f' has a coefficient too large for a double"),
    ([{"moebius": 3}], "moebius atom: its value must be an object"),
    # a theta that is no generator id is named as the field
    ([{"overshear": {"theta": [1, 1], "f": "x11", "t": 0.3}}],
     "overshear 'theta': Theta(a=1, b=1) is not a generator id for n=2"),
    ([{"overshear": {"theta": [0, 2], "f": "x11", "t": 0.3}}],
     "overshear 'theta': Theta(a=0, b=2) is not a generator id for n=2"),
    # Theta12 f multiplies x11^(2^63 - 1) by x21: a product past the exponent limit
    ([{"overshear": {"theta": [1, 2], "f": f"x11^{2 ** 63 - 1}*x21^{2 ** 63 - 1}", "t": 1}}],
     "exponent of variable 2 reaches 2^63 in a product"),
])
def test_orbit_malformed_word_is_usage_error(capsys, orbit_files, tmp_path, word, field):
    mat = orbit_files[0]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(word))
    code = cli.main(["orbit", "--word", str(path), "--matrix", str(mat)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert field in captured.err


@pytest.mark.parametrize("f,message", [
    ("1" * 5000 + "*x21", "number of 5000 digits is too long (at position 0)"),
    ("x21^" + "7" * 5000, "number of 5000 digits is too long (at position 4)"),
    ("x\u0662\u0661", "malformed variable (at position 0)"),
    ("x21\u00a0+ x11", "expected '+' or '-' between terms (at position 3)"),
    (f"x21^{2 ** 63}", f"exponent {2 ** 63} of x21 is above 2^63 - 1 (at position 4)"),
], ids=["long-coefficient", "long-exponent", "unicode-digits", "no-break-space",
        "exponent-above-limit"])
def test_orbit_unparsable_polynomial_names_its_position(capsys, orbit_files, tmp_path, f, message):
    path = tmp_path / "word.json"
    path.write_text(json.dumps([{"overshear": {"theta": [1, 2], "f": f, "t": 1}}]))
    code = cli.main(["orbit", "--word", str(path), "--matrix", str(orbit_files[0])])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip() == f"error: overshear 'f': {message}"


@pytest.mark.parametrize("matrix,entry", [
    ([[[0.1, 0, 99], [0, 0]], [[0, 0], [0.2, 0]]], "(1, 1)"),
    ([[[0.1, 0], [True, False]], [[0, 0], [0.2, 0]]], "(1, 2)"),
    ([[[0.1, 0], [0, 0]], [["0", 0], [0.2, 0]]], "(2, 1)"),
])
def test_orbit_malformed_matrix_cell_is_usage_error(capsys, orbit_files, tmp_path, matrix, entry):
    # a third number, a boolean and a string were read as [re, im] before
    word = orbit_files[3]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(matrix))
    code = cli.main(["orbit", "--word", str(word), "--matrix", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"matrix entry {entry} must be an [re, im] pair of numbers" in captured.err


def test_orbit_ragged_matrix_is_usage_error(capsys, orbit_files, tmp_path):
    # rows of different lengths are refused as not square, not with numpy's message
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps([[[1, 0], [0, 0]], [[0, 0]]]))
    code = cli.main(["orbit", "--word", str(orbit_files[3]), "--matrix", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip() == "error: expected a square matrix"


def test_orbit_matrix_too_large_for_a_double_is_usage_error(capsys, orbit_files, tmp_path):
    # a 401-digit JSON integer cannot become a double: refused as not finite
    path = tmp_path / "huge.json"
    path.write_text(json.dumps([[[10 ** 400, 0], [0, 0]], [[0.2, 0], [0.1, 0]]]))
    code = cli.main(["orbit", "--word", str(orbit_files[3]), "--matrix", str(path),
                     "--check-fibre"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip() == "error: matrix entries must be finite"


def test_orbit_huge_exponent_is_evaluated_at_once(capsys, tmp_path):
    # x21 is killed by Theta12, so x21^999999999 is a shear; its powers take
    # O(log e) products, and entries below 1 in modulus power to 0
    mat, word = tmp_path / "A.json", tmp_path / "w.json"
    mat.write_text(json.dumps([[[0.1, 0], [0, 0]], [[0.2, 0], [0.1, 0]]]))
    word.write_text(json.dumps([{"overshear": {"theta": [1, 2], "f": "x21^999999999", "t": 1}}]))
    start = time.perf_counter()
    code = cli.main(["orbit", "--word", str(word), "--matrix", str(mat), "--check-fibre"])
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert code == 0, captured.err
    result = json.loads(captured.out)["result"]
    assert result == [[[0.1, 0.0], [0.0, 0.0]], [[0.2, 0.0], [0.1, 0.0]]]


def test_orbit_overflow_in_a_valid_word_is_numeric_error(capsys, tmp_path):
    # e^(t x21) overflows at t = 1e300: the word is valid and the input
    # finite, so the failure is the evaluation's (exit 4), not a usage error
    mat, word = tmp_path / "A.json", tmp_path / "w.json"
    mat.write_text(json.dumps(matrix_to_json(np.array([[0.1, 0], [0.2, 0.3]]))))
    word.write_text(json.dumps([{"overshear": {"theta": [1, 2], "f": "x11", "t": [1e300, 0]}}]))
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["orbit", "--word", str(word), "--matrix", str(mat)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "non-finite" in captured.err


@pytest.mark.parametrize("x21, f, t", [
    # x21^2 overflows to inf + 0j and t = 1 + i makes t * Theta12(f)(A)
    # infinite in both parts, where cmath.exp raises ValueError
    (1e200, "x11*x21", [1, 1]),
    # t * x21 is finite in both parts but its modulus is not
    (1e8, "x11", [1.5e300, 1.5e300]),
])
def test_orbit_infinite_exponent_is_numeric_error(capsys, tmp_path, x21, f, t):
    mat, word = tmp_path / "A.json", tmp_path / "w.json"
    mat.write_text(json.dumps(matrix_to_json(np.array([[0, 0], [x21, 0]]))))
    word.write_text(json.dumps([{"overshear": {"theta": [1, 2], "f": f, "t": t}}]))
    code = cli.main(["orbit", "--word", str(word), "--matrix", str(mat)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_orbit_singular_moebius_is_numeric_error(capsys, tmp_path):
    # The shear by s = 2^60 rounds [[0.5, 0], [1, -0.5]] to an exactly
    # nilpotent matrix, so the input is in the ball and the word valid, yet
    # the elimination of I - 0.5 X in floating point meets a zero pivot.
    mat, word = tmp_path / "A.json", tmp_path / "w.json"
    mat.write_text(json.dumps(matrix_to_json(np.array([[0.5, 0], [1, -0.5]]))))
    word.write_text(json.dumps([{"overshear": {"theta": [1, 2], "f": "1", "t": 2.0 ** 60}},
                                {"moebius": {"alpha": [0.5, 0], "gamma": [1, 0]}}]))
    code = cli.main(["orbit", "--word", str(word), "--matrix", str(mat)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "I - conj(alpha) A is singular" in captured.err


def test_cached_parser_is_reentrant(capsys, orbit_files):
    mat, word, bad, empty = orbit_files
    usage = ["generate", "--n", "2"]
    orbit = ["orbit", "--word", str(word), "--matrix", str(mat), "--check-fibre"]
    tables = ["tables", "--n", "2"]

    def call(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = {}
    for argv in (usage, orbit, tables):
        cli.build_parser.cache_clear()
        first[tuple(argv)] = call(argv)
    assert first[tuple(usage)][0] == 2 and "--max-degree" in first[tuple(usage)][2]
    cli.build_parser.cache_clear()
    for argv in (usage, orbit, tables, orbit):
        assert call(argv) == first[tuple(argv)], argv
    assert cli.build_parser() is cli.build_parser()


def test_out_file_atomic_write(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli.main(["tables", "--n", "3", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["golden_match"] is True
    assert not list(tmp_path.glob(".specball-*"))
    # a directory cannot be replaced by the report: usage error, and the
    # temporary file is removed
    code = cli.main(["tables", "--n", "3", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.parent.glob(".specball-*"))


def test_out_file_written_in_full_by_short_writes(tmp_path, monkeypatch):
    whole = tmp_path / "whole.json"
    assert cli.main(["tables", "--n", "3", "--out", str(whole)]) == 0
    write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(write(fd, data[:7]))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    short = tmp_path / "short.json"
    assert cli.main(["tables", "--n", "3", "--out", str(short)]) == 0
    assert short.read_bytes() == whole.read_bytes()
    assert len(sizes) == -(-whole.stat().st_size // 7) and max(sizes) == 7


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_out_file_mode_follows_the_umask(tmp_path, umask):
    # the report is created as open() would create it: 0o666 less the umask
    out_path = tmp_path / "perm.json"
    previous = os.umask(umask)
    try:
        assert cli.main(["tables", "--n", "2", "--out", str(out_path)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out_path.stat().st_mode) == 0o666 & ~umask
    assert not list(tmp_path.glob(".specball-*"))


def test_reports_carry_config_echo(capsys):
    code, out = run(capsys, ["generate", "--n", "2", "--max-degree", "1"])
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["config"]["n"] == 2 and payload["config"]["max_degree"] == 1


def test_reports_use_the_c_encoder(capsys, orbit_files, monkeypatch):
    # json's pure-Python encoder, which `indent` selects, is never reached;
    # each report puts one top-level key per line, and an orbit report
    # parses to the values of the flows API for the same word
    def python_encoder(*args, **kwargs):
        raise AssertionError("report written by json's pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
    mat, word, bad, empty = orbit_files
    orbit = ["orbit", "--word", str(word), "--matrix", str(mat), "--check-fibre"]
    reports = {}
    for argv in (["generate", "--n", "2", "--max-degree", "1"], ["tables", "--n", "3"],
                 ["verify", "--n", "2", "--all"], orbit):
        code, out = run(capsys, argv)
        assert code == 0, argv
        assert out.startswith('{\n  "schema_version": 1,\n  "config": {'), argv
        lines = out.splitlines()
        report = json.loads(out)
        assert len(lines) == len(report) + 2 and lines[-1] == "}"
        reports[argv[0]] = report

    A = matrix_from_json(json.loads(mat.read_text()))
    points = list(flows.word_trajectory(flows.word_from_json(json.loads(word.read_text()), 2), A))
    pi0, pi1 = flows.char_poly(A).pi, flows.char_poly(points[-1]).pi
    assert reports["orbit"] == {
        "schema_version": 1,
        "config": {"command": "orbit", "word": str(word), "matrix": str(mat),
                   "check_fibre": True},
        "n": 2,
        "result": matrix_to_json(points[-1]),
        "trajectory": [matrix_to_json(P) for P in points],
        "in_ball": True,
        "fibre_drift": float(np.max(np.abs(np.array(pi1) - np.array(pi0)))),
    }
