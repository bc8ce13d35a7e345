"""End-to-end tests for the command-line interface.

Everything but the closed-pipe test runs in-process through
``main(argv)`` so exit codes and stdout/stderr can be asserted directly.
"""
import contextlib
import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsdf.catalog
import gsdf.cli
import gsdf.family
import gsdf.matcher
import gsdf.verify
from gsdf.catalog import catalog_entries
from gsdf.cli import main
from gsdf.family import Family, family_patterns, read_families, write_families
from gsdf.search import search_order
from gsdf.verify import verify_family
from gsdf.zmod import CyclicSubset
from test_family_io import recording


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


# a valid order-7 family: three copies of the quadratic residues plus {0}
FAM7 = "7 3 3 3 1 3 kkks\n1,2,4\n1,2,4\n1,2,4\n0\n"
# same shape but the third block no longer balances the differences
FAM7_BAD = "7 3 3 3 1 3 kkks\n1,2,4\n1,2,4\n1,2,3\n0\n"


# ---------------------------------------------------------------- params

def test_params_lists_sets_with_types():
    rc, out, _ = run("params", "7")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "(7;3,3,3,1;3) types:ksss,kkss,kkks"
    assert "(7;3,2,2,2;2) types:ksss" in lines


def test_params_type_filter():
    rc, out, _ = run("params", "7", "--type", "kkks")
    assert rc == 0
    assert out.splitlines() == ["(7;3,3,3,1;3) types:ksss,kkss,kkks"]


def test_params_all_includes_unsearchable_sets():
    rc, default_out, _ = run("params", "25")
    rc2, all_out, _ = run("params", "25", "--all")
    assert rc == rc2 == 0
    assert "(25;10,10,10,10;15)" not in default_out
    assert "(25;10,10,10,10;15)" in all_out
    assert set(default_out.splitlines()) <= set(all_out.splitlines())


def test_params_reports_a_type_without_sets():
    rc, out, err = run("params", "9", "--type", "kkks")
    assert (rc, out, err) == (0, "no parameter sets\n", "")


def test_params_rejects_orders_beyond_mask_width():
    for argv in (("params", "65"), ("params", "65", "--all")):
        rc, out, err = run(*argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "63" in err
    rc, out, _ = run("params", "63")
    assert rc == 0 and "types:" in out


def test_params_even_order_is_an_error():
    rc, _, err = run("params", "4")
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", (("params", "0"), ("params", "-1"),
                                  ("search", "0", "ksss"), ("search", "-3", "kkss")))
def test_non_positive_orders_are_an_error(argv):
    rc, out, err = run(*argv)
    assert rc == 2 and out == ""
    assert err == "error: v must be positive\n"


# ---------------------------------------------------------------- generate

def test_generate_writes_readable_row_file(tmp_path):
    path = tmp_path / "skew.rows"
    rc, out, _ = run("generate", "7", "3", "skew", "-o", str(path))
    assert rc == 0
    assert out == f"8 blocks -> {path}\n"
    from gsdf.blockgen import read_row_file
    rf = read_row_file(str(path))
    assert (rf.v, rf.k, rf.kind, rf.bound, len(rf)) == (7, 3, "skew", 28, 8)


def test_generate_no_filter_keeps_everything(tmp_path):
    on, off = tmp_path / "f.rows", tmp_path / "u.rows"
    run("generate", "13", "6", "skew", "-o", str(on))
    run("generate", "13", "6", "skew", "--no-filter", "-o", str(off))
    from gsdf.blockgen import read_row_file
    assert len(read_row_file(str(on))) == 40
    assert len(read_row_file(str(off))) == 64
    assert read_row_file(str(off)).bound is None


def test_generate_rejects_bad_kind():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "7", "3", "banana", "-o", "x"])
    assert exc.value.code == 2


def test_generate_rejects_orders_beyond_mask_width(tmp_path):
    out = tmp_path / "rows.txt"
    for kind, k in (("symmetric", 3), ("skew", 32)):
        rc, _, err = run("generate", "65", str(k), kind, "-o", str(out))
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "63" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", (("-3", "1", "symmetric"), ("-3", "-2", "skew"),
                                  ("4", "2", "symmetric"), ("4", "1", "skew")))
def test_generate_rejects_negative_and_even_orders(tmp_path, argv):
    out = tmp_path / "rows.txt"
    rc, stdout, err = run("generate", *argv, "-o", str(out))
    assert rc == 2 and stdout == ""
    assert err == f"error: candidate blocks need a positive odd v, got {argv[0]}\n"
    assert not out.exists()


# ---------------------------------------------------------------- match

@pytest.fixture()
def row_files7(tmp_path):
    skew = tmp_path / "skew3.rows"
    sym = tmp_path / "sym1.rows"
    run("generate", "7", "3", "skew", "-o", str(skew))
    run("generate", "7", "1", "symmetric", "-o", str(sym))
    return str(skew), str(sym)


def test_match_finds_all_families(row_files7, tmp_path):
    skew, sym = row_files7
    out_path = tmp_path / "fams.txt"
    rc, out, _ = run("match", skew, skew, skew, sym, "--lam", "3",
                     "-o", str(out_path))
    assert rc == 0
    assert out.endswith("# 56 families\n")
    fams = read_families(str(out_path))
    assert len(fams) == 56
    assert all(verify_family(f).ok for f in fams)


def test_match_streams_to_stdout(row_files7):
    skew, sym = row_files7
    rc, out, _ = run("match", skew, skew, skew, sym, "--lam", "3")
    assert rc == 0
    # 56 records of five lines each, then the trailing count line
    assert len(out.splitlines()) == 56 * 5 + 1


def test_a_closed_stdout_ends_quietly_with_status_141(tmp_path):
    # the 2016 (21;10,10,10,6;15) kkks families overflow a pipe buffer, so
    # the reader closes the pipe while `match` is still writing
    skew, sym = tmp_path / "skew10.rows", tmp_path / "sym6.rows"
    run("generate", "21", "10", "skew", "-o", str(skew))
    run("generate", "21", "6", "symmetric", "-o", str(sym))
    src = str(Path(gsdf.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = ["match", str(skew), str(skew), str(skew), str(sym), "--lam", "15"]
    proc = subprocess.Popen([sys.executable, "-m", "gsdf.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"21 10 10 10 6 15 kkks\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_match_reads_a_repeated_path_once(row_files7, tmp_path, monkeypatch):
    """One row file per distinct path: the output equals that of the same
    files under distinct paths, each read."""
    skew, sym = row_files7
    copies = []
    for name in ("copy1.rows", "copy2.rows"):
        copies.append(str(tmp_path / name))
        Path(copies[-1]).write_bytes(Path(skew).read_bytes())
    read, read_row_file = [], gsdf.cli.read_row_file

    def counted(path):
        read.append(path)
        return read_row_file(path)

    monkeypatch.setattr(gsdf.cli, "read_row_file", counted)
    apart = run("match", skew, *copies, sym, "--lam", "3")
    assert read == [skew, *copies, sym]
    read.clear()
    assert run("match", skew, skew, skew, sym, "--lam", "3") == apart
    assert read == [skew, sym]
    assert apart[0] == 0 and apart[1].endswith("# 56 families\n")


def test_match_reports_no_solutions(tmp_path):
    # (13;6,6,6,3;8) has no kkss family
    skew, sym6, sym3 = (str(tmp_path / n) for n in ("k6.rows", "s6.rows", "s3.rows"))
    run("generate", "13", "6", "skew", "-o", skew)
    run("generate", "13", "6", "symmetric", "-o", sym6)
    run("generate", "13", "3", "symmetric", "-o", sym3)
    rc, out, _ = run("match", skew, skew, sym6, sym3, "--lam", "8")
    assert rc == 1
    assert "no solutions" in out


def test_match_checks_lambda_before_matching(row_files7, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("matched with an impossible lambda")

    monkeypatch.setattr(gsdf.cli, "bins_match", refuse)
    skew, _ = row_files7
    rc, out, err = run("match", skew, skew, skew, skew, "--lam", "4")
    assert rc == 2 and out == ""
    assert err == "error: (7;3,3,3,3;4) violates sum k_i = lambda + v\n"


def test_match_missing_file_is_an_error(tmp_path):
    ghost = str(tmp_path / "missing.rows")
    rc, _, err = run("match", ghost, ghost, ghost, ghost, "--lam", "3")
    assert rc == 2
    assert err.startswith("error:")


def test_match_rejects_row_files_beyond_mask_width(tmp_path):
    # element 64 does not fit an int64 mask; {1, 2} does, but v = 65 is
    # still beyond what `generate` and `search` accept
    for elements in ([1, 64], [1, 2]):
        block = CyclicSubset.from_elements(65, elements)
        counts = " ".join(str(block.difference_count(s)) for s in range(1, 33))
        path = tmp_path / "wide.rows"
        path.write_text(f"65 2 symmetric off\n{','.join(map(str, elements))}|{counts}\n")
        rc, _, err = run("match", *[str(path)] * 4, "--lam", "0")
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "63" in err


def test_match_names_a_malformed_element_list(tmp_path):
    path = tmp_path / "bad.rows"
    path.write_text("7 3 skew 28\n1,x,4|1 1 1\n")
    rc, out, err = run("match", *[str(path)] * 4, "--lam", "3")
    assert rc == 2 and out == ""
    assert err == "error: line 2: malformed element list '1,x,4'\n"


@pytest.mark.parametrize("text,message", (
    ("", "empty row file"),
    ("7 x skew 28\n1,2,4|1 1 1\n", "line 1: non-integer v or k"),
    ("7 2 skew 28\n1,2,4|1 1 1\n", "line 2: block size 3 != 2"),
    ("7 3 skew 28\n1,2,4|1 one 1\n", "line 2: malformed counts"),
    ("7 3 skew 28\n1,2,4|1 1\n", "line 2: expected 3 counts, got 2"),
))
def test_match_rejects_a_malformed_row_file(tmp_path, text, message):
    path = tmp_path / "bad.rows"
    path.write_text(text)
    rc, out, err = run("match", *[str(path)] * 4, "--lam", "3")
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


def test_match_reads_a_blank_line_between_blocks_as_none(row_files7, tmp_path):
    skew, sym = row_files7
    lines = Path(skew).read_text().splitlines(keepends=True)
    assert len(lines) > 3
    blank = tmp_path / "blank.rows"
    blank.write_text("".join(lines[:3] + ["\n", "  \n"] + lines[3:]))
    rc, out, _ = run("match", skew, skew, skew, sym, "--lam", "3")
    assert rc == 0 and out.endswith("# 56 families\n")
    assert run("match", *[str(blank)] * 3, sym, "--lam", "3") == (rc, out, "")


def test_match_rejects_row_files_of_different_orders(row_files7, tmp_path):
    skew, _ = row_files7
    other = tmp_path / "sym9.rows"
    run("generate", "9", "2", "symmetric", "-o", str(other))
    rc, out, err = run("match", skew, skew, skew, str(other), "--lam", "3")
    assert (rc, out, err) == (2, "", "error: row files disagree on v\n")


# ---------------------------------------------------------------- classify

@pytest.fixture()
def family_file3(tmp_path):
    rc, out, _ = run("search", "3", "kkks", "--out-dir", str(tmp_path))
    assert rc == 0
    return str(tmp_path / "3-kkks-1-1-1-0.fam")


def test_classify_reports_classes(family_file3):
    rc, out, _ = run("classify", family_file3)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "8 families, 1 equivalence classes"
    assert lines[1].startswith("class 1 size 8: (3;1,1,1,0;0)")


def test_classify_small_option(family_file3):
    rc, out, _ = run("classify", family_file3, "--small")
    assert rc == 0
    assert out.splitlines()[0] == "8 families, 2 small equivalence classes"


def test_classify_order_one_family(tmp_path):
    # Z_1 has one unit; a v=1 family is certified by `verify` and classifiable
    path = tmp_path / "one.fam"
    path.write_text("1 0 0 0 0 -1 kkkk\n\n\n\n\n")
    assert run("verify", str(path))[0] == 0
    for extra in ((), ("--small",)):
        rc, out, err = run("classify", str(path), *extra)
        assert rc == 0 and err == ""
        assert out.splitlines()[1] == "class 1 size 1: (1;0,0,0,0;-1) {} {} {} {}"


@pytest.mark.parametrize("extra", ((), ("--small",)))
def test_classify_file_without_records(tmp_path, extra):
    # refused as `verify` refuses it, not reported as 0 families in 0 classes
    path = tmp_path / "fam.txt"
    path.write_text("# nothing here\n\n")
    for command in (("classify", str(path), *extra), ("verify", str(path))):
        rc, out, err = run(*command)
        assert (rc, out, err) == (2, "", "error: no family records\n")


def test_classify_malformed_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("7 3 3 3 1 3 kkks\n1,2,4\n")
    rc, _, err = run("classify", str(path))
    assert rc == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------- verify

def test_verify_valid_family(tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text(FAM7)
    rc, out, _ = run("verify", str(path))
    assert rc == 0
    assert out == ("record 1 (7;3,3,3,1;3) kkks: difference-family=ok "
                   "lambda=ok gram=ok hadamard=ok skew-type=ok "
                   "best-matrices=ok\n")


def test_verify_tags_each_order_in_one_pass(tmp_path, monkeypatch):
    """Reading the file and printing its patterns each make one
    `tag_codes` call per order through `gsdf.family`, and certification
    one through `gsdf.verify`: none per block."""
    fams = [f for v in (7, 9) for t in ("ksss", "kkss", "kkks")
            for o in search_order(v, t) for f in o.families]
    path = tmp_path / "fams.txt"
    write_families(path, fams)
    calls = {"family": [], "verify": []}
    for name, module in (("family", gsdf.family), ("verify", gsdf.verify)):
        monkeypatch.setattr(module, "tag_codes", recording(module.tag_codes, calls[name]))
    rc, out, _ = run("verify", str(path))
    assert rc == 0
    sizes = [(v, (sum(f.v == v for f in fams), 4)) for v in (7, 9)]
    assert calls["family"] == sizes + sizes
    assert [v for v, _ in calls["verify"]] == [7, 9]
    lines = out.splitlines()
    assert len(lines) == len(fams)
    assert [ln.split(":")[0].split()[-1] for ln in lines] == family_patterns(fams)
    assert {ln.split(":")[0].split()[-1] for ln in lines} == {"ksss", "kkss", "kkks"}


def test_verify_flags_broken_family(tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text(FAM7_BAD)
    rc, out, _ = run("verify", str(path))
    assert rc == 2
    assert "difference-family=FAIL" in out


def test_verify_empty_file(tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text("# nothing here\n")
    rc, _, err = run("verify", str(path))
    assert rc == 2
    assert "no family records" in err


def test_verify_names_a_malformed_element_list(tmp_path):
    # the same line as a row file with the same bad block gives
    path = tmp_path / "fam.txt"
    path.write_text(FAM7.replace("1,2,4", "1,x,4", 1))
    rc, out, err = run("verify", str(path))
    assert rc == 2 and out == ""
    assert err == "error: line 2: malformed element list '1,x,4'\n"


def test_verify_writes_hadamard_matrix(tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAM7)
    mat = tmp_path / "h28.txt"
    rc, out, _ = run("verify", str(fam), "--hadamard", str(mat))
    assert rc == 0
    assert "hadamard matrix of order 28" in out
    rows = mat.read_text().splitlines()
    assert len(rows) == 28
    assert all(len(r) == 28 and set(r) <= {"+", "-"} for r in rows)


def test_verify_writes_no_hadamard_matrix_for_a_failing_record(tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAM7_BAD)
    mat = tmp_path / "h28.txt"
    rc, out, err = run("verify", str(fam), "--hadamard", str(mat))
    assert rc == 2
    assert out.splitlines() == [
        "record 1 (7;3,3,3,1;3) kkks: difference-family=FAIL lambda=FAIL "
        "gram=FAIL hadamard=FAIL skew-type=FAIL best-matrices=FAIL"]
    assert err == ("error: the record does not give a Hadamard matrix; "
                   f"{mat} not written\n")
    assert not mat.exists()


def test_verify_checks_the_array_it_writes(tmp_path, monkeypatch):
    # a record whose certificate passes, with one entry of its array flipped
    build = gsdf.cli.build_gs_array

    def flipped(fam):
        h = build(fam)
        h[3, 5] *= -1
        return h

    monkeypatch.setattr(gsdf.cli, "build_gs_array", flipped)
    fam = tmp_path / "fam.txt"
    fam.write_text(FAM7)
    mat = tmp_path / "h28.txt"
    rc, out, err = run("verify", str(fam), "--hadamard", str(mat))
    assert rc == 2
    assert out.splitlines() == [
        "record 1 (7;3,3,3,1;3) kkks: difference-family=ok lambda=ok "
        "gram=ok hadamard=ok skew-type=ok best-matrices=ok"]
    assert err == ("error: the assembled array is not a Hadamard matrix; "
                   f"{mat} not written\n")
    assert not mat.exists()


def test_verify_hadamard_needs_single_record(tmp_path):
    path = tmp_path / "fams.txt"
    path.write_text(FAM7 + FAM7)
    rc, out, err = run("verify", str(path), "--hadamard", str(tmp_path / "h"))
    assert rc == 2 and out == ""
    assert err == "error: --hadamard needs a single-record file\n"
    assert not (tmp_path / "h").exists()


# ---------------------------------------------------------------- search

def test_search_small_order():
    rc, out, _ = run("search", "3", "kkks")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "(3;1,1,1,0;0) kkks: yes, 8 families"
    assert lines[1] == "  1 equivalence classes, 2 small classes"


def test_search_no_classify():
    rc, out, _ = run("search", "3", "kkks", "--no-classify")
    assert rc == 0
    assert "equivalence classes" not in out


def test_search_creates_the_output_directory(tmp_path):
    out_dir = tmp_path / "new" / "nested"
    rc, out, _ = run("search", "3", "kkks", "--out-dir", str(out_dir))
    assert rc == 0
    path = out_dir / "3-kkks-1-1-1-0.fam"
    assert f"  wrote {path}" in out.splitlines()
    assert len(read_families(path)) == 8


def test_search_out_dir_that_is_a_file_fails_at_once(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    rc, out, err = run("search", "3", "kkks", "--out-dir", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_search_inapplicable_type_returns_one():
    rc, out, _ = run("search", "5", "kkks")
    assert rc == 1
    assert out.splitlines()[0] == "(5;2,2,1,1;1) kkks: x"


def test_search_order_without_parameter_sets_is_an_error(tmp_path):
    out_dir = tmp_path / "D"
    rc, out, err = run("search", "1", "ksss", "--out-dir", str(out_dir))
    assert rc == 2 and out == ""
    assert err == "error: no searchable parameter set of v=1\n"
    assert not out_dir.exists()


def test_search_param_restriction():
    rc, out, _ = run("search", "7", "kkks", "--param", "3,3,3,1",
                     "--no-classify")
    assert rc == 0
    assert out.splitlines()[0] == "(7;3,3,3,1;3) kkks: yes, 56 families"


@pytest.mark.parametrize("type_name", ("ksss", "kkss", "kkks"))
def test_search_rejects_orders_beyond_mask_width(type_name):
    rc, out, err = run("search", "65", type_name)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "63" in err


def test_search_unknown_param_vector():
    rc, out, err = run("search", "7", "kkks", "--param", "9,9,9,9")
    assert rc == 2 and out == ""
    assert err == "error: no searchable parameter set of v=7 has sizes 9,9,9,9\n"


def test_search_bad_param_leaves_no_output_directory(tmp_path):
    out_dir = tmp_path / "D"
    rc, out, err = run("search", "7", "kkks", "--param", "9,9,9,9",
                       "--out-dir", str(out_dir))
    assert rc == 2 and out == ""
    assert err == "error: no searchable parameter set of v=7 has sizes 9,9,9,9\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("param", ("a,b", "1,2", "3,3,3,x", "3,3,3,1,0", ""))
def test_search_param_needs_four_sizes(param):
    rc, out, err = run("search", "7", "kkks", "--param", param)
    assert rc == 2 and out == ""
    assert err == (f"error: --param needs four comma-separated sizes "
                   f"k1,k2,k3,k4, got {param!r}\n")


# ---------------------------------------------------------------- catalog

def test_catalog_list_groups():
    rc, out, _ = run("catalog", "list")
    assert rc == 0
    assert "v=33 kkss: 20 classes" in out
    assert "v=43 kkks: 5 classes" in out


def test_catalog_show_round_trips(tmp_path):
    rc, out, _ = run("catalog", "show", "--label", "43-kkks-a")
    assert rc == 0
    path = tmp_path / "fam.txt"
    path.write_text(out)
    fam = read_families(str(path))[0]
    assert str(fam.params) == "(43;21,21,21,15;35)"
    assert family_patterns([fam]) == ["kkks"]


def test_catalog_show_requires_label():
    rc, _, err = run("catalog", "show")
    assert rc == 2
    assert "--label" in err


def test_a_corrupt_catalog_is_one_error_line(monkeypatch):
    # a corrupt bundled entry is a ValueError, so the CLI reports it
    # with exit 2 and no traceback
    text = gsdf.catalog._CATALOG_TEXT
    monkeypatch.setattr(gsdf.catalog, "_CATALOG_TEXT", "33-kkks-a" + text[9:])
    catalog_entries.cache_clear()
    try:
        rc, out, err = run("catalog", "list")
    finally:
        catalog_entries.cache_clear()
    assert (rc, out, err) == (2, "", "error: corrupt catalog entry 33-kkks-a\n")


def test_catalog_verify_all():
    rc, out, _ = run("catalog", "verify-all")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "33-kkss-a (33;16,16,15,11;25) kkss: ok"
    assert len(lines) == 46 and all(ln.endswith(": ok") for ln in lines[:-1])
    assert lines[-1] == "45 entries, 0 failures"


def test_catalog_verify_all_flags_a_corrupted_entry(monkeypatch):
    entries = list(catalog_entries())
    e = entries[5]
    # move the least element x of the skew block to -x: still skew, no
    # longer a difference family
    x, *_ = e.family.blocks[0].elements
    skew = CyclicSubset(e.v, e.family.blocks[0].mask ^ 1 << x ^ 1 << -x % e.v)
    entries[5] = dataclasses.replace(e, family=Family(
        e.params, (skew,) + e.family.blocks[1:]))
    monkeypatch.setattr(gsdf.cli, "catalog_entries", lambda: tuple(entries))
    rc, out, _ = run("catalog", "verify-all")
    lines = out.splitlines()
    assert rc == 2
    assert lines[5] == f"{e.label} {e.params} {e.type_name}: FAIL"
    assert sum(ln.endswith(": ok") for ln in lines) == 44
    assert lines[-1] == "45 entries, 1 failures"


def test_catalog_unknown_label():
    rc, out, err = run("catalog", "show", "--label", "99-zzzz-q")
    assert rc == 2 and out == ""
    assert err == "error: no catalog entry '99-zzzz-q'\n"


# ---------------------------------------------------------------- table1

def test_table_listing():
    rc, out, _ = run("table1")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 45
    assert "(35;17,16,16,12;26) ksss=yes kkss=x kkks=x" in lines


def test_table_listing_up_to_an_order():
    rc, out, _ = run("table1")
    lines = out.splitlines()
    for max_v in (7, 21, 35, 49):
        rc, cut, _ = run("table1", "--max-v", str(max_v))
        assert rc == 0
        assert cut.splitlines() == [ln for ln in lines
                                    if int(ln[1:ln.index(";")]) <= max_v]
    assert len(run("table1", "--max-v", "21")[1].splitlines()) < len(lines)
    assert run("table1", "--max-v", "49")[1] == out
    rc, out, err = run("table1", "--max-v", "2")
    assert rc == 2 and out == ""
    assert err == "error: the table has no order v <= 2\n"


def test_table_recompute_small_orders():
    rc, out, _ = run("table1", "--recompute", "--max-v", "5")
    assert rc == 0
    assert out.splitlines()[-1].endswith("0 mismatches")
    assert "MISMATCH" not in out


def test_table_recompute_below_the_table_is_an_error():
    rc, out, err = run("table1", "--recompute", "--max-v", "2")
    assert rc == 2 and out == ""
    assert err == "error: the table has no order v <= 2\n"


# ---------------------------------------------------------------- plumbing

def test_jobs_default_from_environment(monkeypatch):
    seen = []
    monkeypatch.setattr(gsdf.cli, "search_order",
                        lambda v, t, options, params: seen.append(options.jobs) or [])
    monkeypatch.setenv("GSDF_JOBS", "3")
    run("search", "3", "kkks")
    run("search", "3", "kkks", "--jobs", "2")
    monkeypatch.setenv("GSDF_JOBS", "")
    run("search", "3", "kkks")
    monkeypatch.delenv("GSDF_JOBS")
    run("search", "3", "kkks")
    assert seen == [3, 2, 1, 1]


@pytest.mark.parametrize("value", ("abc", "0", "-2"))
def test_bad_jobs_environment_exits_2(row_files7, monkeypatch, value):
    skew, sym = row_files7
    monkeypatch.setenv("GSDF_JOBS", value)
    commands = (("search", "7", "kkks"),
                ("match", skew, skew, skew, sym, "--lam", "3"),
                ("table1", "--recompute", "--max-v", "5"))
    for argv in commands:
        rc, out, err = run(*argv)
        assert rc == 2 and out == ""
        assert err == f"error: GSDF_JOBS must be a positive integer, got '{value}'\n"
    # an explicit --jobs does not read the environment; other commands ignore it
    for argv in commands:
        assert run(*argv, "--jobs", "1")[0] == 0
    assert run("params", "7")[0] == 0


def test_search_and_match_drop_the_tuning_flags(row_files7):
    skew, sym = row_files7
    with pytest.raises(SystemExit), contextlib.redirect_stdout(io.StringIO()) as out:
        main(["search", "--help"])
    help_text = out.getvalue()
    assert "--jobs" in help_text
    assert "--threshold" not in help_text and "--no-filter" not in help_text
    for argv in (("search", "7", "kkks", "--threshold", "5"),
                 ("search", "7", "kkks", "--no-filter"),
                 ("match", skew, skew, skew, sym, "--lam", "3", "--threshold", "5")):
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            main(list(argv))
        assert exc.value.code == 2


def test_match_output_is_independent_of_split_limit_and_jobs(row_files7, monkeypatch):
    skew, sym = row_files7
    argv = ("match", skew, skew, skew, sym, "--lam", "3")
    rc, base, _ = run(*argv)
    assert rc == 0 and base.endswith("# 56 families\n")
    for limit in (10 ** 7, 10, 1):
        monkeypatch.setattr(gsdf.matcher, "SPLIT_LIMIT", limit)
        for jobs in ("1", "2"):
            assert run(*argv, "--jobs", jobs) == (0, base, "")


def test_match_honours_jobs_flag(row_files7, tmp_path):
    skew, sym = row_files7
    base = tmp_path / "a.txt"
    par = tmp_path / "b.txt"
    run("match", skew, skew, skew, sym, "--lam", "3", "-o", str(base))
    rc, _, _ = run("match", skew, skew, skew, sym, "--lam", "3",
                   "--jobs", "2", "-o", str(par))
    assert rc == 0
    assert base.read_text() == par.read_text()


@pytest.mark.parametrize("jobs", ("0", "-2"))
def test_non_positive_jobs_exit_2(row_files7, jobs):
    skew, sym = row_files7
    for argv in (("search", "7", "kkks"),
                 ("match", skew, skew, skew, sym, "--lam", "3"),
                 ("table1", "--recompute", "--max-v", "5"),
                 ("table1",)):
        rc, out, err = run(*argv, "--jobs", jobs)
        assert rc == 2 and out == ""
        assert err == "error: jobs must be positive\n"
