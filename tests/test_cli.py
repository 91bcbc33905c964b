"""File formats and the command-line front end: round trips, exit codes,
deterministic reports."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mscheme
from mscheme import files, scheme_isomorphism
from mscheme.cli import main
from mscheme.errors import MalformedInput


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_scheme_file_round_trip(tmp_path, isth):
    doc = files.scheme_to_doc(isth)
    path = tmp_path / "copy.json"
    files.dump_doc(doc, path)
    again = files.load_scheme(path)
    assert again == isth
    assert files.scheme_to_doc(again) == doc


def test_parse_serialize_canonicalizes(tmp_path):
    raw = {"elements": [{"id": "0", "rho": 0}, {"id": "a", "rho": 1}],
           "covers": [["0", "a"]], "comment": "tiny"}
    path = tmp_path / "tiny.json"
    with open(path, "w") as fh:
        json.dump(raw, fh)
    m = files.load_scheme(path)
    doc = files.scheme_to_doc(m)
    assert doc["elements"] == raw["elements"]
    assert doc["covers"] == raw["covers"]


def test_check_exit_codes(capsys, tmp_path):
    code, out = run_cli(capsys, "check", "scheme", "isth.json")
    assert code == 0 and "valid scheme" in out

    bad = tmp_path / "bad.json"
    bad.write_text('{"elements": [{"id": "0", "rho": 0}], "covers": "nope"}')
    code, _ = run_cli(capsys, "check", "scheme", str(bad))
    assert code == 2

    code, _ = run_cli(capsys, "check", "scheme", "no_such_file.json")
    assert code == 2

    # integer fields are refused, not truncated: a fraction, a bool
    for rho in (1.9, True):
        doc = json.loads(files.resolve_input("isth.json").read_text())
        doc["elements"][1]["rho"] = rho
        files.dump_doc(doc, bad)
        code = main(["check", "scheme", str(bad)])
        err = capsys.readouterr().err
        assert code == 2 and "input error:" in err and "not an integer" in err, rho
    semi = json.loads(files.resolve_input("semi4.json").read_text())
    semi["faces"][1]["rho"] = 0.5
    files.dump_doc(semi, bad)
    code = main(["check", "semimatroid", str(bad)])
    err = capsys.readouterr().err
    assert code == 2 and "input error:" in err and "not an integer" in err

    code, out = run_cli(capsys, "check", "geometric", "notgeom.json")
    assert code == 1 and "G2" in out

    code = main(["--cap-atoms", "-1", "check", "geometric", "notgeom.json"])
    captured = capsys.readouterr()
    assert code == 2 and "input error:" in captured.err and "Traceback" not in captured.err
    assert not captured.out

    code, out = run_cli(capsys, "check", "semimatroid", "semi4.json")
    assert code == 0 and "valid semimatroid" in out


def test_check_rejects_scheme_axiom_violation(capsys, tmp_path):
    doc = files.scheme_to_doc(files.load_scheme(files.resolve_input("cw_r.json")))
    doc["elements"][1]["rho"] = 0  # atom "1"
    path = tmp_path / "bad_scheme.json"
    files.dump_doc(doc, path)
    code, out = run_cli(capsys, "check", "scheme", str(path))
    assert code == 1 and "M4" in out


def test_invariants_output(capsys):
    code, out = run_cli(capsys, "invariants", "nonpos.json")
    assert code == 0
    assert "tutte: x^3 + 3*x - 2" in out
    code, out = run_cli(capsys, "invariants", "dow_triv.json")
    assert "tutte: x^2 + 4*x + 3 + 4*y + 2*y^2" in out
    assert "characteristic: t^2 - 6*t + 8" in out


def test_invariants_singleton(capsys, tmp_path):
    path = tmp_path / "single.json"
    files.dump_doc({"elements": [{"id": "0", "rho": 0}], "covers": []}, path)
    code, out = run_cli(capsys, str("invariants"), str(path))
    assert code == 0 and "tutte: 1" in out


def test_invariants_deterministic(capsys):
    _, first = run_cli(capsys, "invariants", "dow_nontriv.json")
    _, second = run_cli(capsys, "invariants", "dow_nontriv.json")
    assert first == second


def test_transform_delete(capsys, tmp_path, monkeypatch):
    out_file = tmp_path / "deleted.json"
    code, out = run_cli(capsys, "transform", "delete", "isth.json",
                        "--atom", "a", "--out", str(out_file))
    assert code == 0 and "result: 2 elements, rank 1" in out
    m = files.load_scheme(out_file)
    assert m.elements == ("0", "b")


def test_transform_simplify(capsys, tmp_path):
    out_file = tmp_path / "simple.json"
    code, out = run_cli(capsys, "transform", "simplify", "cw_r.json",
                        "--out", str(out_file))
    assert code == 0 and "result: 3 elements" in out


def test_transform_simplify_honours_cap_atoms(capsys, tmp_path):
    """A bottom below 21 atoms is a simple rank-1 scheme; ``simplify``
    sweeps its flats under ``--cap-atoms``, as ``check geometric`` does."""
    path = tmp_path / "star21.json"
    files.dump_doc({"elements": [{"id": "0", "rho": 0}] + [{"id": f"a{k}", "rho": 1} for k in range(21)],
                    "covers": [["0", f"a{k}"] for k in range(21)]}, path)
    out_file = tmp_path / "simple.json"
    code, out = run_cli(capsys, "transform", "simplify", str(path), "--out", str(out_file))
    assert code == 1 and "verdict: 21 atoms exceed the configured cap 20" in out
    assert not out_file.exists()
    code, out = run_cli(capsys, "--cap-atoms", "21", "transform", "simplify", str(path),
                        "--out", str(out_file))
    assert code == 0 and "result: 22 elements, rank 1" in out


def test_transform_restrict_names_the_first_non_atom_under_every_hash_seed(tmp_path):
    """Of the ids given to ``--atoms`` the first that is not an atom is
    named, so stdout is the same whatever the string hash seed."""
    outs = set()
    for seed in "0123":
        run = subprocess.run(
            [sys.executable, "-m", "mscheme.cli", "transform", "restrict", "--atoms", "a,b",
             "--out", str(tmp_path / "x.json"), "cw_l.json"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONHASHSEED": seed},
            cwd=Path(mscheme.__file__).parents[1])
        assert run.returncode == 1, run.stderr
        outs.add(run.stdout)
    assert len(outs) == 1 and "verdict: 'a' is not an atom\n" in outs.pop()


def test_transform_simplify_escapes_colliding_pair_ids(capsys, tmp_path):
    """With a "|" in the ids, the pairs ({p,q}, r|s) and ({p,q|r}, s) of the
    simplification would both be named (p,q|r|s), so every pair id of that
    scheme escapes "\\", "," and "|" inside the ids it joins."""
    tops = {"r|s": ("p", "q"), "s": ("p", "q|r"), "u": ("q", "q|r")}
    doc = {"elements": [{"id": e, "rho": r} for e, r in
                        [("0", 0), ("p", 1), ("q", 1), ("q|r", 1),
                         ("r|s", 2), ("s", 2), ("u", 2), ("t", 3)]],
           "covers": [["0", a] for a in ("p", "q", "q|r")]
           + [[a, x] for x, pair in tops.items() for a in pair]
           + [[x, "t"] for x in tops]}
    path = tmp_path / "pipes.json"
    path.write_text(json.dumps(doc))
    out_file = tmp_path / "x.json"
    code = main(["transform", "simplify", str(path), "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 0
    assert "result: 8 elements, rank 3" in captured.out.splitlines()
    assert "Traceback" not in captured.err
    m = files.load_scheme(out_file)
    assert m.elements == ("(|0)", "(p|p)", "(q|q)", "(q\\|r|q\\|r)", "(p,q|r\\|s)",
                          "(p,q\\|r|s)", "(q,q\\|r|u)", "(p,q,q\\|r|t)")
    assert scheme_isomorphism(m, files.load_scheme(path)) is not None


def test_transform_contract_bottom_is_identity(capsys, tmp_path, isth):
    out_file = tmp_path / "same.json"
    code, _ = run_cli(capsys, "transform", "contract", "isth.json",
                      "--element", "0", "--out", str(out_file))
    assert code == 0
    assert files.load_scheme(out_file) == isth


def test_transform_unknown_element(capsys, tmp_path):
    code, out = run_cli(capsys, "transform", "delete", "isth.json",
                        "--atom", "zz", "--out", str(tmp_path / "x.json"))
    assert code == 1


def test_transform_missing_option_is_an_input_error(capsys, tmp_path):
    """delete, contract and restrict without their option exit 2 with the
    message on stderr, and write nothing."""
    for op, flag in (("delete", "--atom"), ("contract", "--element"),
                     ("restrict", "--atoms")):
        code = main(["transform", op, "isth.json", "--out", str(tmp_path / "x.json")])
        captured = capsys.readouterr()
        assert code == 2, op
        assert f"input error: missing required option {flag}" in captured.err, op
        assert "Traceback" not in captured.err and "verdict" not in captured.out, op
    assert not list(tmp_path.iterdir())


def test_construct_uniform(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "construct", "uniform", "1", "2")
    assert code == 0
    m = files.load_scheme(tmp_path / "constructed_uniform_1_2.json")
    from mscheme import tutte_direct
    assert str(tutte_direct(m)) == "x + y"


def test_construct_toric_then_iso(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "construct", "toric", "toric1.json")
    assert code == 0 and "geometric certificate: 5 layers" in out
    code, out = run_cli(capsys, "iso", str(tmp_path / "constructed_toric1.json"),
                        "isth.json")
    assert code == 0 and "verdict: isomorphic" in out


def test_construct_dowling(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "construct", "dowling", "-n", "2",
                        "--group", "z2.json", "--action", "t2_trivial.json")
    assert code == 0 and "result: 31 elements, rank 2" in out
    built = files.load_scheme(tmp_path / "constructed_dowling_2.json")
    assert built == files.load_scheme(files.resolve_input("dow_triv.json"))


def test_construct_dowling_caps_the_scheme_elements(capsys, tmp_path, monkeypatch):
    """The n = 4 Dowling scheme over Z2 with two points has 135,281
    elements; ``errors.ELEMENT_CAP`` (2^16) refuses it with exit 1 once
    the pair walk passes the cap, before any mask is built.  The scheme's
    poset builder is stubbed for that run, so a missing cap fails here
    instead of building the scheme.  With the cap set below the 31
    elements of n = 2 it refuses n = 2, and with a cap of 31 builds it."""
    import mscheme.geometric

    def unreachable(*args):
        raise AssertionError("the scheme's poset was built past the element cap")

    monkeypatch.chdir(tmp_path)
    action = ["--group", "z2.json", "--action", "t2_trivial.json"]
    with monkeypatch.context() as mp:
        mp.setattr(mscheme.geometric, "_certified", unreachable)
        code, out = run_cli(capsys, "construct", "dowling", "-n", "4", *action)
    assert code == 1
    assert "error: simple scheme size at least 65537 exceeds the configured cap 65536" in out
    monkeypatch.setattr(mscheme.errors, "ELEMENT_CAP", 30)
    code, out = run_cli(capsys, "construct", "dowling", "-n", "2", *action)
    assert code == 1
    assert "error: simple scheme size at least 31 exceeds the configured cap 30" in out
    assert not list(tmp_path.iterdir())
    monkeypatch.setattr(mscheme.errors, "ELEMENT_CAP", 31)
    code, out = run_cli(capsys, "construct", "dowling", "-n", "2", *action)
    assert code == 0 and "result: 31 elements, rank 2" in out


def test_construct_dowling_g2_witness_is_the_same_under_every_hash_seed(tmp_path):
    """Z4 acting on two points through Z4 -> Z2 fails G2 for n = 2 on a
    witness holding a set of two atoms; the set is written with sorted
    members, so stdout is the same whatever the string hash seed (seed 4
    once wrote the two members the other way round)."""
    z4 = ["e", "g", "g^2", "g^3"]
    (tmp_path / "z4.json").write_text(json.dumps(
        {"elements": z4, "table": [[z4[(i + j) % 4] for j in range(4)] for i in range(4)]}))
    (tmp_path / "z4_on_2.json").write_text(json.dumps(
        {"points": ["p0", "p1"], "rows": [["p0", "p1"], ["p1", "p0"]] * 2}))
    outs = set()
    for seed in "01234":
        run = subprocess.run(
            [sys.executable, "-m", "mscheme.cli", "construct", "dowling", "-n", "2",
             "--group", "z4.json", "--action", "z4_on_2.json"],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": str(Path(mscheme.__file__).parents[1])})
        assert run.returncode == 1, run.stderr
        outs.add(run.stdout)
    assert len(outs) == 1
    assert ("error: G2 fails on witness ('[{1:e,2:e}|]', frozenset({'[{1:e,2:g^3}|]', "
            "'[{1:e,2:g}|]'}), '[|1:p0,2:p1]')\n") in outs.pop()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["z4.json", "z4_on_2.json"]


def test_construct_dowling_refuses_large_ground_sets_up_front(capsys, tmp_path,
                                                             monkeypatch):
    """A ground set of n points has at least 2^(n-1) partitions, so an n
    whose count passes the partition cap is refused before any is listed:
    no recursion error at n = 2000, no memory error at n = 10^12."""
    monkeypatch.chdir(tmp_path)
    for n in ("15", "2000", "1000000000000"):
        code = main(["construct", "dowling", "-n", n, "--group", "z2.json",
                     "--action", "t2_trivial.json"])
        captured = capsys.readouterr()
        assert code == 1 and "Traceback" not in captured.err, n
        assert "error: partition poset size at least 16384 exceeds the configured cap 10000" \
            in captured.out, n
    assert not list(tmp_path.iterdir())


def test_construct_toric_refuses_a_multiplicity_past_the_element_cap(capsys, tmp_path,
                                                                     monkeypatch):
    """The circles (1,0) and (1,10^6) through the identity meet in 10^6
    points, all layers: the cut is refused from its multiplicity before
    any piece is listed."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "far.json").write_text(json.dumps({"n": 2, "characters": [
        {"alpha": [1, 0], "phase": "0"}, {"alpha": [1, 1000000], "phase": "0"}]}))
    code = main(["construct", "toric", "far.json"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    assert "error: layer poset size at least 1000000 exceeds the configured cap 65536" \
        in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["far.json"]


def test_construct_toric_phase_past_the_int_digit_limit_is_no_traceback(tmp_path):
    """With Python's int string limit pinned at 4300 digits, a file phase
    of 1/10^5000 cannot be written: it is an input error (exit 2).  A file
    phase of 1/10^4299 can, but the cut by (1,10) divides it by g = 10, and
    the layer it makes is a one-line error (exit 1).  Nothing is written."""
    cases = (([{"alpha": [1], "phase": "1e-5000"}], 1, 2, "input error: ", ""),
             ([{"alpha": [1, 0], "phase": "1/1" + "0" * 4299},
               {"alpha": [1, 10], "phase": "0"}], 2, 1, "", "\nerror: a layer id is too long"))
    for k, (chars, n, code, err, out) in enumerate(cases):
        path = tmp_path / f"arr{k}.json"
        files.dump_doc({"n": n, "characters": chars}, path)
        run = subprocess.run(
            [sys.executable, "-m", "mscheme.cli", "construct", "toric", str(path),
             "--out", str(tmp_path / "o.json")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"},
            cwd=Path(mscheme.__file__).parents[1])
        assert run.returncode == code and "Traceback" not in run.stderr, run.stderr
        assert err in run.stderr and out in run.stdout, (run.stdout, run.stderr)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["arr0.json", "arr1.json"]


def test_construct_quotient(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "construct", "quotient",
                        "--semimatroid", "semi4.json", "--group", "z2.json",
                        "--action", "z2_swap.json")
    assert code == 0 and "quotient tutte: x^2 + 1" in out


def test_construct_linear(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "construct", "linear", "i2.json")
    assert code == 0 and "rank 2" in out


def test_export_dot(capsys):
    code, out = run_cli(capsys, "export", "dot", "isth.json")
    assert code == 0
    assert out.count("->") == 6
    assert out.count("label=") == 5
    assert '"a" [label="a : 1"]' in out


def test_export_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    """Ids are written inside DOT double quotes with "\\" and '"' escaped,
    in node names, labels and edges alike."""
    path = tmp_path / "quoted.json"
    files.dump_doc({"elements": [{"id": "0", "rho": 0}, {"id": 'a"b\\', "rho": 1}],
                    "covers": [["0", 'a"b\\']]}, path)
    code, out = run_cli(capsys, "export", "dot", str(path))
    assert code == 0
    assert out.splitlines()[3:] == [
        '  { rank=same; "0" }',
        r'  { rank=same; "a\"b\\" }',
        '  "0" [label="0 : 0"];',
        r'  "a\"b\\" [label="a\"b\\ : 1"];',
        r'  "0" -> "a\"b\\";',
        "}",
    ]


@pytest.mark.parametrize("argv", [["transform", "delete", "isth.json", "--atom", "a"],
                                  ["construct", "toric", "toric1.json"],
                                  ["export", "dot", "isth.json"]])
@pytest.mark.parametrize("where", ["missing directory", "existing directory"])
def test_unwritable_out_is_an_input_error(capsys, tmp_path, monkeypatch, argv, where):
    """An --out that cannot be written (its directory is missing, or it is
    a directory) exits 2 naming the path, with no traceback."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "missing" / "out" if where == "missing directory" else tmp_path
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and f"input error: cannot write {out}: " in err, err
    assert "Traceback" not in err and not (tmp_path / "missing").exists()


def test_non_utf8_input_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code = main(["check", "scheme", str(bad)])
    err = capsys.readouterr().err
    assert code == 2 and f"input error: cannot read {bad}: " in err, err


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, monkeypatch):
    """Arrays nested past the JSON decoder's recursion limit exit 2 with a
    message, for every command and option that reads a file, and never
    give a ``RecursionError`` traceback."""
    monkeypatch.chdir(tmp_path)
    depth = 100_000  # past the decoder's limit on every supported Python
    (tmp_path / "nested.json").write_text("[" * depth + "]" * depth)
    quotient = ["construct", "quotient", "--semimatroid", "semi4.json",
                "--group", "z2.json", "--action", "z2_swap.json"]
    dowling = ["construct", "dowling", "-n", "2", "--group", "z2.json",
               "--action", "t2_trivial.json"]
    argvs = [["check", kind, "nested.json"] for kind in ("scheme", "geometric", "semimatroid")]
    argvs += [["invariants", "nested.json"], ["export", "dot", "nested.json"],
              ["iso", "nested.json", "isth.json"], ["iso", "isth.json", "nested.json"],
              ["construct", "linear", "nested.json"], ["construct", "toric", "nested.json"]]
    argvs += [["transform", op, "nested.json", *extra] for op, extra in (
        ("delete", ["--atom", "a"]), ("contract", ["--element", "a"]),
        ("restrict", ["--atoms", "a"]), ("simplify", []))]
    for cmd in (quotient, dowling):
        argvs += [cmd[:k + 1] + ["nested.json"] + cmd[k + 2:]
                  for k, arg in enumerate(cmd) if arg.startswith("--")]
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and "input error: cannot read nested.json" in captured.err, argv
        assert "Traceback" not in captured.err and "verdict" not in captured.out, argv
    assert [p.name for p in tmp_path.iterdir()] == ["nested.json"]


def test_iso_distinguishes_the_partition_fixtures(capsys):
    code, out = run_cli(capsys, "iso", "dow_triv.json", "dow_nontriv.json")
    assert code == 1 and "not isomorphic" in out


# iso ROW COLUMN on the files below, by row (first file) and column (second
# file): "iso" and "non" are the two verdicts, "cyc" the cycle of cyc.json
# (exit 1), and a file's name the input error that ends the run (exit 2).
# isth is a scheme whose rho is its graded rank, dow_triv a scheme whose rho
# is not, notgeom a ranked poset and no scheme, invalid neither.
ISO_MATRIX = """
            isth      dow_triv  notgeom   cyc   invalid   missing
isth        iso       non       non       cyc   invalid   missing
dow_triv    non       iso       dow_triv  cyc   dow_triv  missing
notgeom     non       dow_triv  iso       cyc   invalid   missing
cyc         cyc       cyc       cyc       cyc   cyc       cyc
invalid     invalid   invalid   invalid   invalid invalid invalid
missing     missing   missing   missing   missing missing missing
"""
CYCLE = "error: cover relation contains a cycle: a < b < a\n"
INPUT_ERRORS = {
    "dow_triv": "dow_triv.json: rho of '([{1:e,2:e}|],[{1:e,2:g}|],[{1:e}|2:+1]|[|1:+1,2:+1])' "
                "is 2 but the graded rank is 3",
    "invalid": "invalid.json: rho of 'a' is 2 but the graded rank is 1",
    "missing": "no such file: missing.json",
}


def _iso_matrix_files(tmp_path, monkeypatch) -> list:
    """The files of ``ISO_MATRIX`` in tmp_path, made the working directory,
    so no message names a fixture directory; the parsed paths are listed."""
    monkeypatch.chdir(tmp_path)
    for name in ("isth", "dow_triv", "notgeom"):
        (tmp_path / f"{name}.json").write_bytes(files.resolve_input(f"{name}.json").read_bytes())
    (tmp_path / "cyc.json").write_text(
        '{"elements": [{"id": "a", "rho": 0}, {"id": "b", "rho": 1}], '
        '"covers": [["a", "b"], ["b", "a"]]}')
    (tmp_path / "invalid.json").write_text(
        '{"elements": [{"id": "0", "rho": 0}, {"id": "a", "rho": 2}], "covers": [["0", "a"]]}')
    parsed = []

    def parse(doc, path="<doc>"):
        parsed.append(str(path))
        return parse_poset_doc(doc, path)

    parse_poset_doc = files.parse_poset_doc
    monkeypatch.setattr(files, "parse_poset_doc", parse)
    return parsed


def _run_without_elapsed(capsys, argv) -> tuple:
    code = main(argv)
    captured = capsys.readouterr()
    err = "".join(line for line in captured.err.splitlines(True)
                  if not line.startswith("elapsed: "))
    return code, captured.out, err


def test_iso_blames_the_file_it_cannot_read(capsys, tmp_path, monkeypatch):
    """Exit code, stdout and stderr of every pair of ``ISO_MATRIX``.  Each
    file is parsed at most once, in argument order, so a valid scheme is
    not read again as a ranked poset when the second file cannot be read:
    ``iso dow_triv.json cyc.json`` names the cycle, not dow_triv's rho."""
    parsed = _iso_matrix_files(tmp_path, monkeypatch)
    rows = [line.split() for line in ISO_MATRIX.strip().splitlines()]
    for row in rows[1:]:
        for column, outcome in zip(rows[0], row[1:]):
            a, b = f"{row[0]}.json", f"{column}.json"
            parsed.clear()
            code, out, err = _run_without_elapsed(capsys, ["iso", a, b])
            echo = f"command: iso cap_atoms=20 path1={a} path2={b}\n"
            if outcome == "iso":  # the identity, in the order the search places it
                head, *placed = out.splitlines(True)[1:]
                out = echo + head + "".join(sorted(placed))
                ids = sorted(e["id"] for e in json.loads((tmp_path / a).read_text())["elements"])
                want = (0, echo + "verdict: isomorphic\n"
                        + "".join(sorted(f"  {e} -> {e}\n" for e in ids)), "")
            elif outcome == "non":
                want = (1, echo + "verdict: not isomorphic\n", "")
            elif outcome == "cyc":
                want = (1, echo + CYCLE, "")
            else:
                want = (2, echo, f"input error: {INPUT_ERRORS[outcome]}\n")
            assert (code, out, err) == want, (a, b)
            assert parsed == [a, b][:len(parsed)], (a, b, parsed)


def test_export_dot_parses_its_file_once(capsys, tmp_path, monkeypatch):
    """A scheme is drawn with its labels, a ranked poset with its ranks,
    and a file that is neither or cannot be read gives its error; the
    file is parsed once."""
    parsed = _iso_matrix_files(tmp_path, monkeypatch)
    isth, dow_triv = (files.load_scheme(f"{name}.json") for name in ("isth", "dow_triv"))
    notgeom = files.load_ranked_poset("notgeom.json")
    want = {"isth": (0, files.to_dot(isth.s, isth.rhos), ""),
            "dow_triv": (0, files.to_dot(dow_triv.s, dow_triv.rhos), ""),
            "notgeom": (0, files.to_dot(notgeom, notgeom.ranks), ""),
            "cyc": (1, CYCLE, "")}
    want.update((name, (2, "", f"input error: {message}\n"))
                for name, message in INPUT_ERRORS.items() if name != "dow_triv")
    for name, outcome in want.items():
        parsed.clear()
        assert _run_without_elapsed(capsys, ["export", "dot", f"{name}.json"]) == outcome, name
        assert parsed == [f"{name}.json"][:len(parsed)], (name, parsed)


def test_a_file_past_the_element_cap_is_refused_before_its_poset_is_built(
        capsys, tmp_path, monkeypatch):
    """A chain of ``errors.ELEMENT_CAP`` + 1 elements exits 1 with
    ``SizeCapExceeded`` for every command that reads a scheme or poset
    file, and no poset is built; a chain of exactly the cap is read."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(mscheme.errors, "ELEMENT_CAP", 8)

    def chain(n):
        return {"elements": [{"id": f"e{i}", "rho": min(i, 1)} for i in range(n)],
                "covers": [[f"e{i}", f"e{i + 1}"] for i in range(n - 1)]}

    files.dump_doc(chain(9), tmp_path / "long.json")
    files.dump_doc(chain(8), tmp_path / "cap.json")
    argvs = [["check", "scheme", "long.json"], ["check", "geometric", "long.json"],
             ["invariants", "long.json"], ["export", "dot", "long.json"],
             ["iso", "long.json", "isth.json"], ["iso", "isth.json", "long.json"],
             ["transform", "simplify", "long.json"]]
    build_poset = files.build_poset

    def capped(ids, covers):
        if len(ids) > 8:
            raise AssertionError("a poset was built past the element cap")
        return build_poset(ids, covers)

    with monkeypatch.context() as mp:
        mp.setattr(files, "build_poset", capped)
        for argv in argvs:
            code, out, err = _run_without_elapsed(capsys, argv)
            assert code == 1 and err == "", argv
            assert out.endswith("error: poset size 9 exceeds the configured cap 8\n"), argv
    code, out, _ = _run_without_elapsed(capsys, ["check", "scheme", "cap.json"])
    assert code == 1 and "error: down-set of 'e2' is not a Boolean lattice" in out, out
    assert [p.name for p in sorted(tmp_path.iterdir())] == ["cap.json", "long.json"]


def test_fixture_env_override(tmp_path, monkeypatch, isth):
    alt = tmp_path / "isth.json"
    doc = files.scheme_to_doc(isth)
    doc["elements"][0]["id"] = "bottom"
    doc["covers"] = [[("bottom" if a == "0" else a), b] for a, b in doc["covers"]]
    files.dump_doc(doc, alt)
    monkeypatch.setenv(files.FIXTURE_ENV, str(tmp_path))
    m = files.load_scheme(files.resolve_input("isth.json"))
    assert "bottom" in m.elements


def test_construct_uniform_needs_two_arguments(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["construct", "uniform", "2"])
    err = capsys.readouterr().err
    assert code == 2 and "input error:" in err and "Traceback" not in err


def test_construct_uniform_refuses_rank_outside_ground_size(capsys, tmp_path,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    for r, n in (("3", "2"), ("-1", "3")):
        code = main(["construct", "uniform", r, n])
        err = capsys.readouterr().err
        assert code == 2 and "input error:" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_construct_matroids_cap_ground_sets_at_16(capsys, tmp_path, monkeypatch):
    """`construct uniform` and `construct linear` list the subsets of a
    ground set of 16 elements and refuse 17 or 40 with exit 1, the cap
    named, before any of the 2^n subsets is built."""
    import itertools
    import types

    from mscheme import constructions

    reached = []

    def combinations(*args):  # the first step of both constructors that builds a subset
        reached.append(args)
        raise MalformedInput("constructor reached")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(constructions, "itertools", types.SimpleNamespace(
        **{**vars(itertools), "combinations": combinations}))
    for n in (16, 17, 40):
        (tmp_path / "wide.json").write_text(json.dumps({"matrix": [[1] * n]}))
        for argv in (["uniform", "2", str(n)], ["linear", "wide.json"]):
            del reached[:]
            code = main(["construct", *argv])
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            if n == 16:
                assert code == 2 and len(reached) == 1, (argv, captured)
                assert "constructor reached" in captured.err
            else:
                assert code == 1 and not reached, (argv, captured)
                assert f"error: ground set size {n} exceeds the configured cap 16" \
                    in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.json"]


def test_cover_endpoints_must_be_element_ids(capsys, tmp_path):
    path = tmp_path / "bad_covers.json"
    # a two-character string is not the pair of its characters
    for covers in ([[0, 1]], [[["0"], "1"]], ["01"], "01", [["0", "1", "1"]]):
        files.dump_doc({"elements": [{"id": "0", "rho": 0}, {"id": "1", "rho": 1}],
                        "covers": covers}, path)
        code = main(["invariants", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and "input error:" in err and "Traceback" not in err


def test_long_cover_cycle_is_reported_not_a_recursion_error(capsys, tmp_path):
    """A 3000-element cycle of covers is named by the cycle search, which
    keeps its own stack."""
    n = 3000
    path = tmp_path / "cycle.json"
    files.dump_doc({"elements": [{"id": f"e{i}", "rho": 0} for i in range(n)],
                    "covers": [[f"e{i}", f"e{(i + 1) % n}"] for i in range(n)]}, path)
    code = main(["check", "scheme", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "error: cover relation contains a cycle: e0 < e1 < " in out
    assert out.count(" < ") == n


def test_invariants_on_1100_parallel_atoms_is_not_a_recursion_error(tmp_path):
    """A bottom below 1,100 atoms of label 1 is a valid rank-1 scheme whose
    deletion-contraction chain is 1,100 deletions deep; the recursion keeps
    its own stack, so ``invariants`` reports the Tutte polynomial."""
    n = 1100
    path = tmp_path / "parallel.json"
    files.dump_doc({"elements": [{"id": "0", "rho": 0}] + [{"id": f"a{k}", "rho": 1} for k in range(n)],
                    "covers": [["0", f"a{k}"] for k in range(n)]}, path)
    run = subprocess.run([sys.executable, "-m", "mscheme.cli", "invariants", str(path)],
                         capture_output=True, text=True, timeout=120,
                         cwd=Path(mscheme.__file__).parents[1])
    assert run.returncode == 0, run.stderr
    assert "tutte: x + 1099\n" in run.stdout
    assert "Traceback" not in run.stderr and "Error" not in run.stderr, run.stderr


def test_invariants_rejects_non_string_ids(capsys, tmp_path):
    path = tmp_path / "int_ids.json"
    files.dump_doc({"elements": [{"id": 0, "rho": 0}, {"id": 1, "rho": 1}],
                    "covers": [[0, 1]]}, path)
    code = main(["invariants", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "not a string" in err


def test_inline_group_shape_faults_are_input_errors(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    action = json.loads(files.resolve_input("t2_trivial.json").read_text())
    for group in ({"elements": ["e", "g"], "table": [["e", "g"]]},
                  {"table": [["e", "g"], ["g", "e"]]}):
        path = tmp_path / "action.json"
        files.dump_doc(dict(action, group=group), path)
        code = main(["construct", "dowling", "-n", "2", "--action", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and "input error:" in err and "inline group" in err


def test_name_list_fields_refuse_other_shapes(capsys, tmp_path, monkeypatch):
    """A string, a number or a nested list where an action, group,
    semimatroid or matrix document holds a list of names, a matrix's
    names list of the wrong length, a name listed twice where a document
    declares names, or a face listed in two rows, exits 2, never 0 or 1."""
    monkeypatch.chdir(tmp_path)
    action = json.loads(files.resolve_input("t2_trivial.json").read_text())
    swap = json.loads(files.resolve_input("z2_swap.json").read_text())
    group = json.loads(files.resolve_input("z2.json").read_text())
    semi = json.loads(files.resolve_input("semi4.json").read_text())
    cases = []
    for rows in ([1, 2], "ab", [["e"], "ab"], [[["e"]], [["g"]]]):
        cases.append((["construct", "dowling", "-n", "2", "--group", "z2.json"],
                      "--action", dict(action, rows=rows)))
    cases.append((["construct", "quotient", "--semimatroid", "semi4.json",
                   "--group", "z2.json"], "--action", dict(swap, points="ab")))
    for elements in ("ab", ["e", 1]):
        cases.append((["construct", "dowling", "-n", "2", "--action", "t2_trivial.json"],
                      "--group", dict(group, elements=elements)))
    cases.append((["construct", "dowling", "-n", "2", "--action", "t2_trivial.json"],
                  "--group", dict(group, table=[["e", ["g"]], ["g", "e"]])))
    for members in ("", "a1", [["a1"]]):
        faces = [dict(semi["faces"][0], members=members)] + semi["faces"][1:]
        cases.append((["check", "semimatroid"], None, dict(semi, faces=faces)))
    cases.append((["check", "semimatroid"], None, dict(semi, vertices="ab")))
    for names in ("ab", [1, 2], [["a"], "b"], 5, ["a"], ["a", "b", "c"], ["a", "a"]):
        cases.append((["construct", "linear"], None, {"matrix": [[1, 0], [0, 1]], "names": names}))
    cases += [
        (["construct", "dowling", "-n", "2", "--action", "t2_trivial.json"], "--group",
         {"elements": ["e", "e"], "table": [["e", "e"], ["e", "e"]]}),
        (["construct", "dowling", "-n", "2", "--group", "z2.json"], "--action",
         {"points": ["+1", "+1"], "rows": [["+1", "+1"], ["+1", "+1"]]}),
        (["check", "semimatroid"], None,
         {"vertices": ["a", "a"], "faces": [{"members": [], "rho": 0},
                                            {"members": ["a"], "rho": 1}]}),
        (["check", "semimatroid"], None, dict(semi, faces=[
            dict(f, members=["a1", "a1"]) if f["members"] == ["a1"] else f
            for f in semi["faces"]])),
        (["check", "semimatroid"], None, dict(semi, faces=semi["faces"] + [
            dict(semi["faces"][-1], members=semi["faces"][-1]["members"][::-1])]))]
    for k, (argv, flag, doc) in enumerate(cases):
        path = tmp_path / f"doc{k}.json"
        files.dump_doc(doc, path)
        argv = argv + ([flag, str(path)] if flag else [str(path)])
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and "input error:" in captured.err, argv
        assert "Traceback" not in captured.err and "verdict" not in captured.out, argv
    assert {p.name for p in tmp_path.iterdir()} == {f"doc{k}.json" for k in range(len(cases))}


def test_row_array_fields_refuse_other_shapes(capsys, tmp_path, monkeypatch):
    """A string or an object where a scheme, semimatroid, arrangement or
    matrix document holds an array of rows, or a matrix holds a row, exits
    2 and writes nothing; read as no rows it would exit 0 or 1."""
    monkeypatch.chdir(tmp_path)
    semi = json.loads(files.resolve_input("semi4.json").read_text())
    toric = json.loads(files.resolve_input("toric1.json").read_text())
    cases = []
    for bad in ("", {}):
        cases += [(["check", "scheme"], {"elements": bad, "covers": []}),
                  (["check", "scheme"], {"elements": [{"id": "a", "rho": 0}], "covers": bad}),
                  (["check", "semimatroid"], dict(semi, faces=bad)),
                  (["construct", "toric"], dict(toric, characters=bad)),
                  (["construct", "linear"], {"matrix": bad}),
                  (["construct", "linear"], {"matrix": [bad]})]
    for k, (argv, doc) in enumerate(cases):
        path = tmp_path / f"doc{k}.json"
        files.dump_doc(doc, path)
        code = main(argv + [str(path)])
        captured = capsys.readouterr()
        assert code == 2 and "input error:" in captured.err, (argv, doc)
        assert "Traceback" not in captured.err and "verdict" not in captured.out, argv
    assert {p.name for p in tmp_path.iterdir()} == {f"doc{k}.json" for k in range(len(cases))}


def test_construct_option_faults_are_input_errors(capsys, tmp_path, monkeypatch,
                                                 tmp_path_factory):
    monkeypatch.chdir(tmp_path)
    action = ["--group", "z2.json", "--action", "t2_trivial.json"]
    inputs = tmp_path_factory.mktemp("inputs")
    matrices = []
    for k, matrix in enumerate(([[1.5, 0, 1], [0, 1, 1]], [[True, 0], [0, 1]],
                                [[1, 0], [0]])):
        matrices.append(inputs / f"matrix{k}.json")
        files.dump_doc({"matrix": matrix}, matrices[-1])
    for argv in (["construct", "dowling", *action],
                 ["construct", "dowling", "-n", "abc", *action],
                 ["construct", "dowling", "-n", "-1", *action],
                 ["construct", "dowling", "-n", "2", "--group", "z2.json"],
                 ["construct", "dowling", "extra", "-n", "2", *action],
                 ["construct", "quotient", "--group", "z2.json", "--action", "z2_swap.json"],
                 ["construct", "quotient", "extra", "--semimatroid", "semi4.json",
                  "--group", "z2.json", "--action", "z2_swap.json"],
                 ["construct", "quotient", "--semimatroid", "semi4.json", "--group", "z2.json"],
                 ["--cap-atoms", "-1", "construct", "toric", "toric1.json"],
                 *(["construct", "linear", str(m)] for m in matrices)):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2 and "input error:" in err and "Traceback" not in err, argv
    assert not list(tmp_path.iterdir())


def test_construct_poset_file_drops_only_a_trailing_json(capsys, tmp_path, monkeypatch):
    """The certificate poset is written to the --out path with one trailing
    ".json" dropped and ".poset.json" added; a ".json" elsewhere in the
    path is kept."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json.d").mkdir()
    dowling = ["construct", "dowling", "-n", "2", "--group", "z2.json",
               "--action", "t2_trivial.json"]
    for argv, out, poset in ((["construct", "toric", "toric1.json"], "a.json.d/out.json",
                              "a.json.d/out.poset.json"),
                             (dowling, "res.jsonl", "res.jsonl.poset.json"),
                             (dowling, "res.json", "res.poset.json")):
        code, printed = run_cli(capsys, *argv, "--out", out)
        assert code == 0 and printed.splitlines()[-2:] == [f"wrote: {out}",
                                                           f"wrote: {poset}"], argv
        files.load_scheme(tmp_path / out)
        files.load_ranked_poset(tmp_path / poset)
    assert {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()} == {
        "a.json.d/out.json", "a.json.d/out.poset.json", "res.jsonl",
        "res.jsonl.poset.json", "res.json", "res.poset.json"}


def test_arrangement_faults_are_input_errors(capsys, tmp_path):
    """A file that cannot be read as an arrangement exits 2, not 1."""
    path = tmp_path / "arr.json"
    for n, alphas in (("x", []), (2, [[0, 0]]), (2, [[2, 4]]),
                      (2, [[1, 1], [-1, -1]]), (2, [[1, 1, 1]]), (-1, []),
                      (2.7, []), (True, []), (2, [[1.5, 0]]), (2, [[True, 0]])):
        files.dump_doc({"n": n, "characters": [{"alpha": a, "phase": "0"}
                                               for a in alphas]}, path)
        code = main(["construct", "toric", str(path), "--out", str(tmp_path / "o.json")])
        captured = capsys.readouterr()
        assert code == 2 and "input error:" in captured.err, (n, alphas)
        assert "Traceback" not in captured.err and "error:" not in captured.out


def _ranked_doc(ranks, covers):
    return {"elements": [{"id": e, "rho": r} for e, r in ranks],
            "covers": [list(c) for c in covers]}


G1_CASES = {
    # two minimal upper bounds of a, b under the one top
    "bowtie": (_ranked_doc([("0", 0), ("a", 1), ("b", 1), ("c", 2), ("d", 2), ("t", 3)],
                           [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
                            ("b", "c"), ("b", "d"), ("c", "t"), ("d", "t")]),
               "witness: (t, lattice, (a, b, join))"),
    # the join of the atoms a, b has rank 3
    "nonsemi": (_ranked_doc([("0", 0), ("a", 1), ("b", 1), ("c", 1), ("x", 2), ("y", 2), ("t", 3)],
                            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "x"), ("c", "x"),
                             ("b", "y"), ("c", "y"), ("x", "t"), ("y", "t")]),
                "witness: (t, semimodular, (a, b))"),
    # y lies above a single atom
    "nonatomic": (_ranked_doc([("0", 0), ("a", 1), ("b", 1), ("x", 2), ("y", 2)],
                              [("0", "a"), ("0", "b"), ("a", "x"), ("b", "x"), ("a", "y")]),
                  "witness: (y, atomic, (y))"),
}


def test_check_geometric_names_g1_witnesses(capsys, tmp_path):
    for name, (doc, witness) in G1_CASES.items():
        path = tmp_path / f"{name}.json"
        files.dump_doc(doc, path)
        code, out = run_cli(capsys, "check", "geometric", str(path))
        lines = [line for line in out.splitlines() if not line.startswith("elapsed:")]
        assert code == 1, name
        assert lines == [f"command: check cap_atoms=20 kind=geometric path={path}",
                         "verdict: violation of G1", witness], name


class _GoneReader(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its descriptor is a scratch file, which the handler may redirect."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_broken_pipe_exits_1_without_traceback(monkeypatch, tmp_path, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _GoneReader(fd))
        code = main(["iso", "notgeom.json", "notgeom.json"])
    finally:
        os.close(fd)
    assert code == 1
    assert capsys.readouterr().err.startswith("elapsed: ")


def test_closed_stdout_pipe_leaves_no_message_at_exit():
    """With the read end closed before the process starts, every write to
    stdout fails: at the first print when stdout is unbuffered (``-u``),
    at the last flush when it is buffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for flags in ([], ["-u"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = subprocess.run(
                [sys.executable, *flags, "-m", "mscheme.cli", "check", "scheme", "isth.json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                env=env, cwd=Path(mscheme.__file__).parents[1])
        finally:
            os.close(write_end)
        assert run.returncode == 1, (flags, run.stderr)
        assert run.stderr.startswith("elapsed: ") and "Exception" not in run.stderr, \
            (flags, run.stderr)
