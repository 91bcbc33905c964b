"""Bounded fuzzing of the command line.

Generated documents go through ``cli.main`` in process.  Scheme and poset
documents are random small documents with wrong types, missing keys and
unknown ids, or fixture documents with a few random edits.  Group,
action, semimatroid, arrangement and matrix documents are their fixtures
with a few edits anywhere in the JSON tree: a value replaced by a wrong
type or by a name from the same document, a key or a list item dropped, a
list item repeated.  Every run must end with exit code 0, 1 or 2, raise nothing,
print no traceback, and print the same stdout byte for byte when it is run
again on the same file.  The examples are derandomized and capped, so the
test is the same on every run and takes a few seconds.

``construct`` is also fuzzed on its command line: integer arguments and
caps that are negative, zero, huge or not integers, ranks above the
ground size, and unknown kinds.

M4 is fuzzed in process: on the edited documents that read as simplicial
posets and on the scheme fixtures with random labels or labels from a
matroid on their atoms, its verdict and
witness are refereed by the ``_union`` form in ``referees``.  Where those
inputs are schemes, the flats' covers of each and of its minors are
refereed by the transitive reduction there.
"""

import contextlib
import copy
import io
import json
import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mscheme import (
    MschemeError,
    compute_rank,
    contract,
    delete,
    files,
    flats,
    linear_matroid,
    localization,
    validate_scheme,
    verify_simplicial,
)
from mscheme.cli import main

from referees import assert_flats_match_the_reduction, m4_verdict_agrees

SCHEMES = ("isth", "cw_l", "cw_r", "nonpos", "qfix", "dow_nontriv")


def _base_documents():
    """Scheme fixtures, the poset fixture that fails G2, and the flats
    posets of three schemes, which are geometric."""
    docs = [json.loads(files.resolve_input(f"{name}.json").read_text())
            for name in SCHEMES + ("notgeom",)]
    for name in ("cw_l", "nonpos", "dow_nontriv"):
        docs.append(files.ranked_poset_to_doc(
            flats(files.load_scheme(files.resolve_input(f"{name}.json")))))
    return docs


BASE = _base_documents()
IDS = ("0", "a", "b", "c", "d", "x", "a,b", "(|0)", "")

ids = st.sampled_from(IDS)
wrong = st.one_of(st.none(), st.booleans(), st.integers(-2, 2 ** 70), st.floats(),
                  st.text(max_size=3), st.lists(st.integers(0, 2), max_size=3),
                  st.just({}))
rows = st.one_of(
    st.fixed_dictionaries({"id": ids, "rho": st.integers(-1, 4)}),
    st.fixed_dictionaries({"id": st.one_of(ids, wrong), "rho": st.one_of(st.integers(0, 3), wrong)}),
    st.fixed_dictionaries({"id": ids}),
    wrong)
covers = st.one_of(st.lists(ids, min_size=2, max_size=2), st.lists(ids, max_size=3), wrong)
random_docs = st.one_of(
    st.fixed_dictionaries({"elements": st.lists(rows, max_size=7),
                           "covers": st.lists(covers, max_size=10)}),
    st.fixed_dictionaries({"elements": st.one_of(st.lists(rows, max_size=3), wrong)},
                          optional={"covers": st.one_of(st.lists(covers, max_size=3), wrong)}),
    wrong)


@st.composite
def edited_fixtures(draw):
    """A scheme or poset document with up to three edits: a rho set to
    another int or to a wrong type, a cover dropped, added or pointed at
    an unknown id, an element dropped."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE)))
    els, cov = doc["elements"], doc["covers"]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("rho", "rho_type", "drop_cover", "add_cover",
                                     "unknown_end", "drop_element")))
        known = [row["id"] for row in els] or ["0"]
        if edit == "rho" and els:
            draw(st.sampled_from(els))["rho"] = draw(st.integers(-1, 4))
        elif edit == "rho_type" and els:
            draw(st.sampled_from(els))["rho"] = draw(wrong)
        elif edit == "drop_cover" and cov:
            cov.remove(draw(st.sampled_from(cov)))
        elif edit == "add_cover":
            cov.append([draw(st.sampled_from(known)), draw(st.sampled_from(known))])
        elif edit == "unknown_end" and cov:
            draw(st.sampled_from(cov))[draw(st.integers(0, 1))] = draw(ids)
        elif edit == "drop_element" and els:
            els.remove(draw(st.sampled_from(els)))
    return doc


def _argv(data, doc_path, out_path):
    command = data.draw(st.sampled_from((
        "check scheme", "check geometric", "invariants", "export dot", "iso",
        "transform simplify", "transform delete", "transform contract",
        "transform restrict")), label="command")
    argv = command.split() + [doc_path]
    element = st.sampled_from(IDS + ("no such id",))
    if command == "iso":
        argv.append(data.draw(st.sampled_from((doc_path, "isth.json", "notgeom.json"))))
    elif command == "transform delete":
        argv.append(f"--atom={data.draw(element)}")
    elif command == "transform contract":
        argv.append(f"--element={data.draw(element)}")
    elif command == "transform restrict":
        argv.append(f"--atoms={','.join(data.draw(st.lists(element, max_size=3)))}")
    if command.startswith("transform"):
        argv.append(f"--out={out_path}")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exit_codes_hold_on_generated_documents(workdir, data):
    # two in three documents are edited fixtures, so that many are valid
    # and reach the commands past the readers
    source = random_docs if data.draw(st.integers(0, 2)) == 0 else edited_fixtures()
    doc = data.draw(source, label="document")
    doc_path, out_path = str(workdir / "doc.json"), str(workdir / "out.json")
    with open(doc_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argv = _argv(data, doc_path, out_path)
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, out, err)
    assert "Traceback" not in err, (argv, err)
    assert _run(argv)[:2] == (code, out), argv


FIXTURE_POSETS = [files.load_scheme(files.resolve_input(f"{name}.json")).s for name in SCHEMES]


@st.composite
def relabelled_fixtures(draw):
    """A scheme fixture's simplicial poset with labels drawn at random and
    raised along the covers, so that M1 and M2 hold and M3-M5 are left to
    chance."""
    sp = draw(st.sampled_from(FIXTURE_POSETS))
    p, size = sp.poset, sp.ranks
    r = [0] * len(size)
    for x in p.order:
        floor = max((r[c] for c in p.covers_dn[x]), default=0)
        r[x] = max(floor, draw(st.integers(0, size[x])))
    return sp, dict(zip(p.elements, r))


@st.composite
def matroid_labelled_fixtures(draw):
    """A scheme fixture's simplicial poset labelled by a matroid rank on
    its atoms: min(|x|, k) for a drawn k, or the rank of drawn integer
    vectors, one per atom, in dimension 1 to 3.  The labels are a matroid
    rank on every Boolean down-set, so M1-M3 hold and only M4 and M5 are
    left to the poset; far more of these are schemes than of the labels
    of ``relabelled_fixtures``."""
    sp = draw(st.sampled_from(FIXTURE_POSETS))
    p, size = sp.poset, sp.ranks
    if draw(st.booleans()):
        k = draw(st.integers(0, max(size)))
        return sp, dict(zip(p.elements, (min(s, k) for s in size)))
    atoms = [i for i, s in enumerate(size) if s == 1]
    dim = draw(st.integers(1, 3))
    matrix = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(atoms),
                                    max_size=len(atoms)), min_size=dim, max_size=dim))
    table = linear_matroid(matrix).rank_table
    masks = (sum(1 << k for k, a in enumerate(atoms) if down >> a & 1) for down in p.below)
    return sp, dict(zip(p.elements, map(table.__getitem__, masks)))


def _generated_simplicial(data):
    """A scheme fixture's poset with drawn labels, raised along the covers
    or from a matroid on its atoms, or an edited fixture document that
    reads as a simplicial poset, with its labels; None when the edited
    document does not read as one."""
    kind = data.draw(st.sampled_from(("relabelled", "matroid", "edited")))
    if kind == "relabelled":
        return data.draw(relabelled_fixtures())
    if kind == "matroid":
        return data.draw(matroid_labelled_fixtures())
    try:
        poset, rho = files.parse_poset_doc(data.draw(edited_fixtures()))
        return verify_simplicial(compute_rank(poset)), rho
    except MschemeError:
        return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_m4_by_lower_covers_matches_the_union_form_on_generated_schemes(data):
    """On every edited fixture document that reads as a simplicial poset,
    and on the scheme fixtures with random labels that keep M1 and M2 or
    with labels from a matroid on their atoms,
    ``validate_scheme`` gives the verdict and M4 witness of one ``_union``
    of up-sets per element."""
    drawn = _generated_simplicial(data)
    if drawn is not None:
        m4_verdict_agrees(*drawn)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_flats_covers_match_the_transitive_reduction_on_generated_schemes(data):
    """On the generated inputs of the M4 test that pass M1-M5, and on a
    drawn contraction, localization and deletion of each, the flats poset
    read from the closure map is the one assembled from the transitive
    reduction of the order on the closed elements."""
    drawn = _generated_simplicial(data)
    if drawn is None:
        return
    try:
        m = validate_scheme(*drawn)
    except MschemeError:
        return
    x = data.draw(st.sampled_from(m.elements))
    minors = [m, contract(m, x), localization(m, x)]
    if m.atoms():
        minors.append(delete(m, data.draw(st.sampled_from(m.atoms()))))
    for minor in minors:
        assert_flats_match_the_reduction(minor, minor.elements)


# the other document kinds: kind -> (fixtures, command lines with DOC for
# the edited document and OUT for the output file)
QUOTIENT = "construct quotient --semimatroid {} --group z2.json --action {} --out OUT"
DOWLING = "construct dowling -n 2 --group {} --action {} --out OUT"
OTHER_KINDS = {
    "semimatroid": (("semi4", "semi4c"), (
        "check semimatroid DOC",
        QUOTIENT.format("DOC", "z2_swap.json"),
        QUOTIENT.format("DOC", "z2_swap_c.json"))),
    "group": (("z2",), (
        DOWLING.format("DOC", "t2_trivial.json"),
        DOWLING.format("DOC", "t2_nontrivial.json"))),
    "action": (("t2_trivial", "t2_nontrivial", "z2_swap", "z2_swap_c"), (
        DOWLING.format("z2.json", "DOC"),
        QUOTIENT.format("semi4.json", "DOC"),
        QUOTIENT.format("semi4c.json", "DOC"))),
    "inline_action": (("t2_nontrivial",), (
        "construct dowling -n 2 --action DOC --out OUT",)),
    "arrangement": (("toric1",), ("construct toric DOC --out OUT",)),
    "matrix": (("i2",), ("construct linear DOC --out OUT",)),
}


def _other_base(kind: str, name: str) -> dict:
    doc = json.loads(files.resolve_input(f"{name}.json").read_text())
    if kind == "inline_action":
        doc["group"] = json.loads(files.resolve_input("z2.json").read_text())
    return doc


def _slots(node, out):
    """Every (container, key) pair below node, depth first in document
    order."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        out.append((node, key))
        if isinstance(node[key], (dict, list)):
            _slots(node[key], out)
    return out


def _strings(node) -> list:
    if isinstance(node, str):
        return [node]
    items = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    return [s for item in items for s in _strings(item)]


@st.composite
def edited_tree(draw, base):
    """A copy of base with one to three edits anywhere in its JSON tree."""
    doc = copy.deepcopy(base)
    names = sorted(set(_strings(base))) or ["x"]
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        node, key = slots[draw(st.integers(0, len(slots) - 1))]
        edit = draw(st.sampled_from(("wrong", "name", "drop", "repeat")))
        if edit == "wrong":
            node[key] = draw(wrong)
        elif edit == "name":
            node[key] = draw(st.sampled_from(names))
        elif edit == "drop":
            del node[key]
        elif isinstance(node, list):
            node.append(copy.deepcopy(node[key]))
    return doc


@pytest.mark.parametrize("kind", sorted(OTHER_KINDS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exit_codes_hold_on_other_edited_documents(workdir, kind, data):
    names, commands = OTHER_KINDS[kind]
    doc = data.draw(edited_tree(_other_base(kind, data.draw(st.sampled_from(names)))),
                    label="document")
    doc_path, out_path = str(workdir / "other.json"), str(workdir / "other_out.json")
    with open(doc_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argv = [{"DOC": doc_path, "OUT": out_path}.get(w, w)
            for w in data.draw(st.sampled_from(commands), label="command").split()]
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, out, err)
    assert "Traceback" not in err, (argv, err)
    assert _run(argv)[:2] == (code, out), argv


# integer words for construct: small, huge, negative and not integers at
# all; ground sizes stay where a build is cheap (U(R, N) with N <= 8, a
# Dowling ground set of at most 3 points) or is refused up front by a cap
NOT_INTEGERS = ("", "x", "1.5", "1e3", "0x10", "+2", " 3", "1_0", "\u00b2", "\u0663",
                "-", "--1", "nan")
huge = st.integers(2 ** 16, 2 ** 70)


def _words(ints):
    return st.one_of(ints.map(str), st.sampled_from(NOT_INTEGERS))


@st.composite
def construct_argv(draw, out_path):
    argv = []
    if draw(st.booleans()):
        value = draw(_words(st.one_of(st.integers(-3, 40), huge, huge.map(operator.neg))))
        argv.append(f"--cap-atoms={value}")
    kind = draw(st.sampled_from(("uniform", "uniform", "uniform", "dowling", "dowling",
                                 "toric", "linear", "quotient", "bogus", "Uniform", "")))
    argv += ["construct", kind]
    if kind == "uniform":
        ground = st.one_of(st.integers(-3, 8), st.integers(17, 2 ** 70), huge.map(operator.neg))
        words = st.one_of(ground.map(str), _words(ground))
        argv += draw(st.one_of(st.lists(words, min_size=2, max_size=2),
                               st.lists(words, max_size=3)))
    elif kind == "dowling":
        n = draw(_words(st.one_of(st.integers(-3, 3), st.integers(15, 2 ** 70))))
        argv += ["-n", n, "--group", "z2.json", "--action", "t2_trivial.json"]
    elif kind in ("toric", "linear"):
        argv.append("toric1.json" if kind == "toric" else "i2.json")
    elif kind == "quotient":
        argv += ["--semimatroid", "semi4.json", "--group", "z2.json", "--action", "z2_swap.json"]
    return argv + ["--out", out_path]


def _run_argv(argv):
    """``_run``, with argparse's own refusals read as their exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_construct_exit_codes_hold_on_generated_arguments(workdir, data):
    argv = data.draw(construct_argv(str(workdir / "constructed.json")), label="argv")
    code, out, err = _run_argv(argv)
    assert code in (0, 1, 2), (argv, code, out, err)
    assert "Traceback" not in err, (argv, err)
    assert _run_argv(argv)[:2] == (code, out), argv
