"""Bounded fuzzing of the command line.

Generated scheme and poset documents go through ``cli.main`` in process:
random small documents with wrong types, missing keys and unknown ids,
and fixture documents with a few random edits.  Every run must end with
exit code 0, 1 or 2, raise nothing, print no traceback, and print the
same stdout byte for byte when it is run again on the same file.  The
examples are derandomized and capped, so the test is the same on every
run and takes a few seconds.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mscheme import files, flats
from mscheme.cli import main

SCHEMES = ("isth", "cw_l", "cw_r", "nonpos", "qfix", "dow_nontriv")


def _base_documents():
    """Scheme fixtures, the poset fixture that fails G2, and the flats
    posets of three schemes, which are geometric."""
    docs = [json.loads(files.fixture_path(f"{name}.json").read_text())
            for name in SCHEMES + ("notgeom",)]
    for name in ("cw_l", "nonpos", "dow_nontriv"):
        docs.append(files.ranked_poset_to_doc(
            flats(files.load_scheme(files.fixture_path(f"{name}.json")))))
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
