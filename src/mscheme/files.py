"""JSON file formats shared by the CLI, the fixtures, and the tests.

All inputs are human-writable JSON; parse/serialize round-trips are the
identity on canonical files, and serializing a parsed file canonicalizes
it.  A top-level "comment" field is ignored.

Scheme file        {"elements": [{"id": str, "rho": int}], "covers": [[lo, hi]]}
Poset file         same shape; "rho" holds the rank labels
Semimatroid file   {"vertices": [str], "faces": [{"members": [str], "rho": int}]}
Group file         {"elements": [str], "table": [[str]]}   (row g, column h -> g*h)
Action file        {"group": optional inline group, "points": [str],
                    "rows": [[str]]}                        (row per group element)
Arrangement file   {"n": int, "characters": [{"alpha": [int], "phase": "p/q"}]}
Matrix file        {"matrix": [[int]], "names": optional [str]}

A field shown as int must hold a JSON integer (a float with no fractional
part, such as 2.0, reads as that integer); a fraction, a bool or a string
there is MalformedInput, never truncated.  A field shown as [str] must
hold a JSON array of strings, a table of names an array of such rows of
the stated shape, and any other array of rows a JSON array; a string or
an object there is MalformedInput, never read as its characters or keys.
A [str] field declares names and lists each once, and no face is listed
twice; a repeat is MalformedInput too.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import constructions, errors, toric
from .errors import MalformedInput, MschemeError, SizeCapExceeded
from .poset import Poset, RankedPoset, build_poset, compute_rank, verify_simplicial
from .scheme import MatroidScheme, validate_scheme

FIXTURE_ENV = "MSCHEME_FIXTURES"
_PACKAGED_FIXTURES = Path(__file__).parent / "fixtures"


def resolve_input(path: str) -> Path:
    """Resolve a CLI path: as given, then under MSCHEME_FIXTURES, then under
    the packaged fixtures (full path and base name)."""
    p = Path(path)
    if p.exists():
        return p
    candidates = []
    override = os.environ.get(FIXTURE_ENV)
    if override:
        candidates += [Path(override) / path, Path(override) / p.name]
    candidates += [_PACKAGED_FIXTURES / path, _PACKAGED_FIXTURES / p.name]
    for c in candidates:
        if c.exists():
            return c
    raise MalformedInput(f"no such file: {path}")


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep
        raise MalformedInput(f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: top level must be an object")
    return doc


def _int(value, path, what: str) -> int:
    """A field the format declares an integer: an int, or a float with no
    fractional part.  A bool, a fraction or any other value is
    MalformedInput, never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedInput(f"{path}: {what} {value!r} is not an integer")
    return value


def _names(value, path, what: str) -> list:
    """A field the format declares a list of names: a JSON array of
    strings.  A string, a number or an array holding anything but strings
    is MalformedInput, never iterated."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise MalformedInput(f"{path}: {what} {value!r} is not a list of names")
    return value


def _declared(value, path, what: str) -> list:
    """A field that declares names (``_names``), each at most once: a
    name listed twice is MalformedInput."""
    seen = set()
    for name in _names(value, path, what):
        if name in seen:
            raise MalformedInput(f"{path}: {what} lists {name!r} twice")
        seen.add(name)
    return value


def _rows(value, path, what: str) -> list:
    """A field the format declares an array of rows: a JSON array.  A
    string or an object there is MalformedInput, never iterated."""
    if not isinstance(value, list):
        raise MalformedInput(f"{path}: {what} {value!r} is not an array")
    return value


def _table(value, path, what: str, rows: int, cols: int) -> list:
    """A ``rows`` x ``cols`` table of names, as a JSON array of rows."""
    if not isinstance(value, list) or len(value) != rows:
        raise MalformedInput(f"{path}: {what} shape mismatch")
    for row in value:
        if len(_names(row, path, f"{what} row")) != cols:
            raise MalformedInput(f"{path}: {what} shape mismatch")
    return value


def _require(doc: dict, key: str, path):
    if key not in doc:
        raise MalformedInput(f"{path}: missing key {key!r}")
    return doc[key]


# --- posets and schemes -------------------------------------------------------------

def parse_poset_doc(doc: dict, path="<doc>") -> tuple[Poset, dict]:
    """The poset of a scheme or poset document and its "rho" labels by id.
    More than ``errors.ELEMENT_CAP`` element rows are refused with
    ``SizeCapExceeded`` before anything is built: the poset keeps two
    bitmasks per element, n^2 / 8 bytes in all."""
    rows = _rows(_require(doc, "elements", path), path, "elements")
    if len(rows) > errors.ELEMENT_CAP:
        raise SizeCapExceeded(len(rows), errors.ELEMENT_CAP, "poset")
    ids = []
    rho = {}
    try:
        for row in rows:
            if not isinstance(row["id"], str):
                raise MalformedInput(f"{path}: element id {row['id']!r} is not a string")
            ids.append(row["id"])
            rho[row["id"]] = _int(row["rho"], path, "rho")
        covers = []
        for cover in _rows(_require(doc, "covers", path), path, "covers"):
            if not isinstance(cover, list) or len(cover) != 2:
                raise MalformedInput(f"{path}: cover {cover!r} is not a pair [lo, hi]")
            a, b = cover
            for end in (a, b):
                if not isinstance(end, str) or end not in rho:
                    raise MalformedInput(
                        f"{path}: cover endpoint {end!r} is not an element id")
            covers.append((a, b))
    except (TypeError, KeyError, ValueError) as exc:
        raise MalformedInput(f"{path}: bad element/cover row ({exc})") from None
    return build_poset(ids, covers), rho


def read_poset(path) -> tuple[RankedPoset, dict]:
    """A scheme or poset file, parsed and ranked once: its ranked poset and
    its "rho" labels by id.  A command that takes either kind of file
    reads it here and then decides, by ``as_scheme`` or
    ``as_ranked_poset``, which kind it is."""
    poset, rho = parse_poset_doc(_load_json(path), path)
    return compute_rank(poset), rho


def as_ranked_poset(rp: RankedPoset, rho: dict, path) -> RankedPoset:
    """rp, read from path, once its rho labels are verified to be its
    graded rank function."""
    for e, k in zip(rp.elements, rp.ranks):
        if rho[e] != k:
            raise MalformedInput(f"{path}: rho of {e!r} is {rho[e]} but the graded rank is {k}")
    return rp


def as_scheme(rp: RankedPoset, rho: dict) -> MatroidScheme:
    """The scheme of rp labelled by rho, verified simplicial and M1-M5."""
    return validate_scheme(verify_simplicial(rp), rho)


def load_ranked_poset(path) -> RankedPoset:
    """Poset file with rho as the rank labels (verified to be the graded
    rank function)."""
    return as_ranked_poset(*read_poset(path), path)


def load_scheme(path) -> MatroidScheme:
    return as_scheme(*read_poset(path))


def scheme_to_doc(m: MatroidScheme) -> dict:
    return _poset_doc(m.poset, m.rhos)


def ranked_poset_to_doc(rp: RankedPoset) -> dict:
    return _poset_doc(rp.poset, rp.ranks)


def _poset_doc(p: Poset, labels: tuple) -> dict:
    """The scheme/poset document of p, with "rho" of element i ``labels[i]``."""
    return {"elements": [{"id": e, "rho": k} for e, k in zip(p.elements, labels)],
            "covers": [[a, b] for a, b in p.covers]}


def dump_doc(doc: dict, path) -> None:
    write_text(json.dumps(doc, indent=1) + "\n", path)


def write_text(text: str, path) -> None:
    """Every file the package writes goes through here: a path that cannot
    be written is MalformedInput."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise MalformedInput(f"cannot write {path}: {exc}") from None


# --- semimatroids, groups, actions ---------------------------------------------------

def load_semimatroid(path) -> constructions.Semimatroid:
    doc = _load_json(path)
    vertices = _declared(_require(doc, "vertices", path), path, "vertices")
    rank = {}
    try:
        for row in _rows(_require(doc, "faces", path), path, "faces"):
            members = frozenset(_declared(row["members"], path, "members"))
            if members in rank:
                raise MalformedInput(f"{path}: face {sorted(members)} is listed twice")
            rank[members] = _int(row["rho"], path, "rho")
    except (TypeError, KeyError, ValueError) as exc:
        raise MalformedInput(f"{path}: bad face row ({exc})") from None
    return constructions.Semimatroid(vertices, rank.keys(), rank)


def load_group(path) -> constructions.FiniteGroup:
    return _parse_group(_load_json(path), path)


def _parse_group(doc, path) -> constructions.FiniteGroup:
    """A group document, from its own file or inline in an action file."""
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: group must be an object")
    elements = _declared(_require(doc, "elements", path), path, "group elements")
    table = _table(_require(doc, "table", path), path, "multiplication table",
                   len(elements), len(elements))
    mul = {(g, h): table[i][j]
           for i, g in enumerate(elements) for j, h in enumerate(elements)}
    return constructions.FiniteGroup(elements, mul)


def load_action(path,
                group: constructions.FiniteGroup | None = None) -> constructions.GroupAction:
    doc = _load_json(path)
    if group is None:
        if "group" not in doc:
            raise MalformedInput(f"{path}: no group given inline or alongside")
        group = _parse_group(doc["group"], f"{path} (inline group)")
    points = _declared(_require(doc, "points", path), path, "points")
    rows = _table(_require(doc, "rows", path), path, "action table",
                  len(group.elements), len(points))
    act = {(g, p): rows[i][j]
           for i, g in enumerate(group.elements) for j, p in enumerate(points)}
    if doc.get("cofinite") is not None:
        import sys
        print("note: 'cofinite' flag ignored (automatic for finite data)",
              file=sys.stderr)
    return constructions.GroupAction(group, points, act)


# --- arrangements and matrices ---------------------------------------------------------

def load_arrangement(path) -> toric.ToricArrangement:
    """Any fault in n or a character, down to a duplicate or a bad entry, is MalformedInput."""
    from fractions import Fraction

    doc = _load_json(path)
    n = _require(doc, "n", path)
    rows = _rows(_require(doc, "characters", path), path, "characters")
    try:
        arr = toric.ToricArrangement(_int(n, path, "n"), [
            toric.Character(row["alpha"], Fraction(str(row["phase"])))
            for row in rows])
        for c in arr.characters:
            str(c.phase)  # ValueError past the interpreter's int digit limit
        return arr
    except (TypeError, KeyError, ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"{path}: bad n or character row ({exc})") from None
    except MalformedInput:
        raise
    except MschemeError as exc:
        raise MalformedInput(f"{path}: {exc}") from None


def load_matrix(path) -> tuple[list[list[int]], list | None]:
    """A ragged matrix, or a names list whose length is not the column
    count, is MalformedInput."""
    doc = _load_json(path)
    matrix = _rows(_require(doc, "matrix", path), path, "matrix")
    try:
        matrix = [[_int(v, path, "matrix entry") for v in _rows(row, path, "matrix row")]
                  for row in matrix]
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"{path}: bad matrix ({exc})") from None
    cols = {len(row) for row in matrix}
    if len(cols) > 1:
        raise MalformedInput(f"{path}: matrix rows differ in length {sorted(cols)}")
    names = doc.get("names")
    if names is not None and len(_declared(names, path, "names")) != max(cols, default=0):
        raise MalformedInput(f"{path}: {len(names)} names for {max(cols, default=0)} columns")
    return matrix, names


# --- DOT export ---------------------------------------------------------------------------

def _quoted(s: str) -> str:
    """A DOT double-quoted string holding s: "\\" and '"' escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(rp: RankedPoset, labels: tuple) -> str:
    """Hasse diagram of rp as a DOT digraph, nodes labeled "id : label"
    with ``labels[i]`` for element i, and grouped into same-rank layers."""
    names = [_quoted(e) for e in rp.elements]
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    by_rank: dict[int, list] = {}
    for name, k in zip(names, rp.ranks):
        by_rank.setdefault(k, []).append(name)
    for r in sorted(by_rank):
        lines.append(f"  {{ rank=same; {' '.join(by_rank[r])} }}")
    for e, name, k in zip(rp.elements, names, labels):
        lines.append(f"  {name} [label={_quoted(f'{e} : {k}')}];")
    for i, j in rp.poset.pairs:
        lines.append(f"  {names[i]} -> {names[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
