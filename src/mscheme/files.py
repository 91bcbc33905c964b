"""JSON file formats shared by the CLI, the fixtures, and the tests.

All inputs are human-writable JSON; parse/serialize round-trips are the
identity on canonical files, and serializing a parsed file canonicalizes
it.  A top-level "comment" field is preserved on output but otherwise
ignored.

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
hold a JSON array of strings, and a table of names an array of such rows
of the stated shape; a string there is MalformedInput, never read as the
list of its characters.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path

from .errors import MalformedInput, MschemeError
from .constructions import FiniteGroup, GroupAction, Semimatroid
from .poset import Poset, RankedPoset, build_poset, compute_rank, verify_simplicial
from .scheme import MatroidScheme, validate_scheme
from .toric import Character, ToricArrangement

FIXTURE_ENV = "MSCHEME_FIXTURES"
_PACKAGED_FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    """Packaged fixture by file name, honoring the MSCHEME_FIXTURES
    override."""
    override = os.environ.get(FIXTURE_ENV)
    if override:
        candidate = Path(override) / name
        if candidate.exists():
            return candidate
    return _PACKAGED_FIXTURES / name


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
    except (OSError, json.JSONDecodeError) as exc:
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
    rows = _require(doc, "elements", path)
    ids = []
    rho = {}
    try:
        for row in rows:
            if not isinstance(row["id"], str):
                raise MalformedInput(f"{path}: element id {row['id']!r} is not a string")
            ids.append(row["id"])
            rho[row["id"]] = _int(row["rho"], path, "rho")
        covers = []
        for cover in _require(doc, "covers", path):
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


def load_ranked_poset(path) -> RankedPoset:
    """Poset file with rho as the rank labels (verified to be the graded
    rank function)."""
    doc = _load_json(path)
    poset, rho = parse_poset_doc(doc, path)
    rp = compute_rank(poset)
    if rho != rp.rank:
        bad = next(e for e in poset.elements if rho[e] != rp.rank[e])
        raise MalformedInput(
            f"{path}: rho of {bad!r} is {rho[bad]} but the graded rank is {rp.rank[bad]}")
    return rp


def load_scheme(path) -> MatroidScheme:
    doc = _load_json(path)
    poset, rho = parse_poset_doc(doc, path)
    sp = verify_simplicial(compute_rank(poset))
    return validate_scheme(sp, rho)


def scheme_to_doc(m: MatroidScheme, comment: str | None = None) -> dict:
    doc = {}
    if comment:
        doc["comment"] = comment
    doc["elements"] = [{"id": e, "rho": m.rho[e]} for e in m.elements]
    doc["covers"] = [[a, b] for a, b in m.poset.covers]
    return doc


def ranked_poset_to_doc(rp: RankedPoset, comment: str | None = None) -> dict:
    doc = {}
    if comment:
        doc["comment"] = comment
    doc["elements"] = [{"id": e, "rho": rp.rank[e]} for e in rp.elements]
    doc["covers"] = [[a, b] for a, b in rp.poset.covers]
    return doc


def dump_doc(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# --- semimatroids, groups, actions ---------------------------------------------------

def load_semimatroid(path) -> Semimatroid:
    doc = _load_json(path)
    vertices = _names(_require(doc, "vertices", path), path, "vertices")
    faces = []
    rank = {}
    try:
        for row in _require(doc, "faces", path):
            members = frozenset(_names(row["members"], path, "members"))
            faces.append(members)
            rank[members] = _int(row["rho"], path, "rho")
    except (TypeError, KeyError, ValueError) as exc:
        raise MalformedInput(f"{path}: bad face row ({exc})") from None
    return Semimatroid(vertices, faces, rank)


def load_group(path) -> FiniteGroup:
    return _parse_group(_load_json(path), path)


def _parse_group(doc, path) -> FiniteGroup:
    """A group document, from its own file or inline in an action file."""
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: group must be an object")
    elements = _names(_require(doc, "elements", path), path, "group elements")
    table = _table(_require(doc, "table", path), path, "multiplication table",
                   len(elements), len(elements))
    mul = {(g, h): table[i][j]
           for i, g in enumerate(elements) for j, h in enumerate(elements)}
    return FiniteGroup(elements, mul)


def load_action(path, group: FiniteGroup | None = None) -> GroupAction:
    doc = _load_json(path)
    if group is None:
        if "group" not in doc:
            raise MalformedInput(f"{path}: no group given inline or alongside")
        group = _parse_group(doc["group"], f"{path} (inline group)")
    points = _names(_require(doc, "points", path), path, "points")
    rows = _table(_require(doc, "rows", path), path, "action table",
                  len(group.elements), len(points))
    act = {(g, p): rows[i][j]
           for i, g in enumerate(group.elements) for j, p in enumerate(points)}
    if doc.get("cofinite") is not None:
        import sys
        print("note: 'cofinite' flag ignored (automatic for finite data)",
              file=sys.stderr)
    return GroupAction(group, points, act)


# --- arrangements and matrices ---------------------------------------------------------

def load_arrangement(path) -> ToricArrangement:
    """Any fault in n or a character, down to a duplicate, is MalformedInput."""
    doc = _load_json(path)
    n = _require(doc, "n", path)
    rows = _require(doc, "characters", path)
    try:
        return ToricArrangement(_int(n, path, "n"), [
            Character(tuple(_int(a, path, "alpha entry") for a in row["alpha"]),
                      Fraction(str(row["phase"])))
            for row in rows])
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
    matrix = _require(doc, "matrix", path)
    try:
        matrix = [[_int(v, path, "matrix entry") for v in row] for row in matrix]
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"{path}: bad matrix ({exc})") from None
    cols = {len(row) for row in matrix}
    if len(cols) > 1:
        raise MalformedInput(f"{path}: matrix rows differ in length {sorted(cols)}")
    names = doc.get("names")
    if names is not None and len(_names(names, path, "names")) != max(cols, default=0):
        raise MalformedInput(f"{path}: {len(names)} names for {max(cols, default=0)} columns")
    return matrix, names


# --- DOT export ---------------------------------------------------------------------------

def to_dot(m_or_rp) -> str:
    """Hasse diagram as a DOT digraph, nodes labeled "id : rho" and grouped
    into same-rank layers."""
    if isinstance(m_or_rp, MatroidScheme):
        rp = m_or_rp.s.ranked
        label = m_or_rp.rho
    else:
        rp = m_or_rp
        label = rp.rank
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    by_rank: dict[int, list] = {}
    for e in rp.elements:
        by_rank.setdefault(rp.rank[e], []).append(e)
    for r in sorted(by_rank):
        names = " ".join(f'"{e}"' for e in by_rank[r])
        lines.append(f"  {{ rank=same; {names} }}")
    for e in rp.elements:
        lines.append(f'  "{e}" [label="{e} : {label[e]}"];')
    for a, b in rp.poset.covers:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
