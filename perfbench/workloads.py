"""The three workloads: ``construct``, ``invariants`` and ``cli``.

Each workload has ``setup()``, which builds its inputs, ``passes()``, which
yields the seeded cycle of operations pass by pass, ``run(op)``, which is the
timed call into the program and returns the output document, and
``check(op, out)``, which returns a list of problems with that output (empty
when it is correct).  Checks run outside the timed call.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "mscheme" / "fixtures"
REFERENCE = Path(__file__).resolve().parent / "reference"
SCRATCH = ROOT / ".perfbench_tmp"


def import_program():
    """Import ``mscheme`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "mscheme" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import mscheme
    if Path(mscheme.__file__).resolve().parent != (SRC / "mscheme").resolve():
        raise SystemExit(f"perfbench: mscheme imported from {mscheme.__file__}")
    return mscheme


def load_reference() -> dict:
    with open(REFERENCE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def _witness(w):
    if isinstance(w, tuple):
        return [_witness(x) for x in w]
    if isinstance(w, frozenset):
        return sorted(map(str, w))
    return str(w)


def _digest_problem(reference: dict, k: str, out) -> list:
    want = reference.get(k)
    got = inputs.digest(out)
    if want is None:
        return [f"no reference digest for {k}"]
    return [] if got == want else [f"digest mismatch for {k}"]


# --- shared program inputs ---------------------------------------------------------------

def make_action(ms, k: int, name: str):
    group = ms.cyclic_group(k)
    if name.startswith("trivial"):
        return ms.trivial_action(group, [f"p{i}" for i in range(int(name[7:]))])
    g = group.elements
    if name == "swap2":
        return ms.GroupAction(group, ["p0", "p1"], {
            (g[0], "p0"): "p0", (g[0], "p1"): "p1", (g[1], "p0"): "p1", (g[1], "p1"): "p0"})
    if name == "swap2fix1":
        act = {(g[0], p): p for p in ("p0", "p1", "p2")}
        act.update({(g[1], "p0"): "p1", (g[1], "p1"): "p0", (g[1], "p2"): "p2"})
        return ms.GroupAction(group, ["p0", "p1", "p2"], act)
    if name == "rot3":
        pts = ["p0", "p1", "p2"]
        return ms.GroupAction(group, pts, {(g[i], pts[j]): pts[(i + j) % 3]
                                           for i in range(3) for j in range(3)})
    raise ValueError(name)


def make_arrangement(ms, entry):
    _, rank, chars = entry
    return ms.ToricArrangement(rank, [ms.Character(tuple(a), Fraction(p)) for a, p in chars])


def build_scheme(ms, entry, ctx: dict):
    """The scheme of one catalogue entry, validated by the program while it
    is built."""
    kind = entry[0]
    if kind == "fixture":
        return ms.files.load_scheme(FIXTURES / f"{entry[1]}.json")
    if kind == "uniform":
        return ms.scheme_from_matroid(ms.uniform_matroid(entry[1], entry[2]))
    if kind == "linear":
        return ms.scheme_from_matroid(ms.linear_matroid([list(r) for r in entry[2]]))
    if kind == "dowling":
        return ms.dowling_poset(entry[1], ctx["actions"][entry[2:]])[1]
    if kind == "toric":
        return ms.layers_poset(ctx["arrangements"][inputs.key(entry)]).scheme
    raise ValueError(kind)


def program_inputs(ms) -> dict:
    """Program-side objects for every catalogue input: group actions,
    arrangements and the fixtures the verdict and quotient requests read."""
    files = ms.files
    grp = files.load_group(FIXTURES / "z2.json")
    semi4 = files.load_semimatroid(FIXTURES / "semi4.json")
    return {
        "actions": {e[2:]: make_action(ms, e[2], e[3]) for e in inputs.DOWLING},
        "arrangements": {inputs.key(e): make_arrangement(ms, e) for e in inputs.TORIC},
        "semi4": semi4,
        "quotient_actions": {"z2_swap": files.load_action(FIXTURES / "z2_swap.json", grp),
                             "trivial": ms.trivial_action(grp, semi4.vertices)},
        "notgeom": files.load_ranked_poset(FIXTURES / "notgeom.json"),
        "nonpos": files.load_scheme(FIXTURES / "nonpos.json"),
    }


class Workload:
    """Defaults shared by the workloads."""

    setup_problems = ()
    tracer = None  # set while the cli workload's traced phase runs
    main_seconds = 0.0

    def cleanup(self):
        pass


# --- construct ------------------------------------------------------------------------------

EXPECTED_VERDICTS = {
    "verdict_geometric": {"axiom": "G2", "witness": ["1", ["3", "4"], "34"]},
    "verdict_scheme": {"axiom": "M5", "witness": ["b1", "v"]},
}


def fraction_rank(columns: list) -> int:
    """Rank of a list of column vectors by Gaussian elimination over Q."""
    rows = [list(map(Fraction, col)) for col in columns]
    rank = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _members(set_id: str) -> list:
    inner = set_id[1:-1]
    return inner.split(",") if inner else []


class Construct(Workload):
    """Construction requests, each building one scheme from its inputs."""

    def __init__(self, ms, seed: int, reference: dict):
        self.ms = ms
        self.seed = seed
        self.reference = reference["construct"]
        self.ctx = None

    def setup(self):
        self.ctx = program_inputs(self.ms)

    def passes(self):
        rng = random.Random(f"construct/{self.seed}")
        while True:
            yield inputs.construct_pass(rng)

    def run(self, entry):
        ms, ctx, kind = self.ms, self.ctx, entry[0]
        if kind in ("uniform", "linear", "dowling", "toric"):
            m = build_scheme(ms, entry, ctx)
        elif kind == "quotient":
            m = ms.quotient_scheme(ctx["semi4"], ctx["quotient_actions"][entry[2]]).scheme
        else:
            try:
                if kind == "verdict_geometric":
                    ms.validate_geometric(ctx["notgeom"])
                else:
                    c = ms.contract(ctx["nonpos"], entry[2])
                    ms.validate_scheme(c.s, c.rho)
            except ms.AxiomViolation as exc:
                return {"axiom": exc.axiom, "witness": _witness(exc.witness)}
            return {"axiom": None}
        return ms.files.scheme_to_doc(m)

    def check(self, entry, out) -> list:
        problems = _digest_problem(self.reference, inputs.key(entry), out)
        kind = entry[0]
        if kind in EXPECTED_VERDICTS:
            if out != EXPECTED_VERDICTS[kind]:
                problems.append(f"{kind}: got {out}")
        elif kind in ("uniform", "linear"):
            problems += self._check_matroid(entry, out)
        return problems

    @staticmethod
    def _check_matroid(entry, doc) -> list:
        n = entry[2] if entry[0] == "uniform" else entry[1]
        rows = doc["elements"]
        if len(rows) != 2 ** n:
            return [f"{entry[0]}: {len(rows)} elements, expected {2 ** n}"]
        if entry[0] == "uniform":
            want = {row["id"]: min(len(_members(row["id"])), entry[1]) for row in rows}
        else:
            cols = dict(zip((f"v{i}" for i in range(n)), zip(*entry[2])))
            want = {row["id"]: fraction_rank([cols[v] for v in _members(row["id"])])
                    for row in rows}
        bad = [row["id"] for row in rows if row["rho"] != want[row["id"]]]
        return [f"{entry[0]}: wrong rho on {bad[:3]}"] if bad else []


# --- invariants ----------------------------------------------------------------------------

def make_minor(ms, m, spec):
    op = spec[0]
    if op == "delete":
        return ms.delete(m, spec[1])
    if op == "restrict":
        return ms.restrict(m, list(spec[1:]))
    if op == "localization":
        return ms.localization(m, spec[1])
    return ms.contract(m, spec[1])


def invariants_doc(ms, m) -> dict:
    """What ``mscheme invariants`` reports, computed on one scheme."""
    idx = m.poset.idx
    lps = sorted(ms.loops(m), key=idx)
    t_direct = ms.tutte_direct(m)
    t_delcon = ms.tutte_delcon(m)
    return {
        "ids": list(m.elements),
        "rank": ms.scheme_rank(m),
        "flats": len(ms.flats(m).elements),
        "bases": len(ms.bases(m)),
        "circuits": len(ms.circuits(m)),
        "independent": len(ms.independence(m)),
        "loops": lps,
        "isthmuses": sorted(ms.isthmuses(m), key=idx),
        "simple": ms.is_simple(m),
        "tutte": str(t_direct),
        "tutte_delcon": str(t_delcon),
        "t11": t_direct(1, 1),
        "t22": t_direct(2, 2),
        "characteristic": None if lps else str(ms.charpoly_identity(m)),
    }


def relabelled_copy(ms, entry, m):
    """An isomorphic copy with fresh ids and shuffled declaration order,
    read back through the file layer and validated."""
    doc = ms.files.scheme_to_doc(m)
    rename, order = inputs.relabelling(entry, tuple(m.elements))
    rho = {row["id"]: row["rho"] for row in doc["elements"]}
    covers = [[rename[a], rename[b]] for a, b in doc["covers"]]
    random.Random(inputs.key(entry)).shuffle(covers)
    copy_doc = {"elements": [{"id": rename[e], "rho": rho[e]} for e in order],
                "covers": covers}
    poset, labels = ms.files.parse_poset_doc(copy_doc)
    return ms.validate_scheme(ms.verify_simplicial(ms.compute_rank(poset)), labels)


def check_isomorphism(m1, m2, phi) -> list:
    """phi must be a bijection that preserves rho and the order both ways."""
    if sorted(phi) != sorted(m1.elements) or sorted(phi.values()) != sorted(m2.elements):
        return ["isomorphism is not a bijection"]
    if any(m1.rho[e] != m2.rho[phi[e]] for e in m1.elements):
        return ["isomorphism does not preserve rho"]
    p, q = m1.poset, m2.poset
    for i, a in enumerate(m1.elements):
        for b in m1.elements[i + 1:]:
            if p.leq(a, b) != q.leq(phi[a], phi[b]) or p.leq(b, a) != q.leq(phi[b], phi[a]):
                return ["isomorphism does not preserve the order"]
    return []


def pool_item(ms, entry, ctx: dict) -> dict:
    """Build one pooled scheme, its valid minor specs (a contraction is
    kept when its result validates) and, where ``inputs.gets_copy``
    allows, its relabelled copy."""
    m = build_scheme(ms, entry, ctx)
    specs, contract_valid = [], {}
    for spec in inputs.minor_specs(entry, tuple(m.atoms()), tuple(m.elements)):
        if spec[0] == "contract":
            c = ms.contract(m, spec[1])
            try:
                ms.validate_scheme(c.s, c.rho)
                valid = True
            except ms.AxiomViolation:
                valid = False
            contract_valid[f"{inputs.key(entry)}|{inputs.key(spec)}"] = valid
            if not valid:
                continue
        specs.append(spec)
    copy = relabelled_copy(ms, entry, m) if inputs.gets_copy(entry, len(m.elements)) else None
    return {"entry": entry, "scheme": m, "specs": specs, "copy": copy,
            "contract_valid": contract_valid}


class Invariants(Workload):
    """Seeded minors of a validated pool, each followed by the invariants."""

    def __init__(self, ms, seed: int, reference: dict):
        self.ms = ms
        self.seed = seed
        self.reference = reference
        self.pool = None
        self.setup_problems = []

    def setup(self):
        ms = self.ms
        ctx = program_inputs(ms)
        contract_ref = self.reference["contract_valid"]
        pool = [pool_item(ms, entry, ctx) for entry in inputs.invariants_pool()]
        problems = [f"contraction validity differs for {k}"
                    for item in pool for k, valid in item["contract_valid"].items()
                    if contract_ref.get(k) != valid]
        for item in pool:
            sig = sorted(item["scheme"].rho.values())
            item["partner"] = next(
                (other for other in pool
                 if len(other["scheme"].elements) == len(item["scheme"].elements)
                 and sorted(other["scheme"].rho.values()) != sig), None)
        self.pool, self.setup_problems = pool, problems

    def passes(self):
        """Every valid minor of every pooled scheme, one search against
        each relabelled copy and one against each non-isomorphic partner,
        in seeded order.  About one op in eight is a search: at one in five
        the backtracking searches took over a quarter of the self time."""
        rng = random.Random(f"invariants/{self.seed}/ops")
        ops = [("minor", i, spec) for i, item in enumerate(self.pool) for spec in item["specs"]]
        for i, item in enumerate(self.pool):
            if item["copy"] is not None:
                ops.append(("iso", i, "copy"))
            if item["partner"] is not None:
                ops.append(("iso", i, "partner"))
        while True:
            rng.shuffle(ops)
            yield list(ops)

    def run(self, op):
        ms = self.ms
        kind, i, arg = op
        item = self.pool[i]
        if kind == "minor":
            return invariants_doc(ms, make_minor(ms, item["scheme"], arg))
        other = item["copy"] if arg == "copy" else item["partner"]["scheme"]
        phi = ms.scheme_isomorphism(item["scheme"], other)
        return None if phi is None else sorted(phi.items())

    def check(self, op, out) -> list:
        kind, i, arg = op
        item = self.pool[i]
        k = inputs.key(item["entry"])
        if kind == "minor":
            problems = _digest_problem(self.reference["invariants"],
                                       f"{k}|{inputs.key(arg)}", out)
            if out["tutte"] != out["tutte_delcon"]:
                problems.append(f"tutte_direct != tutte_delcon on {k} {arg}")
            if out["t11"] != out["bases"] or out["t22"] != len(out["ids"]):
                problems.append(f"T(1,1) or T(2,2) wrong on {k} {arg}")
            return problems
        if arg == "partner":
            return [] if out is None else [f"isomorphism found to a non-isomorphic scheme ({k})"]
        if out is None:
            return [f"no isomorphism found to the relabelled copy of {k}"]
        return (_digest_problem(self.reference["iso"], k, out)
                + check_isomorphism(item["scheme"], item["copy"], dict(out)))


# --- cli --------------------------------------------------------------------------------------

CLI_COMMANDS = {
    "check_scheme": ["check", "scheme", "isth.json"],
    "check_geometric": ["check", "geometric", "notgeom.json"],
    "invariants_dow_triv": ["invariants", "dow_triv.json"],
    "invariants_dow_nontriv": ["invariants", "dow_nontriv.json"],
    "invariants_nonpos": ["invariants", "nonpos.json"],
    "transform_delete": ["transform", "delete", "isth.json", "--atom", "a"],
    "construct_uniform": ["construct", "uniform", "2", "4"],
    "construct_toric": ["construct", "toric", "toric1.json"],
    "construct_dowling": ["construct", "dowling", "-n", "2", "--group", "z2.json",
                          "--action", "t2_trivial.json"],
    "iso": ["iso", "dow_triv.json", "dow_nontriv.json"],
    "export_dot": ["export", "dot", "isth.json"],
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MSCHEME_FIXTURES", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(name: str, traced_stats: Path | None = None) -> list:
    if traced_stats is None:
        return [sys.executable, "-m", "mscheme.cli"] + CLI_COMMANDS[name]
    return ([sys.executable, str(Path(__file__).resolve().parent / "traced_cli.py"),
             str(traced_stats)] + CLI_COMMANDS[name])


def written_files(workdir: Path, keep: set) -> dict:
    return {p.name: inputs.digest(p.read_text(encoding="utf-8"))
            for p in sorted(workdir.iterdir()) if p.name not in keep}


class Cli(Workload):
    """One ``python -m mscheme.cli`` process at a time on the fixtures."""

    def __init__(self, ms, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference["cli"]
        self.workdir = None
        self.fixture_names = set()
        self.expected_stdout = {}

    def setup(self):
        self.cleanup()
        SCRATCH.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=SCRATCH))
        for path in sorted(FIXTURES.glob("*.json")):
            shutil.copyfile(path, self.workdir / path.name)
        self.fixture_names = {p.name for p in self.workdir.iterdir()}
        self.expected_stdout = {name: (REFERENCE / "cli" / f"{name}.stdout").read_bytes()
                                for name in CLI_COMMANDS}
        smoke = subprocess.run([sys.executable, "-m", "mscheme.cli", "--help"],
                               cwd=self.workdir, env=child_env(), capture_output=True)
        if smoke.returncode != 0:
            raise SystemExit(f"perfbench: mscheme.cli --help failed: {smoke.stderr!r}")

    def cleanup(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    def passes(self):
        rng = random.Random(f"cli/{self.seed}")
        names = list(CLI_COMMANDS)
        while True:
            order = list(names)
            rng.shuffle(order)
            yield order

    def run(self, name):
        for p in self.workdir.iterdir():
            if p.name not in self.fixture_names:
                p.unlink()
        stats = None if self.tracer is None else self.workdir.parent / f"{self.workdir.name}.json"
        proc = subprocess.run(cli_argv(name, stats), cwd=self.workdir,
                              env=child_env(), capture_output=True)
        if stats is not None:
            with open(stats, encoding="utf-8") as fh:
                child = json.load(fh)
            stats.unlink()
            self.tracer.merge(child["spans"])
            self.main_seconds += child["main_s"]
        return {"exit": proc.returncode, "stdout": proc.stdout,
                "traceback": b"Traceback" in proc.stderr}

    def check(self, name, out) -> list:
        """Exit code, stdout and the files the command wrote, against the
        references; no traceback on stderr."""
        want = self.reference[name]
        problems = []
        if out["exit"] != want["exit"]:
            problems.append(f"{name}: exit {out['exit']}, expected {want['exit']}")
        if out["stdout"] != self.expected_stdout[name]:
            problems.append(f"{name}: stdout differs from the expected file")
        if out["traceback"]:
            problems.append(f"{name}: traceback on stderr")
        if written_files(self.workdir, self.fixture_names) != want["files"]:
            problems.append(f"{name}: written files differ")
        return problems


WORKLOADS = {"construct": Construct, "invariants": Invariants, "cli": Cli}
