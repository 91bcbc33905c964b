"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every catalogue input once and writes ``reference/digests.json``
(SHA-256 of each output document, and which candidate contractions
validate) and ``reference/cli/<command>.stdout`` plus the exit code and
written-file digests of each command line.  The references were recorded
once, at the commit that introduced the benchmark; record again only when
an output is meant to change.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import inputs
import workloads


def record_construct(ms) -> dict:
    wl = workloads.Construct(ms, 0, {"construct": {}})
    wl.setup()
    return {inputs.key(e): inputs.digest(wl.run(e)) for e in inputs.CONSTRUCT_CATALOGUE}


def record_invariants(ms) -> tuple[dict, dict, dict]:
    ctx = workloads.program_inputs(ms)
    digests, iso, contract_valid = {}, {}, {}
    for entry in inputs.INVARIANTS_POOL_CATALOGUE:
        item = workloads.pool_item(ms, entry, ctx)
        k = inputs.key(entry)
        contract_valid.update(item["contract_valid"])
        for spec in item["specs"]:
            minor = workloads.make_minor(ms, item["scheme"], spec)
            digests[f"{k}|{inputs.key(spec)}"] = inputs.digest(workloads.invariants_doc(ms, minor))
        if item["copy"] is not None:
            phi = ms.scheme_isomorphism(item["scheme"], item["copy"])
            iso[k] = inputs.digest(sorted(phi.items()))
        print(f"recorded {k[:60]}", file=sys.stderr)
    return digests, iso, contract_valid


def record_cli() -> dict:
    out_dir = workloads.REFERENCE / "cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    workloads.SCRATCH.mkdir(exist_ok=True)
    expected = {}
    try:
        with tempfile.TemporaryDirectory(dir=workloads.SCRATCH) as tmp:
            workdir = Path(tmp)
            for path in sorted(workloads.FIXTURES.glob("*.json")):
                shutil.copyfile(path, workdir / path.name)
            keep = {p.name for p in workdir.iterdir()}
            for name in workloads.CLI_COMMANDS:
                proc = subprocess.run(workloads.cli_argv(name), cwd=workdir,
                                      env=workloads.child_env(), capture_output=True)
                (out_dir / f"{name}.stdout").write_bytes(proc.stdout)
                expected[name] = {"exit": proc.returncode,
                                  "files": workloads.written_files(workdir, keep)}
                for p in workdir.iterdir():
                    if p.name not in keep:
                        p.unlink()
    finally:
        workloads.SCRATCH.rmdir()
    return expected


def main() -> int:
    ms = workloads.import_program()
    digests, iso, contract_valid = record_invariants(ms)
    reference = {"construct": record_construct(ms), "invariants": digests, "iso": iso,
                 "contract_valid": contract_valid, "cli": record_cli()}
    with open(workloads.REFERENCE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
