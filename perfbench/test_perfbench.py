"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import inputs
import tracer
import workloads


def _input_digest(seed: int) -> str:
    rng_passes = workloads.Construct(None, seed, {"construct": {}}).passes()
    construct = [next(rng_passes) for _ in range(3)]
    cli_passes = workloads.Cli(None, seed, {"cli": {}}).passes()
    cli = [next(cli_passes) for _ in range(3)]
    return inputs.digest([construct, inputs.invariants_pool(), cli])


def test_one_seed_gives_one_input_list():
    assert _input_digest(1) == _input_digest(1)


def test_two_seeds_give_different_inputs():
    assert _input_digest(1) != _input_digest(2)


def test_construct_pass_has_fixed_composition():
    rng_a, rng_b = (workloads.Construct(None, s, {"construct": {}}).passes() for s in (1, 2))
    kinds = [sorted(e[0] for e in next(p)) for p in (rng_a, rng_b)]
    assert kinds[0] == kinds[1]


def test_sampled_clock_corrects_each_op_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SampledClock() as clock:
        for _ in range(3):
            t0 = clock.start()
            time.sleep(0.12)
            clock.stop(t0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert clock.overhead > 0 and len(clock.samples) >= 6
    assert all(net < 0.12 + 0.01 for _, _, net in clock.ops)
    assert len(clock.corrected()) == 3 and min(clock.corrected()) > 0


def test_every_construct_input_has_a_reference_digest():
    reference = workloads.load_reference()
    assert set(reference["construct"]) == {inputs.key(e) for e in inputs.CONSTRUCT_CATALOGUE}


def test_tracer_restores_bindings_and_nests_spans():
    ms = workloads.import_program()
    original = ms.scheme.bases
    m = ms.files.load_scheme(workloads.FIXTURES / "dow_triv.json")
    tr = tracer.Tracer()
    tr.install()
    try:
        assert ms.scheme.bases is not original and ms.bases is ms.scheme.bases
        ms.tutte_delcon(m)
        ms.isthmuses(m)
    finally:
        tr.uninstall()
    assert ms.scheme.bases is original and ms.bases is original
    assert tr.calls["tutte.tutte_delcon"] == 1
    assert tr.calls["poset.verify_simplicial"] == tr.counts["tutte.tutte_delcon.verify_simplicial_calls"] > 0
    assert tr.calls["scheme.bases"] > 0
    for span in tracer.SPANS:
        assert 0 <= tr.self_time[span] <= tr.total[span] + 1e-9


def test_run_refuses_a_directory_without_the_program():
    workloads.SCRATCH.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=workloads.SCRATCH))
    try:
        shutil.copytree(Path(workloads.__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copyfile(workloads.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "construct",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
        if not any(workloads.SCRATCH.iterdir()):
            workloads.SCRATCH.rmdir()
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_lists_every_metric():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {f"{s}.{k}" for s in tracer.SPANS for k in ("calls", "s", "self_s")} <= per_layer
    assert len(per_layer) == len(spec["per_layer"]) <= 128
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
