"""Tests of the benchmark's own machinery.

    python3 -m pytest bench -q

They cover the self-time arithmetic, the traced launcher (its spans
must see the `from ... import` call sites), the output checkers on
truncated and malformed files, the reproducibility digest, and the
agreement between BENCHMARK.json and the metrics run.py reports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, merge_spans  # noqa: E402

from locosparse.cli import entrypoint  # noqa: E402
from locosparse.tensor import save_tensor  # noqa: E402
from synthdata import dead_leaves_image  # noqa: E402

TINY = ["--penalty", "wl", "--lambda", "0.3", "--patch-size", "4", "--num-atoms", "6",
        "--steps", "5", "--epochs", "6", "--batch-size", "12", "--seed", "3"]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 3] and c [4, 4.5]; b holds d [1.5, 2.5]
    tracer = Tracer(FakeClock([0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 4.5, 10.0]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("d")
    tracer.exit()
    tracer.exit()
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    spans = tracer.spans
    assert spans["a"]["total_s"] == 10.0 and spans["a"]["self_s"] == 7.5
    assert spans["b"]["total_s"] == 2.0 and spans["b"]["self_s"] == 1.0
    assert spans["d"]["self_s"] == 1.0
    assert spans["c"]["self_s"] == 0.5
    assert sum(s["self_s"] for s in spans.values()) == spans["a"]["total_s"]


def test_repeated_spans_and_counters_accumulate():
    tracer = Tracer(FakeClock([0.0, 1.0, 2.0, 5.0]))
    for _ in range(2):
        tracer.enter("f")
        tracer.exit()
    tracer.count("f", {"columns": 3, "scratch_bytes_max": 10})
    tracer.count("f", {"columns": 4, "scratch_bytes_max": 7})
    assert tracer.spans["f"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0,
                                 "columns": 7, "scratch_bytes_max": 10}
    merged = merge_spans([tracer.spans, {"f": {"calls": 1, "scratch_bytes_max": 12}}])
    assert merged["f"]["calls"] == 3 and merged["f"]["scratch_bytes_max"] == 12


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A tiny train, eval and render, run in-process from tmp as cwd."""
    base = tmp_path_factory.mktemp("tiny")
    save_tensor(dead_leaves_image(side=40, num_discs=40, seed=11, r_min=3.0, r_max=12.0),
                str(base / "image.sct"))
    cwd = os.getcwd()
    os.chdir(base)
    try:
        assert entrypoint(["train", "--data", "image.sct", *TINY, "--out", "m"]) == 0
        assert entrypoint(["eval", "--model", "m", "--source", "atoms", "--bins", "4",
                           "--out", "e"]) == 0
        assert entrypoint(["render", "--tensor", "m.sct", "--out", "g.svg"]) == 0
    finally:
        os.chdir(cwd)
    return base


def test_checkers_accept_real_outputs(tiny_run):
    assert checks.check_train(tiny_run, "m", 4, 6, 6)[-1] == "m.manifest.txt"
    outputs, summary = checks.check_eval(tiny_run, "e", 6, 4, "atoms")
    assert len(outputs) == 4 and 0.0 <= summary["symmetry_score"] <= 1.0
    assert checks.check_render(tiny_run, "g.svg", 6, 4) == ["g.svg"]


def _damaged_copy(src, tmp_path, name, damage):
    for path in src.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    target = tmp_path / name
    target.write_bytes(damage(target.read_bytes()))
    return tmp_path


@pytest.mark.parametrize("name, damage, check", [
    ("m.sct", lambda b: b[:-1], lambda base: checks.check_train(base, "m", 4, 6, 6)),
    ("m.loss.csv", lambda b: b[: b.rindex(b"\n", 0, -1) + 1],
     lambda base: checks.check_train(base, "m", 4, 6, 6)),
    ("m.loss.csv", lambda b: b.replace(b"\n1,", b"\n1;", 1),
     lambda base: checks.check_train(base, "m", 4, 6, 6)),
    ("m.meta", lambda b: b.replace(b"steps=", b"stepz="),
     lambda base: checks.check_train(base, "m", 4, 6, 6)),
    ("m.manifest.txt", lambda b: b.replace(b"fnv1a64=", b"fnv1a64=zz"),
     lambda base: checks.check_train(base, "m", 4, 6, 6)),
    ("e.gabor.csv", lambda b: b[:-2],
     lambda base: checks.check_eval(base, "e", 6, 4, "atoms")),
    ("e.gabor.csv", lambda b: b.replace(b",true\n", b",yes\n").replace(b",false\n", b",no\n"),
     lambda base: checks.check_eval(base, "e", 6, 4, "atoms")),
    ("e.phases.csv", lambda b: b[: b.rindex(b"\n", 0, -1) + 1],
     lambda base: checks.check_eval(base, "e", 6, 4, "atoms")),
    ("e.summary.txt", lambda b: b.replace(b"converged=", b"converged=9", 1),
     lambda base: checks.check_eval(base, "e", 6, 4, "atoms")),
    ("g.svg", lambda b: b[: len(b) // 2], lambda base: checks.check_render(base, "g.svg", 6, 4)),
    ("g.svg", lambda b: b.replace(b"<rect ", b"<rct ", 1),
     lambda base: checks.check_render(base, "g.svg", 6, 4)),
])
def test_checkers_reject_truncated_or_malformed_files(tiny_run, tmp_path, name, damage, check):
    with pytest.raises(checks.OutputError):
        check(_damaged_copy(tiny_run, tmp_path, name, damage))


def test_cluster_checker_rejects_unused_label_and_wrong_side(tmp_path):
    good = "vertex_id,side,label\n0,atom,0\n1,stimulus,1\n2,stimulus,1\n"
    (tmp_path / "c.csv").write_text(good)
    assert checks.check_cluster(tmp_path, "c.csv", ["atom", "stimulus", "stimulus"], 2)
    for bad in (good.replace(",1\n", ",0\n"),
                good.replace("0,atom", "0,stimulus"),
                good[:-1]):
        (tmp_path / "c.csv").write_text(bad)
        with pytest.raises(checks.OutputError):
            checks.check_cluster(tmp_path, "c.csv", ["atom", "stimulus", "stimulus"], 2)


def test_reproducibility_check_catches_one_changed_byte(tiny_run, tmp_path):
    names = sorted(p.name for p in tiny_run.iterdir())
    reference = checks.digest_files(tiny_run, names)
    copy = _damaged_copy(tiny_run, tmp_path, "m.sct", lambda b: b)
    assert checks.changed_files(reference, checks.digest_files(copy, names)) == []

    data = bytearray((copy / "m.sct").read_bytes())
    data[len(data) // 2] ^= 0x01
    (copy / "m.sct").write_bytes(bytes(data))
    assert checks.changed_files(reference, checks.digest_files(copy, names)) == ["m.sct"]


def test_reproducibility_check_ignores_only_the_manifest_duration(tiny_run, tmp_path):
    names = ["m.manifest.txt"]
    reference = checks.digest_files(tiny_run, names)
    copy = _damaged_copy(tiny_run, tmp_path, "m.manifest.txt",
                         lambda b: b[: b.index(b"duration_seconds=")] + b"duration_seconds=9.999\n")
    assert checks.changed_files(reference, checks.digest_files(copy, names)) == []
    text = (copy / "m.manifest.txt").read_text().replace("config.seed=3", "config.seed=4")
    (copy / "m.manifest.txt").write_text(text)
    assert checks.changed_files(reference, checks.digest_files(copy, names)) == names


def test_launcher_traces_from_import_call_sites(tiny_run, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "launcher.py"), str(trace), "train",
         "--data", str(tiny_run / "image.sct"), *TINY, "--out", str(tmp_path / "m")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace.read_text())
    # cli.py and trainer.py call these through `from .x import f` bindings
    assert spans["cli.entrypoint"]["calls"] == 1
    assert spans["trainer.train"]["calls"] == 1
    assert spans["encoder.encode"]["calls"] == 6
    assert spans["encoder.encode"]["columns"] == 6 * 12
    assert spans["patches.sample_patches"]["calls"] == 6
    assert spans["manifest.digest_file"]["calls"] == 1
    assert spans["manifest.digest_file"]["bytes"] == (tiny_run / "image.sct").stat().st_size
    assert spans["trainer.dictionary_step"]["calls"] == 6
    assert (tmp_path / "m.sct").read_bytes() == (tiny_run / "m.sct").read_bytes()


def test_launcher_keeps_the_exit_code_of_a_failing_command(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "launcher.py"), str(trace), "render",
         "--tensor", str(tmp_path / "missing.sct"), "--out", str(tmp_path / "g.svg")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert json.loads(trace.read_text())["cli.entrypoint"]["calls"] == 1


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {f"{n}.{k}": u for n, k, u in run.SPAN_METRICS} | run.DERIVED_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    for workload in spec["workloads"]:
        assert workload["why"] == run.WORKLOADS[workload["name"]].why


def test_every_workload_pass_runs_each_reported_kind():
    # train_s, eval_s and cluster_s are measured in every run of every workload
    for workload in run.WORKLOADS.values():
        kinds = {cmd.kind for cmd in workload.commands(7)}
        assert {"train", "eval", "cluster"} <= kinds, workload.name


def test_every_command_of_a_pass_writes_its_own_outputs():
    # outputs are checked after the pass, so a repeat must not overwrite another's
    for workload in run.WORKLOADS.values():
        outs = [cmd.args[cmd.args.index("--out") + 1] for cmd in workload.commands(7)]
        assert len(outs) == len(set(outs)), workload.name


def test_end_to_end_reports_every_metric():
    def child(wall):
        return run.Child(wall, 50.0, 0, "")

    bench = run.Bench(run.WORKLOADS["learn"], 7, 1.0, False, Path("unused"))
    bench.setup_samples = [0.4, 0.5, 0.6]
    for scale in (1.0, 2.0):
        records = [run.CommandRecord(kind, [kind], child(scale * wall), False, ok=True)
                   for kind, wall in (("train", 3.0), ("eval", 0.5), ("cluster", 0.25))]
        bench.passes.append(run.PassRecord(scale * 3.75, records))
    values = bench.end_to_end()
    assert set(values) == set(run.END_TO_END_UNITS)
    assert values["eval_s"] == 0.75 and values["setup_s"] == 0.5
    assert values["ops_ok_frac"] == 1.0


def _bench_with_fake_passes(workload, seconds, trace, pass_s, setup_s=1.0):
    """A Bench whose passes and set-ups only advance a fake clock."""
    now = [0.0]
    bench = run.Bench(run.WORKLOADS[workload], 7, seconds, trace, Path("unused"),
                      clock=lambda: now[0])

    def run_pass(traced):
        now[0] += pass_s
        bench.passes.append(run.PassRecord(pass_s, [], traced))
        return bench.passes[-1]

    def setup_sample():
        now[0] += setup_s
        bench.setup_samples.append(setup_s)

    bench.run_pass, bench.setup_sample = run_pass, setup_sample
    bench.run()
    return [p.traced for p in bench.passes]


def test_run_makes_the_minimum_passes_past_its_seconds():
    assert _bench_with_fake_passes("gate-atoms", 1.0, False, 40.0) == [False, False]
    assert _bench_with_fake_passes("sta-graph", 1.0, False, 40.0) == [False]


def test_run_leaves_room_for_the_traced_pass():
    # a third untraced pass would end at 124 s and the traced one past 170 s
    assert _bench_with_fake_passes("learn", 1000.0, True, 40.0) == [False, False, True]
    assert _bench_with_fake_passes("learn", 1000.0, False, 40.0) == [False, False, False]
