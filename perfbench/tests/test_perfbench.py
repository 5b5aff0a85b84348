"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from hopfgalois import io_json  # noqa: E402
from tracing import TARGETS, Tracer, _resolve  # noqa: E402

run.use_checkout_sources()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.GENERATED))
def test_generated_bundles_load(tmp_path, name, seed):
    """Every generated bundle, relabelled or not, passes the loader's audit."""
    import bundles
    path = tmp_path / f"{name}.json"
    record = workloads.GENERATED[name]()
    path.write_text(json.dumps(bundles.relabel(record, seed)))
    assert io_json.load_bundle(str(path)).comodule_algebras


def test_relabel_is_the_identity_only_at_seed_zero():
    import bundles
    record = json.loads(json.dumps(workloads.GENERATED["H4_f7_free"]()))
    assert bundles.relabel(record, 0) == record
    assert bundles.relabel(record, 1) != record
    assert bundles.relabel(record, 1) == bundles.relabel(record, 1)


# a few cheap operations from every workload
SAMPLE = {
    "audit": [0, 1, 5, 7, 11],
    "theorem": [0],
    "search-proof": [0, 3],
    "search-witness": [0, 2],
}


def _wrapped_bindings():
    """Every attribute that still holds a tracing wrapper."""
    import sympy
    owners = [m for name, m in sys.modules.items()
              if name == "hopfgalois" or name.startswith("hopfgalois.")]
    owners += [sympy] + [_resolve(module, path)[0]
                         for _, module, path, _, _ in TARGETS]
    return [(owner, name) for owner in owners
            for name, value in list(vars(owner).items())
            if getattr(value, "__wrapped_by_perfbench__", False)]


def test_traced_reports_identical_and_wrappers_restored(tmp_path):
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)
    originals = {(module, path): getattr(*_resolve(module, path))
                 for _, module, path, _, _ in TARGETS}
    for workload, picks in SAMPLE.items():
        paths = run.setup(workload, 0, str(tmp_path))
        for i in picks:
            op = workloads.WORKLOADS[workload][i]
            plain = run.execute(op, paths, 0)
            tracer = Tracer()
            with tracer:
                assert _wrapped_bindings()
                traced = run.execute(op, paths, 0)
            assert (traced[1], traced[3]) == (plain[1], plain[3]), op.name
            assert run.digest(traced[3]) == golden[workload][op.name]
            assert tracer.snapshot(1.0)["io_json.load_bundle.calls"] == 1
    assert _wrapped_bindings() == []
    for (module, path), original in originals.items():
        assert getattr(*_resolve(module, path)) is original, path


def test_tracer_restores_after_an_exception():
    from hopfgalois import linalg
    original = linalg.Matrix.rref
    with pytest.raises(RuntimeError):
        with Tracer():
            assert linalg.Matrix.rref is not original
            raise RuntimeError("boom")
    assert linalg.Matrix.rref is original
    assert _wrapped_bindings() == []


def test_tracer_skips_a_target_that_no_longer_exists(monkeypatch):
    import tracing
    gone = ("cleft.gone", "hopfgalois.cleft", "gone", tracing.ALL, None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [gone])
    with Tracer() as tracer:
        assert tracer.missing == ["hopfgalois.cleft.gone"]
    assert tracer.snapshot(1.0)["cleft.gone.calls"] == 0
    assert _wrapped_bindings() == []


def test_injected_exception_counts_in_fail_ratio(monkeypatch, tmp_path):
    """One raising operation in a two-operation pass, plus the three
    known-defect probes that raise NotGalois: (1 + 3) / (2 + 3)."""
    from hopfgalois import cli

    def broken(args):
        raise RuntimeError("injected")

    ops = [workloads.Op(["validate"], "fx:kc2"),
           workloads.Op(["smash-check"], "fx:cp4")]
    monkeypatch.setitem(workloads.WORKLOADS, "audit", ops)
    monkeypatch.setattr(cli, "cmd_validate", broken)
    result = run.measure("audit", 1, 0, True, str(tmp_path))
    passes = result["attempted"] // len(ops)
    assert result["failed"] == passes
    assert not result["correct"]
    assert result["metrics"]["cli.fail_ratio"]["value"] == pytest.approx(0.8)


def test_per_layer_names_match_benchmark_json(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "theorem",
                        [workloads.Op(["validate"], "fx:kc2")])
    result = run.measure("theorem", 1, 0, True, str(tmp_path))
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert run.unit_of(m["name"]) == m["unit"]
