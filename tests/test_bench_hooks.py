"""What the benchmark in bench/ reads of the package must exist.

The benchmark replaces package functions by (module, attribute) name while
it traces a job. A rename or deletion would break `bench/run.py --trace 1`
without failing any other test, so the names are read here from the
benchmark's sources (parsed, not imported) and looked up on the package.
The hooks also read arguments, results and attributes of those calls,
and the harness writes config files and pickles the result cache; the
later tests pin those, loading bench/harness.py itself where it helps.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def assigned(filename, name):
    """The literal value assigned to `name` at the top of a bench module."""
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{filename} assigns no {name}")


HOOKS = sorted({(target[0], target[1])
                for target in assigned("tracing.py", "TARGETS")
                + assigned("harness.py", "TICK_TARGETS")})


@pytest.mark.parametrize("module, attribute", HOOKS,
                         ids=[f"{m}.{a}" for m, a in HOOKS])
def test_bench_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_traced_singulars_is_a_property():
    from cmadof.channel import ChannelOperator

    assert isinstance(ChannelOperator.__dict__["singulars"], property)


def load_bench_module(monkeypatch, filename, name):
    """bench/`filename` as module `name`, registered for this test only."""
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def load_harness(monkeypatch):
    """bench/harness.py as a module; it imports only the standard library
    at module level."""
    return load_bench_module(monkeypatch, "harness.py", "bench_harness")


def recorded(monkeypatch, module, name):
    """Rebind module.name to a wrapper that keeps (args, result) of each
    call, as the benchmark's tracer does."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_traced_calls_expose_what_the_hooks_read(monkeypatch):
    import cmadof.ga
    from cmadof.efie import C0
    from cmadof.ga import PixelProblem, evaluate
    from cmadof.mesh import PlateSpec

    freq = 27e9
    pix = 0.24 * C0 / freq
    spec = PlateSpec(width=2 * pix, height=2 * pix, pixel_rows=2,
                     pixel_cols=2, ports=2)
    problem = PixelProblem(tx_spec=spec, rx_spec=spec, frequency=freq,
                           separation=0.05, n_keep=8)
    assembled = recorded(monkeypatch, cmadof.ga, "assemble_impedance")
    channels = recorded(monkeypatch, cmadof.ga, "assemble_channel")
    score = evaluate(problem, np.ones(problem.bit_length, dtype=np.uint8))

    # tracing._after_assemble counts kernel evaluations from args[0]
    (args, _), = assembled
    assert args[0].mesh.n_faces == 8
    # tracing._after_channel reads result.matrix; the traced singulars
    # property tests op._singulars, which caches the property
    (_, op), = channels
    assert op.matrix.nbytes > 0
    assert op._singulars is None
    singulars = op.singulars
    assert op._singulars is singulars
    # EvalCounter takes the fitness as result[2]
    assert evaluate(problem, np.ones(8, dtype=np.uint8))[2] == score.fitness
    # pickled_bytes sizes the result cache
    cache_bytes, result_bytes = load_harness(monkeypatch).pickled_bytes(problem)
    assert cache_bytes > 0 and result_bytes > 0


def test_cli_binds_the_probed_functions():
    # setup_probe.py stops the CLI at its first run_ga or evaluate call by
    # rebinding the names the cli module holds
    from cmadof import cli, ga

    assert cli.run_ga is ga.run_ga
    assert cli.evaluate is ga.evaluate


@pytest.mark.parametrize("command", ["dof", "optimize"])
def test_benchmark_configs_load(tmp_path, monkeypatch, command):
    from cmadof.config import load_run_config

    harness = load_harness(monkeypatch)
    for workload in harness.WORKLOADS.values():
        values = harness.job_config(workload, command, tmp_path / "out", 0)
        path = tmp_path / f"{workload.name}.ini"
        path.write_text(harness.config_text(values), encoding="utf-8")
        cfg = load_run_config(str(path))
        if command == "optimize":
            assert cfg.jobs == workload.jobs


def passes_the_gate(tmp_path, monkeypatch, workload_name, command):
    """Run the benchmark's job of `workload_name` and `command` on the
    first GA seed with its own runner, and check it with its own
    correctness gate against the recorded reference."""
    import cmadof.cli  # loaded first, so its binding is put back too
    import cmadof.ga

    harness = load_harness(monkeypatch)
    load_bench_module(monkeypatch, "tracing.py", "tracing")
    # EvalCounter.install rebinds every cmadof binding of ga.evaluate;
    # setting each to itself lets monkeypatch put it back afterwards
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "cmadof" or mod_name.startswith("cmadof."):
            for name, value in list(vars(module).items()):
                if value is cmadof.ga.evaluate:
                    monkeypatch.setattr(module, name, value)
    counter = harness.EvalCounter()
    counter.install()
    workload = harness.WORKLOADS[workload_name]
    values = harness.job_config(workload, command, tmp_path / "out", 0)
    job = harness.run_job(command, values, tmp_path, counter)
    harness.check(job, harness.load_reference()[workload.reference], 0)
    assert job.ok, job.error


@pytest.mark.parametrize("command", ["dof", "optimize"])
def test_ga_link_seed_zero_passes_the_gate(tmp_path, monkeypatch, command):
    passes_the_gate(tmp_path, monkeypatch, "ga_link", command)


def test_dof_large_dof_job_passes_the_gate(tmp_path, monkeypatch):
    # the large link's reference fails on a roundoff-level change of Z
    # (a 1e-16 relative perturbation moves its leading singular value by
    # more than the gate's tolerance), so this pins the claim that the
    # parent assembly's Z does not change by one bit
    passes_the_gate(tmp_path, monkeypatch, "dof_large", "dof")
