"""The benchmark's tracer (bench/tracer.py) wraps functions and methods of
the package by name; these tests keep those names in step with the package."""

import importlib
import importlib.util
import os

import multinv.matgroup
from multinv.cli import main
from multinv.matgroup import MatGroup

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "bench", "tracer.py")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_uninstalls(capsys):
    tracer = _tracer_module()
    methods = {key: vars(getattr(importlib.import_module(f"multinv.{key[0]}"), key[1]))[key[2]]
               for key in tracer.METHODS}
    generate = multinv.matgroup.generate
    t = tracer.Tracer()
    t.install()
    try:
        assert multinv.matgroup.generate is not generate
        assert vars(MatGroup)["mult_table"] is not methods["matgroup", "MatGroup", "mult_table"]
        for argv in (["classify", "--audit", "--builtin", "s4"], ["analyze", "--builtin", "s3"],
                     ["cohomology", "--builtin", "s3", "--depth", "5"]):
            assert main(argv) == 0, argv
    finally:
        t.uninstall()
    capsys.readouterr()
    assert multinv.matgroup.generate is generate
    for (layer, cls, meth), original in methods.items():
        owner = getattr(importlib.import_module(f"multinv.{layer}"), cls)
        assert vars(owner)[meth] is original
    metrics = tracer.layer_metrics(t, 1)
    assert metrics["matgroup.mult_table.calls"][0] > 0
    assert metrics["matgroup.mult_table.entries"][0] > 0
    assert metrics["classify.verdicts.R2"][0] == 1
    # analyze reaches the hooks on isotropy_subgroups and mu_action
    assert metrics["action.isotropy_subgroups.realized"][0] > 0
    assert metrics["action.mu_action.calls"][0] > 0
    assert t.per_name()["cohomology.cohomology_table"][0] == 1
