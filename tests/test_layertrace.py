"""The benchmark's layer tracer must find every function it times in the
package; a renamed target would otherwise only show when the benchmark
traces."""

import importlib
import pathlib
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

from layertrace import TARGETS, Tracer  # noqa: E402


def _target(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _namespaces():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if module is not None and (name == "gasymp" or name.startswith("gasymp."))}


def test_tracer_binds_every_target_and_restores_originals():
    targets = {name: _target(module_name, path) for name, module_name, path in TARGETS}
    originals = {name: vars(owner)[attr] for name, (owner, attr) in targets.items()}
    before = _namespaces()
    tracer = Tracer()
    tracer.install()
    try:
        for name, (owner, attr) in targets.items():
            assert getattr(vars(owner)[attr], "__gasymp_trace__", None) == name
    finally:
        tracer.uninstall()
    for name, (owner, attr) in targets.items():
        assert vars(owner)[attr] is originals[name]
    after = _namespaces()
    assert after.keys() == before.keys()
    for module, names in before.items():
        assert all(after[module].get(key) is value for key, value in names.items()), module


def test_benchmark_smoke_run_passes():
    """The benchmark's own smoke check, so a change that breaks the calls the
    benchmark makes fails here and not only when the benchmark runs."""
    root = pathlib.Path(__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--smoke"],
                         capture_output=True, text=True, cwd=root)
    assert res.returncode == 0, res.stdout + res.stderr
