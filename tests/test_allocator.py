"""What package import sets: the allocator policy, under which freed
activation arrays stay in the heap, so steady-state forwards do not fault
their pages in again, the version, which is pyproject's, the exports, the
private names that the package's modules import from each other, and the
classes that define ``parameters``.  Each policy test runs in a fresh
interpreter, since the policy is process-wide."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motionmoe

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_steady_state_forwards_do_not_refault_their_arrays():
    # glibc's default dynamic thresholds map and unmap blocks of this size
    # on every forward: about 1,000 minor faults per forward (measured)
    out = run("""
import resource
import numpy as np
from motionmoe import ModelConfig, MotionMoE, Tensor
model = MotionMoE(ModelConfig(joints=10, history_frames=30, total_frames=45,
                              active_experts=2, dropout=0.0))
x = Tensor(np.random.default_rng(0).standard_normal((8, 30, 30)))
for _ in range(2):
    model.forward(x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(4):
    model.forward(x)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
""")
    assert float(out) < 100


def test_import_succeeds_without_glibc():
    for stub in ("raise OSError('no libc')", "return object()"):
        out = run(f"""
import ctypes
def cdll(*args, **kwargs):
    {stub}
ctypes.CDLL = cdll
import motionmoe
print(motionmoe.__version__)
""")
        assert out.strip()


def test_package_version_is_the_pyproject_version():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(SRC).parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == motionmoe.__version__


def test_every_export_resolves():
    # a stale entry in __all__ would break ``from motionmoe import *``
    assert [name for name in motionmoe.__all__ if not hasattr(motionmoe, name)] == []


def test_modules_share_only_the_kernels_that_must_match_across_them():
    # (from module, into module, name) of each private name imported from a
    # sibling: the matmul and broadcast-sum gradients, which the fused block
    # shares with the matmul and add primitives of its oracle chain, and the
    # scan's chunk length, by which the mixture orders its stacked stages.  A
    # kernel that only one module runs lives in that module
    shared = set()
    for path in sorted(Path(SRC, "motionmoe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("motionmoe")):
                source = (node.module or "").removeprefix("motionmoe").lstrip(".")
                shared |= {(source, path.stem, alias.name) for alias in node.names
                           if alias.name.startswith("_")}
    assert shared == {("autodiff", "ssm", "_matmul_grads"), ("autodiff", "ssm", "_unbroadcast"),
                      ("ssm", "moe", "_chunk_steps")}


def test_only_the_module_base_and_the_model_list_parameters():
    # a module's weights are its dataclass fields, which ``Module.parameters``
    # walks; a hand-written list beside them can miss a field, which is then
    # never trained, checkpointed or audited.  ``MotionMoE`` names its codec
    # and layers
    owners = []
    for path in sorted(Path(SRC, "motionmoe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                owners += [f"{path.stem}.{node.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef) and item.name == "parameters"]
    assert owners == ["autodiff.Module", "model.MotionMoE"]


def test_every_imported_name_is_used():
    # in the package's modules and in the tests; the names listed in
    # ``__all__`` are the package's exports
    unused = []
    for path in sorted([*Path(SRC, "motionmoe").glob("*.py"),
                        *Path(__file__).parent.glob("*.py")]):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= {elt.value for elt in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                unused += [f"{path.name}: {name}" for alias in node.names
                           if (name := alias.asname or alias.name.split(".")[0]) not in used]
    assert not unused, unused
