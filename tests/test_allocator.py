"""What package import sets: the allocator policy, under which freed
activation arrays stay in the heap, so steady-state forwards do not fault
their pages in again, and the version, which is pyproject's.  Each policy
test runs in a fresh interpreter, since the policy is process-wide."""

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
