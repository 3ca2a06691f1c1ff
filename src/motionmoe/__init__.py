"""Multi-person motion forecasting with a shared-expert state-space mixture."""

import ctypes


def _keep_freed_pages() -> None:
    """Fix glibc's malloc thresholds at their dynamic ceilings: blocks up to
    32 MiB come from the heap, and free heap top is trimmed only past 64 MiB.
    By default glibc maps each large block on its own and unmaps it on free,
    so every step or request faults its activations in again.  Does nothing
    where there is no glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


_keep_freed_pages()

from .autodiff import (AutodiffError, ShapeError, Tape, Tensor, backward,
                       finite_difference_check, get_default_dtype, primitive_names,
                       set_default_dtype)
from .data import GeneratorSpec, MotionSequence, read_dataset, synth_generate, write_dataset
from .model import ModelConfig, MotionMoE, audit_parameters
from .objectives import LossWeights, ape, jpe, report_at_horizons, total_loss
from .training import (AdamState, TrainSettings, evaluate, fit,
                       load_checkpoint, lr_at_epoch, model_from_checkpoint,
                       save_checkpoint)

__version__ = "0.5.0"

__all__ = [
    "AdamState", "AutodiffError", "GeneratorSpec", "LossWeights",
    "ModelConfig", "MotionMoE", "MotionSequence", "ShapeError", "Tape",
    "Tensor", "TrainSettings", "ape", "audit_parameters",
    "backward", "evaluate", "finite_difference_check", "fit",
    "get_default_dtype", "jpe", "load_checkpoint", "lr_at_epoch",
    "model_from_checkpoint", "primitive_names", "read_dataset",
    "report_at_horizons", "save_checkpoint", "set_default_dtype",
    "synth_generate", "total_loss", "write_dataset",
]
