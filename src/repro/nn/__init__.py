"""``repro.nn`` — numpy autodiff + neural-network substrate.

This subpackage replaces PyTorch for the AdapTraj reproduction: a tape-based
reverse-mode autodiff :class:`~repro.nn.tensor.Tensor`, module containers,
feed-forward / recurrent / attention layers, optimizers with named parameter
groups (needed by the paper's Alg. 1), and checkpoint serialization.
"""

from repro.nn import functional, init
from repro.nn.attention import SocialAttention, SocialPooling
from repro.nn.compile import CompileError, Plan, capture
from repro.nn.layers import MLP, Activation, Dropout, Linear, Sequential
from repro.nn.module import Module, ModuleList, Parameter, inference_mode
from repro.nn.optim import SGD, Adam, Optimizer, clip_grad_norm
from repro.nn.recurrent import LSTM, LSTMCell
from repro.nn.serialization import (
    FORMAT_VERSION,
    CheckpointMeta,
    load_checkpoint,
    load_module,
    read_checkpoint,
    save_checkpoint,
    save_module,
)
from repro.nn.tensor import (
    Tensor,
    as_tensor,
    cat,
    default_dtype,
    enable_grad,
    get_default_dtype,
    grad_reverse,
    is_grad_enabled,
    no_grad,
    select_rows,
    set_default_dtype,
    stack,
    where,
)

__all__ = [
    "Activation",
    "Adam",
    "CheckpointMeta",
    "CompileError",
    "Dropout",
    "FORMAT_VERSION",
    "LSTM",
    "LSTMCell",
    "Linear",
    "MLP",
    "Module",
    "ModuleList",
    "Optimizer",
    "Parameter",
    "Plan",
    "SGD",
    "Sequential",
    "SocialAttention",
    "SocialPooling",
    "Tensor",
    "as_tensor",
    "capture",
    "cat",
    "clip_grad_norm",
    "default_dtype",
    "enable_grad",
    "functional",
    "get_default_dtype",
    "grad_reverse",
    "inference_mode",
    "init",
    "is_grad_enabled",
    "load_checkpoint",
    "load_module",
    "no_grad",
    "read_checkpoint",
    "save_checkpoint",
    "save_module",
    "select_rows",
    "set_default_dtype",
    "stack",
    "where",
]
