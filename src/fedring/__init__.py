"""fedring: a federated, privacy-preserving tensor runtime.

Secret-shared (SPDZ-style) tensor computation over Z_(2**62), a tensor-chain
runtime with virtual and socket workers, differentially private SGD with a
moments accountant, and small-MLP training loops.
"""

from .tensor import Dtype, RING_MODULUS, Tensor
from .dp import (
    MomentLedger,
    PrivacySpec,
    calibrate_sigma,
    epsilon_for,
    log_moment,
    log_moments,
)
from .workers import (
    Federation,
    TransportTap,
    VirtualRegistry,
    WorkerCore,
    socket_federation,
    virtual_federation,
)
from .chain import TensorChain, dispatch
from .train import TrainConfig

__version__ = "0.1.0"

__all__ = [
    "Dtype",
    "RING_MODULUS",
    "Tensor",
    "PrivacySpec",
    "MomentLedger",
    "log_moment",
    "log_moments",
    "epsilon_for",
    "calibrate_sigma",
    "WorkerCore",
    "VirtualRegistry",
    "Federation",
    "TransportTap",
    "virtual_federation",
    "socket_federation",
    "TensorChain",
    "dispatch",
    "TrainConfig",
    "__version__",
]
