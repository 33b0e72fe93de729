"""Simulation substrate: engines, messages, metering, RNG streams."""

from .backends import (
    BackendUnavailableError,
    KernelBackend,
    available_backends,
    resolve_backend,
)
from .engine import SynchronousEngine
from .flood import FloodKernel
from .messages import (
    AdjacencyClaimMessage,
    ColorMessage,
    Message,
    TokenMessage,
    ValueMessage,
    VerifyQueryMessage,
    VerifyReplyMessage,
)
from .metrics import MessageMeter, PhaseRecord, PhaseTrace, color_bits
from .node import Inbox, NodeProgram, RoundContext
from .rng import derive_seed, make_rng, spawn, stream

__all__ = [
    "SynchronousEngine",
    "FloodKernel",
    "KernelBackend",
    "BackendUnavailableError",
    "available_backends",
    "resolve_backend",
    "Message",
    "ColorMessage",
    "AdjacencyClaimMessage",
    "VerifyQueryMessage",
    "VerifyReplyMessage",
    "TokenMessage",
    "ValueMessage",
    "MessageMeter",
    "PhaseRecord",
    "PhaseTrace",
    "color_bits",
    "NodeProgram",
    "RoundContext",
    "Inbox",
    "make_rng",
    "spawn",
    "stream",
    "derive_seed",
]
