"""Simulator and analysis toolkit for a contextuality-based qutrit QKD protocol."""

__version__ = "0.1.0"

from .adversary import EveStrategy
from .graphs import (
    ContextGraph,
    EdgeKind,
    MonogamyCertificate,
    joint_commutation_graph,
    verify_monogamy_decomposition,
)
from .kcbs import KcbsBasis, KcbsBounds, bounds, ktilde, standard_basis
from .protocol import (
    AttackExpectation,
    KeyStats,
    ProtocolConfig,
    Round,
    SecurityReport,
    Transcript,
    attack_expectation,
    estimate_security,
    key_stats,
    run_round,
    run_session,
)
from .qutrit import RngStream

__all__ = [
    "__version__",
    "AttackExpectation",
    "EveStrategy",
    "attack_expectation",
    "ContextGraph",
    "EdgeKind",
    "MonogamyCertificate",
    "joint_commutation_graph",
    "verify_monogamy_decomposition",
    "KcbsBasis",
    "KcbsBounds",
    "bounds",
    "ktilde",
    "standard_basis",
    "KeyStats",
    "ProtocolConfig",
    "Round",
    "SecurityReport",
    "Transcript",
    "estimate_security",
    "key_stats",
    "run_round",
    "run_session",
    "RngStream",
]
