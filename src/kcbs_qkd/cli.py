"""Command-line front end: scenario verification, monogamy certificates,
protocol simulation and machine-readable report emission.

Exit codes for ``simulate``: 0 Secure, 2 Insecure, 3 Inconclusive, 1 error.
``verify`` and ``monogamy`` exit 0 on success, 1 on any failed check.  A
usage error exits 1 too, so that 2 always means Insecure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import math
import os
import pickle
import sys
from functools import cache, lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .adversary import (
    ABSENT,
    FIXED,
    RANDOM,
    RESEND_COLLAPSED,
    RESEND_EIGENSTATE,
    EveStrategy,
)
from .graphs import (
    MIMIC,
    PAPER_ABSTRACT,
    MonogamyCheckError,
    certificate_from_graph_document,
    verify_monogamy_decomposition,
)
from .kcbs import (
    KcbsBasis,
    bounds,
    derived_anticorr_values,
    standard_basis,
)
from .protocol import (
    ENTANGLED,
    PREPARE_MEASURE,
    ProtocolConfig,
    attack_expectation,
    estimate_security,
    key_stats,
    run_session,
    write_transcript_csv,
)

__all__ = ["main", "build_report", "report_json"]

_VERDICT_EXIT = {"Secure": 0, "Insecure": 2, "Inconclusive": 3}


def _report_float(x: float) -> float | None:
    """``x`` as a report writes it: rounded to 15 significant digits, the
    precision of every report float, and NaN as ``None``."""
    return None if x != x else float(f"{x:.15g}")


_INFINITIES = {math.inf: "Infinity", -math.inf: "-Infinity"}


class _Text(str):
    """JSON text that ``_encode`` writes as it is."""


def _encode(obj, indent: str, out: list) -> None:
    """Append to ``out`` the text that ``json.dumps(obj, indent=2,
    sort_keys=True)`` writes for ``obj`` with each float passed through
    ``_report_float``, with every line after the first starting with
    ``indent``: a newline and the spaces of ``obj``'s depth.  A ``_Text`` is
    written as it is.  Any type that JSON does not name, and any key that is
    not a str, raises ``TypeError``."""
    if isinstance(obj, float):  # first: most of a report's values
        obj = _report_float(obj)
        out.append("null" if obj is None else _INFINITIES.get(obj) or repr(obj))
    elif type(obj) is _Text:
        out.append(obj)
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        opening = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, got {type(key).__name__} {key!r}")
            out.append(opening + encode_basestring_ascii(key) + ": ")
            _encode(obj[key], inner, out)
            opening = "," + inner
        out.append(indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        opening = "[" + inner
        for item in obj:
            out.append(opening)
            _encode(item, inner, out)
            opening = "," + inner
        out.append(indent + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# report blocks that depend only on (Eve, basis): every report embeds the
# paper-abstract certificate, whatever the session's mode
_CONSTANT_BLOCKS = ("kcbs_constants", "monogamy_certificate", "monogamy_anticorr_bounds", "oracle")


def _nested_text(block) -> str:
    """``block``'s text one level down in a report."""
    out = []
    _encode(block, "\n  ", out)
    return "".join(out)


def _block_text(block) -> str:
    """``_nested_text(block)``, kept by the block's value: its pickle, which
    loads back to an equal value of the same types (a tuple and a list
    differ, so each gets an entry of the same text).  A value that cannot be
    pickled, such as an instance of a local class, is rendered every time."""
    try:
        key = pickle.dumps(block)
    except (pickle.PicklingError, TypeError, AttributeError):
        return _nested_text(block)
    return _pickled_text(key)


# bounded like the channel and oracle caches
@lru_cache(maxsize=32)
def _pickled_text(key: bytes) -> str:
    """The text of the block pickled as ``key``, rendered from the key alone,
    so that no entry can disagree with its key."""
    return _nested_text(pickle.loads(key))


def report_json(report: dict) -> str:
    """The indented, key-sorted JSON text of ``report``, as ``_encode``
    writes it, for any dict whose keys, at every depth, are str; any other
    key raises ``TypeError``.  The constant blocks (``_CONSTANT_BLOCKS``)
    are rendered once per value, and their texts are written in place of
    their keys' values."""
    out = []
    _encode({key: _Text(_block_text(value)) if key in _CONSTANT_BLOCKS else value
             for key, value in report.items()}, "\n", out)
    return "".join(out)


def _load_basis(path: str | None) -> KcbsBasis:
    if path is None:
        return standard_basis()
    with open(path) as fh:
        doc = json.load(fh)
    return KcbsBasis([[_amplitude(c) for c in entry] for entry in doc])


def _amplitude(c) -> complex:
    """A basis file's amplitude: a number, or a [re, im] pair of numbers."""
    parts = c if isinstance(c, list) and len(c) == 2 else [c]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
               for x in parts):
        raise ValueError(f"amplitude {c!r} is not a number or a [re, im] pair of numbers")
    return complex(*parts)


# --- verify ----------------------------------------------------------------


def _cmd_verify(args) -> int:
    try:
        basis = _load_basis(args.basis)
    except Exception as exc:  # corrupt file or failed pentagon invariants
        print(f"verify: invalid basis: {exc}", file=sys.stderr)
        return 1
    neighbor = float(max(basis.overlap[i, (i + 1) % 5] for i in range(5)))
    # ktilde is <psi|P|psi> for the mean projector P: its maximum over states
    # is P's largest eigenvalue, whatever the pentagon's orientation
    mean = sum(basis.projectors) / 5
    ktilde_max = float(np.linalg.eigvalsh(mean)[-1])
    constants = bounds()
    ok = (
        abs(ktilde_max - constants.quantum_projector_form) <= 1e-9
        and ktilde_max > constants.noncontextual_projector_form
    )
    block = {
        "pentagon_max_neighbor_overlap": neighbor,
        "ktilde_max": ktilde_max,
        "noncontextual_bound": constants.noncontextual_projector_form,
        "quantum_bound": constants.quantum_projector_form,
        "exclusivity_max": constants.exclusivity_max,
        "ok": ok,
    }
    if args.json:
        print(report_json(block))
    else:
        print(f"pentagon_max_neighbor_overlap {_report_float(neighbor)}")
        print(f"ktilde_max {_report_float(ktilde_max):.6f}")
        print(f"noncontextual_bound {_report_float(constants.noncontextual_projector_form)}")
        print(f"quantum_bound {_report_float(constants.quantum_projector_form):.6f}")
        print(f"exclusivity_max {_report_float(constants.exclusivity_max)}")
        print(f"ok {ok}")
    if not ok:
        print("verify: scenario invariants failed", file=sys.stderr)
        return 1
    return 0


# --- monogamy --------------------------------------------------------------


def _cmd_monogamy(args) -> int:
    try:
        if args.graph is not None:
            with open(args.graph) as fh:
                cert = certificate_from_graph_document(json.load(fh))
        else:
            cert = verify_monogamy_decomposition(mode=args.mode)
    except MonogamyCheckError as exc:
        print(f"monogamy: check failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"monogamy: {exc}", file=sys.stderr)
        return 1
    print(report_json(cert.to_json_dict()))
    return 0


# --- simulate --------------------------------------------------------------


def _parse_eve(eve: str, resend: str | None) -> EveStrategy:
    if eve == "absent":
        if resend is not None:
            raise ValueError("--resend requires an eavesdropper (--eve fixed:K|random)")
        return EveStrategy(kind=ABSENT)
    resend_policy = resend or RESEND_COLLAPSED
    if eve == "random":
        return EveStrategy(kind=RANDOM, resend=resend_policy)
    # the spelled-out specs only: int() would also take "fixed: 1" and other digits
    for k in range(5):
        if eve == f"fixed:{k}":
            return EveStrategy(kind=FIXED, setting=k, resend=resend_policy)
    raise ValueError(
        f"unknown eavesdropper spec {eve!r}: use absent, fixed:0 to fixed:4, or random"
    )


def _fields(obj) -> dict:
    """A new dict of a frozen dataclass's fields.  Shallow: their values are
    immutable (the oracle's tables are tuples), so nothing is copied."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def build_report(cfg: ProtocolConfig, transcript, stats, security) -> dict:
    """Assemble the full simulation report document.  Its dicts and lists
    are new on every call; the values in them are shared and immutable."""
    cert = verify_monogamy_decomposition()
    report = {
        "version": __version__,
        "config": {
            "mode": cfg.mode,
            "rounds": cfg.rounds,
            "sacrifice_fraction": cfg.sacrifice_fraction,
            "seed": cfg.seed,
            "eve": _fields(cfg.eve),
        },
        "total_attempts": transcript.total_attempts,
        "key_stats": _fields(stats),
        "security": _fields(security),
        "kcbs_constants": {
            "paper": _fields(bounds()),
            "derived": derived_anticorr_values(),
        },
        "monogamy_certificate": cert.to_json_dict(),
        # anti-correlation-form monogamy constants: the published value next
        # to the one implied by doubling the certificate bound; reported side
        # by side, never asserted against simulation
        "monogamy_anticorr_bounds": {"paper": 6.0 / 5.0, "derived": 2 * cert.bound},
    }
    if cfg.eve.present:
        report["oracle"] = _fields(attack_expectation(cfg.eve, cfg.basis))
    return report


def _temporary_path(path: str) -> str:
    """The file that ``_atomic_writer`` writes before it replaces ``path``."""
    return f"{path}.tmp"


@contextlib.contextmanager
def _atomic_writer(path: str):
    """A binary file that replaces ``path`` once written; removed on failure.
    Entering fails, before anything is written, where ``path`` is a directory
    that the file could not replace."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = _temporary_path(path)
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _check_outputs(out: str | None, transcript: str | None) -> None:
    """Refuse an ``--out`` that the transcript would overwrite: its own path,
    or the temporary file it is written through."""
    if not (out and transcript):
        return
    out = os.path.realpath(out)
    if out == os.path.realpath(transcript):
        raise ValueError("--out and --transcript name the same file")
    if out == os.path.realpath(_temporary_path(transcript)):
        raise ValueError(f"--out names the temporary file of --transcript {transcript}")


def _cmd_simulate(args) -> int:
    try:
        _check_outputs(args.out, args.transcript)
        eve = _parse_eve(args.eve, args.resend)
        mode = PREPARE_MEASURE if args.mode == "prepare" else ENTANGLED
        cfg = ProtocolConfig(
            mode=mode,
            basis=standard_basis(),
            rounds=args.rounds,
            sacrifice_fraction=args.sacrifice,
            eve=eve,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 1
    try:
        transcript = run_session(cfg)
    except (ValueError, MemoryError) as exc:  # numpy refuses a transcript this long
        print(f"simulate: cannot hold {cfg.rounds} rounds: {exc}", file=sys.stderr)
        return 1
    try:
        stats = key_stats(transcript)
        security = estimate_security(transcript)
    except ValueError as exc:  # e.g. no sifted rounds in a very short session
        print(f"simulate: {exc}", file=sys.stderr)
        return 1
    report = build_report(cfg, transcript, stats, security)
    path = args.transcript
    try:
        # both files are written before either replaces its path, and the
        # report replaces its path first: with --transcript P.tmp --out P, the
        # report is written through P.tmp.  The report's text is rendered once
        # the CSV is written, so that it is never held beside the writer
        with contextlib.ExitStack() as outputs:
            if args.transcript:
                write_transcript_csv(transcript, outputs.enter_context(_atomic_writer(path)))
            text = report_json(report)
            if args.out:
                path = args.out
                outputs.enter_context(_atomic_writer(path)).write((text + "\n").encode())
    except OSError as exc:
        print(f"simulate: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return 1
    if args.json:
        print(text)
    else:
        print(f"rounds {cfg.rounds}")
        for name in ("sift_rate", "p0", "p1", "shannon", "key_rate_per_transmission",
                     "anticorr_fraction"):
            print(f"{name} {_report_float(getattr(stats, name))}")
        print(f"kab_estimate {_report_float(security.kab_estimate)}")
        print(f"threshold {_report_float(security.threshold)}")
        print(f"verdict {security.verdict}")
        if security.pe_estimate is not None:
            print(f"pe_estimate {_report_float(security.pe_estimate)}")
    return _VERDICT_EXIT[security.verdict]


# --- entry point -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every call of ``main`` reuses it."""
    parser = _Parser(
        prog="kcbs-qkd",
        description="Contextuality-based qutrit QKD simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check the pentagon scenario invariants")
    p_verify.add_argument("--basis", help="JSON file with five replacement vectors")
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")

    p_mono = sub.add_parser("monogamy", help="emit the monogamy decomposition certificate")
    graph = p_mono.add_mutually_exclusive_group()
    graph.add_argument(
        "--mode", choices=[PAPER_ABSTRACT, MIMIC], default=PAPER_ABSTRACT,
        help="joint graph to certify: every edge exclusive (paper-abstract, the default), "
        "or each of Bob's projectors only compatible with Eve's copy of it (mimic)",
    )
    graph.add_argument("--graph", help="JSON file with a custom graph and parts")

    p_sim = sub.add_parser("simulate", help="run the protocol and emit a report")
    p_sim.add_argument("--rounds", type=int, required=True, help="rounds to simulate, at least 1")
    p_sim.add_argument("--seed", type=int, required=True,
                       help="seed in [0, 2^64); round r draws from the stream (seed, r)")
    p_sim.add_argument("--mode", choices=["prepare", "entangled"], default="prepare",
                       help="prepare-and-measure (default) or entangled-pair scheme")
    p_sim.add_argument("--eve", default="absent", help="absent | fixed:K (K = 0..4) | random")
    p_sim.add_argument("--resend", choices=[RESEND_COLLAPSED, RESEND_EIGENSTATE], default=None,
                       help="Eve's resend label (default collapsed), recorded in the report: "
                       "both name her Lüders channel; needs --eve fixed:K or random")
    p_sim.add_argument("--sacrifice", type=float, default=0.1,
                       help="fraction of sifted rounds spent on the security test, "
                       "in [0, 0.5] (default 0.1)")
    p_sim.add_argument("--out", help="write the JSON report to this path")
    p_sim.add_argument("--transcript", help="write the per-round CSV to this path")
    p_sim.add_argument("--json", action="store_true", help="print the report to stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "monogamy":
        return _cmd_monogamy(args)
    return _cmd_simulate(args)


if __name__ == "__main__":
    sys.exit(main())
