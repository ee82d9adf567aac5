"""Command-line front end: scenario verification, monogamy certificates,
protocol simulation and machine-readable report emission.

Exit codes for ``simulate``: 0 Secure, 2 Insecure, 3 Inconclusive, 1 error.
``verify`` and ``monogamy`` exit 0 on success, 1 on any failed check.  A
usage error exits 1 too, so that 2 always means Insecure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import __version__
from .adversary import (
    ABSENT,
    FIXED,
    RANDOM,
    RESEND_COLLAPSED,
    RESEND_EIGENSTATE,
    EveStrategy,
    attack_expectation,
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
    ktilde,
    standard_basis,
)
from .protocol import (
    ENTANGLED,
    PREPARE_MEASURE,
    ProtocolConfig,
    _atomic_writer,
    estimate_security,
    key_stats,
    run_session,
    write_transcript_csv,
)
from .qutrit import QutritState, RngStream

__all__ = ["main", "build_report", "round_floats", "report_json"]

_VERDICT_EXIT = {"Secure": 0, "Insecure": 2, "Inconclusive": 3}


def round_floats(obj):
    """Recursively round floats to 15 significant digits for stable JSON."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def report_json(report: dict) -> str:
    return json.dumps(round_floats(report), indent=2, sort_keys=True)


def _load_basis(path: str | None) -> KcbsBasis:
    if path is None:
        return standard_basis()
    with open(path) as fh:
        doc = json.load(fh)
    vectors = []
    for entry in doc:
        vectors.append(
            [complex(c[0], c[1]) if isinstance(c, list) else complex(c) for c in entry]
        )
    return KcbsBasis.from_vectors(vectors)


# --- verify ----------------------------------------------------------------


def _cmd_verify(args) -> int:
    try:
        basis = _load_basis(args.basis)
    except Exception as exc:  # corrupt file or failed pentagon invariants
        print(f"verify: invalid basis: {exc}", file=sys.stderr)
        return 1
    neighbor = max(basis.pair_overlap(i, (i + 1) % 5) for i in range(5))
    ktilde_max = ktilde(QutritState([0.0, 0.0, 1.0]), basis)
    constants = bounds()
    ok = (
        neighbor <= 1e-10
        and abs(ktilde_max - constants.quantum_projector_form) <= 1e-9
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
        rounded = round_floats(block)
        print(f"pentagon_max_neighbor_overlap {rounded['pentagon_max_neighbor_overlap']}")
        print(f"ktilde_max {rounded['ktilde_max']:.6f}")
        print(f"noncontextual_bound {rounded['noncontextual_bound']}")
        print(f"quantum_bound {rounded['quantum_bound']:.6f}")
        print(f"exclusivity_max {rounded['exclusivity_max']}")
        print(f"ok {rounded['ok']}")
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
    if resend_policy not in (RESEND_COLLAPSED, RESEND_EIGENSTATE):
        raise ValueError(f"unknown resend policy {resend_policy!r}")
    if eve == "random":
        return EveStrategy(kind=RANDOM, resend=resend_policy)
    if eve.startswith("fixed:"):
        k = int(eve.split(":", 1)[1])
        return EveStrategy(kind=FIXED, setting=k, resend=resend_policy)
    raise ValueError(f"unknown eavesdropper spec {eve!r} (absent|fixed:K|random)")


def build_report(cfg: ProtocolConfig, transcript, stats, security) -> dict:
    """Assemble the full simulation report document."""
    cert = verify_monogamy_decomposition()
    report = {
        "version": __version__,
        "config": {
            "mode": cfg.mode,
            "rounds": cfg.rounds,
            "sacrifice_fraction": cfg.sacrifice_fraction,
            "seed": cfg.seed,
            "eve": dataclasses.asdict(cfg.eve),
        },
        "total_attempts": transcript.total_attempts,
        "key_stats": dataclasses.asdict(stats),
        "security": dataclasses.asdict(security),
        "kcbs_constants": {
            "paper": dataclasses.asdict(bounds()),
            "derived": derived_anticorr_values(),
        },
        "monogamy_certificate": cert.to_json_dict(),
        # anti-correlation-form monogamy constants: the published value next
        # to the one implied by doubling the certificate bound; reported side
        # by side, never asserted against simulation
        "monogamy_anticorr_bounds": {"paper": 6.0 / 5.0, "derived": 2 * cert.bound},
    }
    if cfg.eve.present:
        oracle = attack_expectation(cfg.eve, cfg.channel)
        report["oracle"] = dataclasses.asdict(oracle)
        if security.pe_estimate is not None and not math.isnan(security.kab_estimate):
            report["diagnostics"] = {
                "kab_plus_pe_estimate": security.kab_estimate + security.pe_estimate,
                "note": (
                    "diagnostic only: operational post-processed estimates are "
                    "not bounded by the monogamy relation for raw measurement "
                    "statistics"
                ),
            }
    return report


def _cmd_simulate(args) -> int:
    try:
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
    transcript = run_session(cfg)
    try:
        stats = key_stats(transcript)
        # the security test draws from its own stream, outside the round ids
        security = estimate_security(
            transcript, cfg.sacrifice_fraction, RngStream(cfg.seed, stream_id=cfg.rounds)
        )
    except ValueError as exc:  # e.g. no sifted rounds in a very short session
        print(f"simulate: {exc}", file=sys.stderr)
        return 1
    report = build_report(cfg, transcript, stats, security)
    text = report_json(report)
    path = args.out
    try:
        if args.out:
            with _atomic_writer(args.out) as fh:
                fh.write(text + "\n")
        path = args.transcript
        if args.transcript:
            write_transcript_csv(transcript, args.transcript)
    except OSError as exc:
        print(f"simulate: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return 1
    if args.json:
        print(text)
    else:
        rounded = round_floats(report)
        ks = rounded["key_stats"]
        sec = rounded["security"]
        print(f"rounds {cfg.rounds}")
        print(f"sift_rate {ks['sift_rate']}")
        print(f"p0 {ks['p0']}")
        print(f"p1 {ks['p1']}")
        print(f"shannon {ks['shannon']}")
        print(f"key_rate_per_transmission {ks['key_rate_per_transmission']}")
        print(f"anticorr_fraction {ks['anticorr_fraction']}")
        print(f"kab_estimate {sec['kab_estimate']}")
        print(f"threshold {sec['threshold']}")
        print(f"verdict {sec['verdict']}")
        if sec["pe_estimate"] is not None:
            print(f"pe_estimate {sec['pe_estimate']}")
    return _VERDICT_EXIT[security.verdict]


# --- entry point -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kcbs-qkd",
        description="Contextuality-based qutrit QKD simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check the pentagon scenario invariants")
    p_verify.add_argument("--basis", help="JSON file with five replacement vectors")
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")

    p_mono = sub.add_parser("monogamy", help="emit the monogamy decomposition certificate")
    p_mono.add_argument("--mode", choices=[PAPER_ABSTRACT, MIMIC], default=PAPER_ABSTRACT)
    p_mono.add_argument("--graph", help="JSON file with a custom graph and parts")

    p_sim = sub.add_parser("simulate", help="run the protocol and emit a report")
    p_sim.add_argument("--rounds", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--mode", choices=["prepare", "entangled"], default="prepare")
    p_sim.add_argument("--eve", default="absent", help="absent | fixed:K | random")
    p_sim.add_argument("--resend", default=None, help="collapsed | eigenstate")
    p_sim.add_argument("--sacrifice", type=float, default=0.1)
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
