"""Command-line front end.

Subcommands::

    qcorr measure   correlation measures of one state file
    qcorr evolve    relaxation trajectory of a Bell-diagonal state
    qcorr protocol  direct local-measurement run vs. full decomposition
    qcorr batch     seeded cross-check campaigns over random states

A deviation-mode Bell state I/4 + eps * deviation is reported in units of
its eps (``--epsilon``, by default 1e-5, in (0, 1] as for evolve), read off
the deviation: d_g and q in eps^2, q_n in eps. Each evolve flag stores
its text under the config key it overrides (its argparse ``dest``).

Exit codes: 0 success, 2 input/parse error, 3 invalid state,
4 property violation in a batch run. Every command writes its output
file before it prints, so an unwritable path exits 2 with nothing on
stdout. The QCORR_LOG environment variable sets log verbosity only; it
never affects numeric output, and a value that names no logging level
exits 2. The argument parsers are built on the first ``main`` call and
reused (see ``_parse``).
"""
from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

import numpy as np

from . import batch as batch_mod
from .bloch import BellDiagonalState, BlochRecord, InvalidStateError, _seed, \
    bloch_decompose, check_density_matrix
from .channels import RelaxationParams, detect_transition, make_trajectory
from .io import (
    ConfigError,
    build_config,
    format_float,
    load_state_file,
    parse_config_file,
    render_table,
    report_text,
    serialize_trajectory,
    write_output,
)
from .measures import UNITS_DEVIATION, UNITS_FULL, full_report, negativity, \
    report_from_record, scaled_record
from .protocol import measurement_budget, run_direct_protocol

log = logging.getLogger("qcorr")


def _load_state(path: str, epsilon: float | None):
    """(rho, deviation, eps) of a state file: its checked density matrix and, for a
    deviation-mode Bell state, the deviation its measures are read from in units of eps
    (--epsilon under RelaxationParams' rule, or the default); None, None otherwise."""
    state = load_state_file(path)
    if epsilon is None:
        epsilon = RelaxationParams.epsilon
    else:
        try:
            RelaxationParams(epsilon=epsilon)
        except ValueError as exc:  # its message starts with the field name
            raise ConfigError(f"--{exc}") from None
    rho = state.density_matrix(epsilon) if isinstance(state, BellDiagonalState) else state
    check_density_matrix(rho)
    if isinstance(state, BellDiagonalState) and state.mode == "deviation":
        return rho, state.deviation_matrix(), epsilon
    return rho, None, None


def _require_finite(reports):
    """ConfigError unless d_g and q are finite. S squares the Bloch data, so deviation
    coefficients above about 1e154, or shot readouts divided by a tiny eps, overflow it;
    a matrix or full-mode state has Bloch data of order 1."""
    if not (np.isfinite(reports.d_g).all() and np.isfinite(reports.q).all()):
        raise ConfigError("the Bloch data are too large (deviation coefficients, or shot "
                          "readouts divided by --epsilon): S overflows, and d_g or q is "
                          "not finite")


def cmd_measure(args) -> int:
    rho, deviation, _ = _load_state(args.state, args.epsilon)
    report = full_report(rho, deviation=deviation, include_local_bloch=args.include_local_bloch)
    _require_finite(report)
    if args.output:
        write_output(args.output, render_table(report.as_record(), args.format))
        log.info("wrote report to %s", args.output)
    print(report_text(report))
    return 0


def _evolve_config(args):
    """Config file settings, with each given flag's text replacing its key's value."""
    raw = parse_config_file(args.config) if args.config else {}
    raw.update((key, str(value)) for key, value in vars(args).items()
               if value is not None and key not in ("command", "config", "func"))
    return build_config(raw)


def cmd_evolve(args) -> int:
    cfg = _evolve_config(args)
    if cfg.output is None:
        raise ConfigError("evolve needs an output path (--output or 'output = ...')")
    if cfg.state_file is not None:
        bell = load_state_file(cfg.state_file)
        if not isinstance(bell, BellDiagonalState):
            raise ConfigError("evolve requires a bell-form state (kind 'bell')")
    else:
        bell = BellDiagonalState(*cfg.state_coeffs, mode=cfg.state_mode)
    # deviation coefficients carry no constraint of their own, but at the run's
    # epsilon they must still describe a state, as in measure and protocol
    check_density_matrix(bell.density_matrix(cfg.relaxation.epsilon))
    traj = make_trajectory(
        bell,
        cfg.relaxation,
        t_max=cfg.t_max,
        dt=cfg.dt,
        n_points=cfg.n_points,
        include_local_bloch=cfg.include_local_bloch,
    )
    hit = detect_transition(traj)
    write_output(cfg.output, serialize_trajectory(traj, cfg.format))
    log.info("wrote %d trajectory points to %s", cfg.n_points, cfg.output)
    if hit is None:
        print("t_star = none")
    else:
        print(f"t_star = {format_float(hit.t_star)} (index {hit.index})")
    return 0


def cmd_protocol(args) -> int:
    rho, deviation, eps = _load_state(args.state, args.epsilon)
    if args.shots is not None and args.seed is None:
        raise ConfigError("--seed is mandatory whenever --shots is set")
    seed = 0 if args.seed is None else _seed(args.seed, "--seed")
    # readouts and decomposition are linear and vanish on I/4, so a deviation state's
    # are read off its deviation, in eps units; shots sample the physical state
    source = rho if deviation is None else deviation
    exact = direct = run_direct_protocol(source)
    if args.shots is not None:
        try:  # the state passed the exact run, so only shots can be refused here
            shot_record = run_direct_protocol(rho, shots=args.shots, seed=seed)
        except ValueError as exc:  # its message starts with the argument name
            raise ConfigError(f"--{exc}") from None
        direct, _ = scaled_record(shot_record, epsilon=eps)
    tomo = bloch_decompose(source, 2)

    # the direct and tomography records go through the measures as one stack
    both = BlochRecord(x=np.stack([direct.x, tomo.x]), y=np.stack([direct.y, tomo.y]),
                       C=np.stack([direct.C, tomo.C]))
    units = UNITS_FULL if deviation is None else UNITS_DEVIATION
    reports = report_from_record(both, negativity=negativity(rho), units=units)
    _require_finite(reports)  # with finite d_g and q, S and every estimate are finite
    direct_report, tomo_report = reports
    # q_n counts only where both runs define it (NaN otherwise); d_g and q are finite
    diffs = [abs(a - b) for a, b in (reports.d_g.tolist(), reports.q.tolist(),
                                     reports.q_n.tolist())]
    max_diff = max(diff for diff in diffs if diff == diff)

    direct_n, tomo_n = measurement_budget(2)
    lines = [f"budget: direct: {direct_n}, tomography: {tomo_n}",
             "[direct]", report_text(direct_report),
             "[tomography]", report_text(tomo_report),
             f"max measure difference = {format_float(max_diff)}"]

    doc = {
        "budget": {"direct": direct_n, "tomography": tomo_n},
        "x_est": both.x[0],
        "c_est": both.C[0],
        "readout_count": direct_n,
        "shots": args.shots,
        "seed": None if args.shots is None else seed,
        "direct": direct_report.as_record(),
        "tomography": tomo_report.as_record(),
        "max_measure_difference": max_diff,
    }
    if args.shots is not None:
        x_err, c_err = np.abs(direct.x - exact.x), np.abs(direct.C - exact.C)
        lines.append("statistical error (x readouts): "
                     + " ".join(format_float(v) for v in x_err))
        for i, row in enumerate(c_err, start=1):
            lines.append(f"statistical error (c row {i}): "
                         + " ".join(format_float(v) for v in row))
        doc["x_error"] = x_err
        doc["c_error"] = c_err
    if args.output:
        write_output(args.output, render_table(doc, "json"))
        log.info("wrote protocol report to %s", args.output)
    print("\n".join(lines))
    return 0


def cmd_batch(args) -> int:
    try:
        dims = tuple(int(part) for part in args.dims.split(",") if part)
    except ValueError:  # a part that is not an integer
        dims = ()
    if not dims or any(d < 2 for d in dims):
        raise ConfigError(f"--dims must list dimensions >= 2, got {args.dims!r}")
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    results = batch_mod.run_batch_campaigns(args.n, _seed(args.seed, "--seed"), dims)
    if args.output:
        write_output(args.output, batch_mod.render_batch_report(results, args.format))
        log.info("wrote batch report to %s", args.output)
    print(batch_mod.render_batch_report(results, "text"), end="")
    if any(r.violations for r in results):
        print("batch: property violations detected", file=sys.stderr)
        return 4
    return 0


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its command parsers by name."""
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Quantum-correlation measures, direct-measurement protocol "
        "and relaxation dynamics for qubit-qudit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="correlation measures of a state file")
    measure.add_argument("--state", required=True, help="state file (JSON)")
    measure.add_argument("--epsilon", type=float, default=None,
                         help="polarization for deviation-mode states "
                         f"(default {RelaxationParams.epsilon})")
    measure.add_argument("--include-local-bloch", action=argparse.BooleanOptionalAction,
                         default=True, help="include local Bloch vectors in S (default on)")
    measure.add_argument("--output", default=None)
    measure.add_argument("--format", choices=("csv", "json"), default="csv")
    measure.set_defaults(func=cmd_measure)

    evolve = sub.add_parser("evolve", help="relaxation trajectory of a Bell state")
    evolve.add_argument("--config", help="key = value config file")
    # every other flag stores its text under the config key it overrides
    evolve.add_argument("--state", dest="state.file", metavar="STATE", help="bell-form state file")
    evolve.add_argument("--t-max", dest="grid.t_max", metavar="T_MAX")
    evolve.add_argument("--dt", dest="grid.dt", metavar="DT")
    evolve.add_argument("--points", dest="grid.n_points", metavar="POINTS")
    evolve.add_argument("--epsilon", dest="relaxation.epsilon", metavar="EPSILON")
    evolve.add_argument("--include-local-bloch", action=argparse.BooleanOptionalAction)
    evolve.add_argument("--output")
    evolve.add_argument("--format", choices=("csv", "json"))
    evolve.set_defaults(func=cmd_evolve)

    protocol = sub.add_parser("protocol", help="direct measurement vs decomposition")
    protocol.add_argument("--state", required=True)
    protocol.add_argument("--shots", type=int, default=None)
    protocol.add_argument("--seed", type=int, default=None)
    protocol.add_argument("--epsilon", type=float, default=None)
    protocol.add_argument("--output", default=None)
    protocol.set_defaults(func=cmd_protocol)

    batch = sub.add_parser("batch", help="random-state cross-check campaigns")
    batch.add_argument("--n", type=int, default=1000)
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument("--dims", default="2,3")
    batch.add_argument("--output", default=None)
    batch.add_argument("--format", choices=("csv", "json"), default="csv")
    batch.set_defaults(func=cmd_batch)
    return parser, sub.choices


def _parse(argv) -> argparse.Namespace:
    """argv parsed by the named command's own parser into the namespace the
    top-level parser gives; that parser runs only to report help, a missing or
    unknown command, or arguments the command leaves unparsed."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        # the namespace the top-level parser would pass on: the command's name first
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    level = os.environ.get("QCORR_LOG", "WARNING")
    # basicConfig checks the level only while the root logger has no handler
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"error: QCORR_LOG must name a logging level (DEBUG, INFO, WARNING, "
              f"ERROR, CRITICAL), got {level!r}", file=sys.stderr)
        return 2
    logging.basicConfig(level=level.upper())
    args = _parse(argv)
    try:
        return args.func(args)
    except InvalidStateError as exc:
        print(f"invalid state: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
