"""Command-line front end.

Subcommands::

    qcorr measure   correlation measures of one state file
    qcorr evolve    relaxation trajectory of a Bell-diagonal state
    qcorr protocol  direct local-measurement run vs. full decomposition
    qcorr batch     seeded cross-check campaigns over random states

A deviation-mode Bell state is reported in units of its eps (``--epsilon``,
by default 1e-5): d_g and q in eps^2, q_n in eps. Each evolve flag stores
its text under the config key it overrides (its argparse ``dest``).

Exit codes: 0 success, 2 input/parse error, 3 invalid state,
4 property violation in a batch run. Every command writes its output
file before it prints, so an unwritable path exits 2 with nothing on
stdout. The QCORR_LOG environment variable sets log verbosity only; it
never affects numeric output.

The argument parser is built once per process, on the first ``main``
call, and reused; each call still parses into a fresh namespace.
"""
from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

import numpy as np

from . import batch as batch_mod
from .bloch import BellDiagonalState, BlochRecord, InvalidStateError, \
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
from .measures import full_report, report_from_record, scaled_record
from .protocol import measurement_budget, run_direct_protocol

log = logging.getLogger("qcorr")

#: largest error, relative to max |c|, of the Bell coefficients that measure and protocol
#: read back from I/4 + eps * deviation; a smaller eps is refused (exit 2). The error grows
#: as round-off / eps: for c = (0.5, -0.06, 0.24) it is 3e-12 at eps = 1e-5 and 6e-7 at 1e-10,
#: and eps = 3e-11 is refused.
EPSILON_RESOLUTION_TOL = 1e-6


def _state_to_matrix(state, epsilon: float | None):
    """Checked density matrix of a loaded state, and the eps of its deviation units or None."""
    if epsilon is not None and not (np.isfinite(epsilon) and epsilon > 0):
        raise ConfigError(f"--epsilon must be positive and finite, got {epsilon}")
    rho, eps = state, None
    if isinstance(state, BellDiagonalState):
        if state.mode == "deviation":
            eps = RelaxationParams.epsilon if epsilon is None else epsilon
        rho = state.density_matrix(epsilon=eps)
    check_density_matrix(rho)
    return rho, eps


def _resolved_state(path: str, epsilon: float | None):
    """``_state_to_matrix`` of a state file, for measure and protocol: a deviation Bell
    state whose coefficients the composed matrix no longer resolves is a ConfigError."""
    state = load_state_file(path)
    rho, eps = _state_to_matrix(state, epsilon)
    if eps is not None:
        c = state.coefficients
        with np.errstate(over="ignore", invalid="ignore"):  # an inf read-back fails below
            error = np.max(np.abs(np.diagonal(bloch_decompose(rho).C) / eps - c))
        limit = EPSILON_RESOLUTION_TOL * np.max(np.abs(c))
        if not error <= limit:
            raise ConfigError(f"--epsilon {eps} is too small: I/4 + eps * deviation resolves "
                              f"the Bell coefficients {state.c1, state.c2, state.c3} only to "
                              f"{error:.3g}, above {EPSILON_RESOLUTION_TOL} max |c| = {limit:.3g}")
    return rho, eps


def _seed(seed: int) -> int:
    """--seed as given; SeedSequence takes no negative seed, so that is a ConfigError."""
    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
    return seed


def cmd_measure(args) -> int:
    rho, eps = _resolved_state(args.state, args.epsilon)
    report = full_report(rho, epsilon=eps, include_local_bloch=args.include_local_bloch)
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
    _state_to_matrix(bell, cfg.relaxation.epsilon)
    traj = make_trajectory(
        bell,
        cfg.relaxation,
        t_max=cfg.t_max,
        dt=cfg.dt,
        n_points=cfg.n_points,
        include_local_bloch=cfg.include_local_bloch,
    )
    hit = detect_transition(traj)  # rejects a too-short grid before any file is written
    write_output(cfg.output, serialize_trajectory(traj, cfg.format))
    log.info("wrote %d trajectory points to %s", cfg.n_points, cfg.output)
    if hit is None:
        print("t_star = none")
    else:
        print(f"t_star = {format_float(hit.t_star)} (index {hit.index})")
    return 0


def cmd_protocol(args) -> int:
    rho, eps = _resolved_state(args.state, args.epsilon)
    if args.shots is not None and args.seed is None:
        raise ConfigError("a seed is mandatory whenever shots is set")
    seed = 0 if args.seed is None else _seed(args.seed)
    direct = run_direct_protocol(rho, shots=args.shots, seed=seed)
    tomo = bloch_decompose(rho, 2)

    # the direct and tomography records go through the measures as one stack
    both, units = scaled_record(BlochRecord(x=np.stack([direct.x, tomo.x]),
                                            y=np.stack([direct.y, tomo.y]),
                                            C=np.stack([direct.C, tomo.C])), epsilon=eps)
    reports = report_from_record(both, rho=np.stack([rho, rho]), units=units)
    direct_report, tomo_report = reports
    # round-off in the readouts divided by a tiny eps overflows S; finite d_g and q
    # imply a finite S, and with it finite estimates and error rows
    if not (np.isfinite(reports.d_g).all() and np.isfinite(reports.q).all()):
        raise ConfigError(f"--epsilon {eps} is too small: the scaled readouts overflow "
                          "and d_g or q is not finite")
    # q_n counts only where both runs define it (NaN otherwise)
    max_diff = float(np.nanmax([abs(col[0] - col[1])
                                for col in (reports.d_g, reports.q, reports.q_n)]))

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
        exact = run_direct_protocol(rho)
        diff = BlochRecord(x=np.abs(direct.x - exact.x), y=np.zeros(3),
                           C=np.abs(direct.C - exact.C))
        err, _ = scaled_record(diff, epsilon=eps)
        lines.append("statistical error (x readouts): "
                     + " ".join(format_float(v) for v in err.x))
        for i, row in enumerate(err.C, start=1):
            lines.append(f"statistical error (c row {i}): "
                         + " ".join(format_float(v) for v in row))
        doc["x_error"] = err.x
        doc["c_error"] = err.C
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
    results = batch_mod.run_batch_campaigns(args.n, _seed(args.seed), dims)
    if args.output:
        write_output(args.output, batch_mod.render_batch_report(results, args.format))
        log.info("wrote batch report to %s", args.output)
    print(batch_mod.render_batch_report(results, "text"), end="")
    if any(r.violations for r in results):
        print("batch: property violations detected", file=sys.stderr)
        return 4
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("QCORR_LOG", "WARNING").upper())
    args = _build_parser().parse_args(argv)
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
