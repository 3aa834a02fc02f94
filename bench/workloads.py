"""The three benchmark workloads: seeded inputs, the request, the output check.

Every workload is a closed loop with one client: ``requests()`` yields
prepared requests forever (input generation and file writing happen
there, outside the timed call), ``run(request)`` is the timed call into
qcorr's public API, and ``check(request, output)`` verifies the output
without a golden file, so round-off-level changes to the program still
pass. ``check`` returns a list of problems; an empty list means correct.

The oracles here are the benchmark's own: analytic Bell-coefficient decay
for relaxation, and a basis-free S matrix with ``np.linalg.eigvalsh``
for the geometric discord. None of them calls into qcorr; the campaign
check compares qcorr's per-state measures against them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Calls go through module attributes so that tracing.Tracer can swap them.
import qcorr
from qcorr import batch, cli
from qcorr import io as qio

#: absolute tolerance of every d_g check (eps^2 units in deviation mode)
D_G_TOL = 1e-9

# Bound at import, before tracing.Tracer swaps the module attributes, so
# that the campaign check's own calls stay out of the traced spans.
_bloch_decompose, _s_matrix = qcorr.bloch_decompose, qcorr.s_matrix
_discord_closed, _discord_eig = qcorr.geometric_discord_closed, qcorr.geometric_discord_eig

_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def discord_from_bloch(x: np.ndarray, cct: np.ndarray, d: int) -> np.ndarray:
    """2 (tr S - k_max) with S = (x x^T + C C^T) / 2d; stacks over leading axes."""
    s = (x[..., :, None] * x[..., None, :] + cct) / (2.0 * d)
    return 2.0 * (np.trace(s, axis1=-2, axis2=-1) - np.linalg.eigvalsh(s)[..., -1])


def discord_of_matrix(rho: np.ndarray) -> float:
    """Geometric discord of a 2 x d state without any qudit operator basis.

    With A_nu = tr_A[(sigma_nu (x) I) rho], x_nu = tr A_nu and, by the
    completeness of generators normalized to tr(tau tau') = 2 delta,
    (C C^T)_{nu mu} = 2 tr(A_nu A_mu) - (2/d) x_nu x_mu.
    """
    d = rho.shape[0] // 2
    a = np.einsum("nba,akbl->nkl", _PAULIS, rho.reshape(2, d, 2, d))
    x = np.einsum("nkk->n", a).real
    cct = 2.0 * np.einsum("nkl,mlk->nm", a, a).real - (2.0 / d) * np.outer(x, x)
    return float(discord_from_bloch(x, cct, d))


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def _non_psd_state(rng: np.random.Generator) -> np.ndarray:
    """Hermitian, unit trace, smallest eigenvalue -0.2: exit 3 expected."""
    u = _random_unitary(rng, 4)
    rho = (u * np.array([0.6, 0.5, 0.1, -0.2])) @ u.conj().T
    return (rho + rho.conj().T) / 2.0


# ---------------------------------------------------------------------------
# trajectory: make_trajectory + detect_transition + serialize_trajectory

#: chloroform relaxation times and polarization, passed explicitly
PARAMS = qcorr.RelaxationParams(t1_a=3.57, t2_a=1.2, t1_b=10.0, t2_b=0.19,
                                epsilon=1e-5, j_coupling=215.1)
#: the program's default grid spacing, a quarter of the J-coupling period
DT = 1.0 / (4.0 * PARAMS.j_coupling)
N_POINTS = 51
T_MAX = (N_POINTS - 1) * DT
#: decay rate of |c1|, |c2| minus that of |c3| (1/s), used to place t*
_RATE_GAP = (1 / PARAMS.t2_a + 1 / PARAMS.t2_b + 0.5 / PARAMS.t1_a + 0.5 / PARAMS.t1_b
             - 1 / PARAMS.t1_a - 1 / PARAMS.t1_b)
#: documented confirmation factor of detect_transition
_SPIKE_FACTOR = 10.0


@dataclass(frozen=True)
class TrajectoryRequest:
    coeffs: tuple[float, float, float]
    include_local_bloch: bool


def bell_decay(coeffs, times: np.ndarray):
    """Deviation-unit local Bloch z of qubit A and Bell coefficients over time.

    Per qubit, GAD then PD maps the Pauli coefficients as x,y -> a x,y and
    z -> e z + b with a = sqrt(1-p)(1-lambda), e = 1-p, b = -eps p, so a
    Bell-diagonal state stays Bell diagonal: c1,2 -> a_A a_B c1,2 and
    c3 -> e_A e_B c3 + b_A b_B / eps, while qubit A gains x_z = b_A / eps.
    """
    p = PARAMS
    p_a, p_b = -np.expm1(-times / p.t1_a), -np.expm1(-times / p.t1_b)
    a_ab = np.sqrt((1 - p_a) * (1 - p_b)) * np.exp(-times / p.t2_a - times / p.t2_b)
    c = np.empty((len(times), 3))
    c[:, 0] = a_ab * coeffs[0]
    c[:, 1] = a_ab * coeffs[1]
    c[:, 2] = (1 - p_a) * (1 - p_b) * coeffs[2] + p.epsilon * p_a * p_b
    return -p_a, c


def expected_transition(dominant: np.ndarray, d_g: np.ndarray) -> int | None:
    """detect_transition's documented rule, evaluated on the oracle's data."""
    second = np.abs(d_g[2:] - 2.0 * d_g[1:-1] + d_g[:-2])
    limit = _SPIKE_FACTOR * float(np.median(second))
    n = len(d_g)
    for i in range(2, n):
        if dominant[i] != dominant[i - 1]:
            spike = max(second[i - 2], second[i - 1] if i <= n - 2 else 0.0)
            if spike > limit:
                return i
    return None


class Trajectory:
    name = "trajectory"
    unit = "points"

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)

    def requests(self):
        """Cycle: transition/no transition x include_local_bloch off/on."""
        rng = self.rng

        def sign() -> float:
            return rng.choice((-1.0, 1.0))

        k = 0
        while True:
            if k % 4 < 2:
                # |c1| overtaken by |c3| at t* inside the grid
                c3 = rng.uniform(0.1, 0.4) * sign()
                t_star = rng.uniform(0.15, 0.75) * T_MAX
                c1 = abs(c3) * math.exp(_RATE_GAP * t_star) * sign()
            else:
                c3 = rng.uniform(0.3, 0.6) * sign()
                c1 = c3 * rng.uniform(0.05, 0.8) * sign()
            c2 = c1 * rng.uniform(0.1, 0.8) * sign()
            yield TrajectoryRequest((float(c1), float(c2), float(c3)), bool(k % 2))
            k += 1

    def run(self, req: TrajectoryRequest):
        state = qcorr.BellDiagonalState(*req.coeffs, mode="deviation")
        traj = qcorr.make_trajectory(state, PARAMS, dt=DT, n_points=N_POINTS,
                                     include_local_bloch=req.include_local_bloch)
        return traj, qcorr.detect_transition(traj), qio.serialize_trajectory(traj, "csv")

    def work(self, req: TrajectoryRequest) -> int:
        return N_POINTS

    def check(self, req: TrajectoryRequest, out) -> list[str]:
        traj, hit, text = out
        times = np.arange(N_POINTS) * DT
        problems = []
        if not np.allclose(traj.times, times, rtol=0, atol=1e-12):
            return ["grid differs from t_i = i * dt"]
        x_z, c = bell_decay(req.coeffs, times)
        x = np.zeros((N_POINTS, 3))
        if req.include_local_bloch:
            x[:, 2] = x_z
        cct = np.zeros((N_POINTS, 3, 3))
        cct[:, [0, 1, 2], [0, 1, 2]] = c * c
        d_g = discord_from_bloch(x, cct, 2)
        got = np.array([r.d_g for r in traj.reports])
        worst = float(np.max(np.abs(got - d_g)))
        if not worst <= D_G_TOL:
            problems.append(f"d_g off the eigvalsh oracle by {worst:.3e}")
        dominant = np.argmax(np.abs(c), axis=1)
        expected = expected_transition(dominant, d_g)
        if not req.include_local_bloch:
            # S is diagonal, so d_g kinks exactly where the dominant |c_i| switches
            switches = np.nonzero(dominant[2:] != dominant[1:-1])[0]
            first = int(switches[0]) + 2 if len(switches) else None
            if expected != first:
                problems.append(f"oracle kink {expected} is not the |c_i| switch {first}")
        got_index = None if hit is None else hit.index
        if got_index != expected:
            problems.append(f"transition at {got_index}, expected {expected}")
        rows = text.splitlines()
        if len(rows) != N_POINTS + 1:
            problems.append(f"csv has {len(rows)} lines, expected {N_POINTS + 1}")
        else:
            column = rows[0].split(",").index("d_g")
            csv_d_g = np.array([float(r.split(",")[column]) for r in rows[1:]])
            if not np.all(np.abs(csv_d_g - d_g) <= D_G_TOL):
                problems.append("csv d_g column differs from the oracle")
        return problems


# ---------------------------------------------------------------------------
# campaign: run_batch_campaigns over 2x2, 2x3 and 2x4 random states

CAMPAIGN_N = 25
CAMPAIGN_DIMS = (2, 3, 4)


class Campaign:
    name = "campaign"
    unit = "states"

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)

    def requests(self):
        while True:
            yield int(self.rng.integers(2**32))

    def run(self, seed: int):
        return batch.run_batch_campaigns(CAMPAIGN_N, seed, dims=CAMPAIGN_DIMS)

    def work(self, seed: int) -> int:
        # one campaign pair per dimension plus the two two-qubit campaigns
        return CAMPAIGN_N * (len(CAMPAIGN_DIMS) + 2)

    def check(self, seed: int, results) -> list[str]:
        """The campaigns' own verdicts, plus one 2 x d state per dimension
        whose closed-form and eigenvalue discord must match the oracle."""
        problems = []
        if len(results) != 2 * len(CAMPAIGN_DIMS) + 2:
            problems.append(f"{len(results)} campaigns, expected {2 * len(CAMPAIGN_DIMS) + 2}")
        for r in results:
            if r.samples != CAMPAIGN_N:
                problems.append(f"{r.name}: {r.samples} samples, expected {CAMPAIGN_N}")
            if r.violations:
                problems.append(f"{r.name}: {r.violations} violations (seed {seed})")
            if not math.isfinite(r.worst):
                problems.append(f"{r.name}: worst = {r.worst} (seed {seed})")
        rng = np.random.default_rng(seed)
        for d in CAMPAIGN_DIMS:
            rho = _random_state(rng, 2 * d, int(rng.integers(1, 2 * d + 1)))
            s = _s_matrix(_bloch_decompose(rho, d), d)
            want = discord_of_matrix(rho)
            for form, got in (("closed", _discord_closed(s)[0]), ("eig", _discord_eig(s))):
                if not abs(got - want) <= D_G_TOL:
                    problems.append(f"d={d} {form} d_g {got!r}, oracle {want!r} (seed {seed})")
        return problems


# ---------------------------------------------------------------------------
# single_state: in-process qcorr.cli.main on one state file per request

#: one cycle of request kinds; fixed shares keep the latency mix steady
SINGLE_CYCLE = ("measure4", "measure6", "measure4", "protocol", "measure6",
                "invalid", "measure4", "protocol_shots", "measure6", "protocol")
SHOTS = 4000
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
_MAX_DIFF = re.compile(r"^max measure difference = (\S+)$", re.MULTILINE)
_D_G = re.compile(r"^d_g = (\S+)$", re.MULTILINE)


@dataclass(frozen=True)
class SingleRequest:
    kind: str
    argv: tuple[str, ...]
    rho: np.ndarray
    expected_code: int


class SingleState:
    name = "single_state"
    unit = "requests"

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.state_path = workdir / "state.json"
        self.output_path = workdir / "protocol.json"

    def _write(self, rho: np.ndarray) -> None:
        doc = {"kind": "matrix", "dim": rho.shape[0],
               "re": rho.real.tolist(), "im": rho.imag.tolist()}
        self.state_path.write_text(json.dumps(doc))

    def requests(self):
        rng = self.rng
        state = str(self.state_path)
        k = 0
        while True:
            kind = SINGLE_CYCLE[k % len(SINGLE_CYCLE)]
            code = 0
            if kind == "invalid":
                rho, argv, code = _non_psd_state(rng), ("measure", "--state", state), 3
            elif kind.startswith("measure"):
                dim = int(kind[-1])
                rho = _random_state(rng, dim, int(rng.integers(1, dim + 1)))
                argv = ("measure", "--state", state)
            else:
                rho = _random_state(rng, 4, int(rng.integers(1, 5)))
                argv = ("protocol", "--state", state, "--output", str(self.output_path))
                if kind == "protocol_shots":
                    argv += ("--shots", str(SHOTS), "--seed", str(int(rng.integers(2**31))))
            self._write(rho)
            self.output_path.unlink(missing_ok=True)
            yield SingleRequest(kind, argv, rho, code)
            k += 1

    def run(self, req: SingleRequest):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.argv))
        return code, out.getvalue()

    def work(self, req: SingleRequest) -> int:
        return 1

    def check(self, req: SingleRequest, out) -> list[str]:
        code, text = out
        if code != req.expected_code:
            return [f"{req.kind}: exit {code}, expected {req.expected_code}"]
        if code != 0:
            return []
        if _NON_FINITE.search(text):
            return [f"{req.kind}: non-finite number printed with exit 0"]
        problems = []
        if req.kind.startswith("measure"):
            match = _D_G.search(text)
            want = discord_of_matrix(req.rho)
            if match is None or not abs(float(match.group(1)) - want) <= D_G_TOL:
                problems.append(f"{req.kind}: d_g {match and match.group(1)}, oracle {want!r}")
        else:
            match = _MAX_DIFF.search(text)
            if match is None:
                problems.append(f"{req.kind}: no max measure difference printed")
            elif req.kind == "protocol" and not float(match.group(1)) <= D_G_TOL:
                problems.append(f"exact protocol: max measure difference {match.group(1)}")
            try:
                json.loads(self.output_path.read_text())
            except (OSError, ValueError) as exc:
                problems.append(f"{req.kind}: no JSON protocol output ({exc})")
        return problems


WORKLOADS = {w.name: w for w in (Trajectory, Campaign, SingleState)}
