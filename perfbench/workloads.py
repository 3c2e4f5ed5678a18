"""Workloads of the tlattice benchmark: command lists, seeded inputs and output checks.

A workload is a list of ``tlattice`` argument vectors that the benchmark runs
one after another, each as its own process: a closed loop with one client.
``{seed}`` in an argument is replaced by the workload seed, and the only input
file any command reads, ``trace.csv`` for ``fit``, is generated from the same
seed.  Every command is expected to exit 0 and to pass its output check.

Checks test a key value against the tolerance the acceptance suite states for
it (``zz``, ``rb``, ``fit``, ``stats``, the sizzle phase sweep); the other
commands get structural checks.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


class CheckFailed(Exception):
    """A command's output is not what the published data or the model says."""


@dataclass(frozen=True)
class Inputs:
    """Values generated from the workload seed that checks compare against."""

    trace_tau_us: float


@dataclass(frozen=True)
class KnownFailure:
    """A documented command that fails today; it still counts as a failed op."""

    exit_code: int
    reason: str


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: Callable[[dict, Inputs], None]
    known_failure: Optional[KnownFailure] = None

    def resolved(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.args]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    smoke: tuple[Command, ...]


# ------------------------------------------------------------------ inputs

TRACE_POINTS = 50
TRACE_NOISE = 0.003


def write_inputs(workdir: Path, seed: int) -> Inputs:
    """Write the synthetic T1 trace a + b exp(-t/T) + noise for ``fit``."""
    rng = random.Random(seed)
    tau = rng.uniform(20.0, 120.0)
    a = rng.uniform(0.0, 0.1)
    b = rng.uniform(0.8, 0.95)
    lines = ["delay_us,p_excited"]
    for i in range(TRACE_POINTS):
        t = 4.0 * tau * i / (TRACE_POINTS - 1)
        y = a + b * math.exp(-t / tau) + rng.gauss(0.0, TRACE_NOISE)
        lines.append(f"{t!r},{y!r}")
    (workdir / "trace.csv").write_text("\n".join(lines) + "\n")
    return Inputs(trace_tau_us=tau)


# ------------------------------------------------------------------ checks

def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _within(value: float, reference: float, rel: float, what: str) -> None:
    err = abs(value - reference) / abs(reference)
    _expect(
        math.isfinite(value) and err <= rel,
        f"{what}: {value!r} vs {reference!r} ({err:.2%} > {rel:.0%})",
    )


def _finite(values, what: str) -> None:
    flat = list(_flatten(values))
    _expect(bool(flat) and all(math.isfinite(v) for v in flat), f"{what}: not all finite")


def _flatten(values):
    if isinstance(values, list):
        for v in values:
            yield from _flatten(v)
    else:
        yield values


def _converged(fit: dict, what: str) -> None:
    _expect(fit["converged"] and not fit["flags"], f"{what}: fit not converged {fit['flags']}")


# published two-qubit row for Q2,Q3: static ZZ 0.0081 MHz, J from ZZ 0.631 MHz
def check_zz(out: dict, inputs: Inputs) -> None:
    _expect(out["pair"] == ["Q2", "Q3"], f"pair {out['pair']}")
    _within(out["j_mhz"], 0.631, 0.02, "J")
    _within(abs(out["zeta_perturbative_khz"]), 8.1, 0.05, "perturbative ZZ")
    _within(out["zeta_exact_khz"], out["zeta_perturbative_khz"], 0.10, "exact ZZ")


def check_stats_alpha(out: dict, inputs: Inputs) -> None:
    _expect(out["n"] == 16, f"n = {out['n']}")
    _expect(abs(out["mean"] - (-196.4)) <= 0.05, f"alpha mean {out['mean']}")


def check_report(out: dict, inputs: Inputs) -> None:
    j = out["columns"]["j"]
    _expect(round(j["mean"], 3) == 0.623 and round(j["std"], 3) == 0.173, f"J stats {j}")
    notes = out["discrepancies"]
    for prefix in ("j.spread", "t1.mean", "t1.min"):
        _expect(any(n.startswith(prefix) for n in notes), f"discrepancy {prefix} not reported")


def check_spectrum(out: dict, inputs: Inputs) -> None:
    energies = out["energies_mhz"]
    _expect(len(energies) == out["levels"] ** len(out["qubits"]), f"{len(energies)} levels")
    _finite(energies, "energies")
    _expect(energies == sorted(energies), "energies not ascending")


def check_ramsey(out: dict, inputs: Inputs) -> None:
    _expect(len(out["data"]["p_excited"]) == 161, "Ramsey trace length")
    _converged(out["fit"], "Ramsey")
    _within(out["fit"]["params"]["f"], out["config"]["detuning"], 0.03, "Ramsey fringe")


def check_t1(out: dict, inputs: Inputs) -> None:
    _converged(out["fit"], "T1")
    _within(out["fit"]["params"]["T"], 89.0, 0.03, "Q2 T1")  # bundled device value


def check_swap(out: dict, inputs: Inputs) -> None:
    resonance = out["resonance"]
    _converged(resonance["fit"], "swap chevron")
    _expect(0.0 < resonance["max_transfer"] <= 1.0, f"max transfer {resonance['max_transfer']}")
    _expect(resonance["swap_period"] > 0.0, f"swap period {resonance['swap_period']}")


def check_sizzle_tomography(out: dict, inputs: Inputs) -> None:
    _expect(len(out["data"]["differential_phase"]) == len(out["axes"][0]["values"]), "widths")
    nu = out["nu_tilde_khz"]
    _expect(math.isfinite(nu) and nu > 0.0, f"nu_tilde {nu}")


def check_calibrate_cz(out: dict, inputs: Inputs) -> None:
    residual = out["calibration"]["residual"]
    _expect(residual <= 0.01, f"repeated-gate residual {residual}")


def check_rb_injected(out: dict, inputs: Inputs) -> None:
    _converged(out["outcomes"]["Q1"]["fit"], "RB")
    _within(out["outcomes"]["Q1"]["epc"], 1e-3, 0.05, "recovered EPC")


def check_tomography(out: dict, inputs: Inputs) -> None:
    rho = out["rho_real"]
    trace = sum(rho[i][i] for i in range(len(rho)))
    _expect(abs(trace - 1.0) <= 1e-9, f"trace {trace}")
    _expect(0.0 < out["fidelity"] <= 1.0, f"fidelity {out['fidelity']}")


def check_fit(out: dict, inputs: Inputs) -> None:
    _converged(out["result"], "fit")
    _within(out["result"]["params"]["T"], inputs.trace_tau_us, 0.03, "fitted T")


def check_phase_sweep(out: dict, inputs: Inputs) -> None:
    _finite(out["data"]["nu_tilde_khz"], "nu_tilde")
    _expect(out["modulation"]["r_squared"] >= 0.99, f"R^2 {out['modulation']['r_squared']}")


def check_landscape(out: dict, inputs: Inputs) -> None:
    shape = [len(a["values"]) for a in out["axes"]]
    data = out["data"]
    for key in ("control_response", "differential_phase", "flagged"):
        _expect([len(data[key]), len(data[key][0])] == shape, f"{key} shape")
    kept = [
        v
        for row, flags in zip(data["differential_phase"], data["flagged"])
        for v, flag in zip(row, flags)
        if not flag
    ]
    _finite(kept, "unflagged phases")


def check_rb_simultaneous(out: dict, inputs: Inputs) -> None:
    _expect(out["simultaneous"], "not simultaneous")
    for qubit, outcome in out["outcomes"].items():
        _converged(outcome["fit"], f"RB {qubit}")
        _expect(0.0 < outcome["epc"] < 1e-2, f"{qubit} EPC {outcome['epc']}")


# --------------------------------------------------------------- workloads

def _cmd(line: str, check, known_failure: Optional[KnownFailure] = None) -> Command:
    return Command(tuple(line.split()), check, known_failure)


# The sizzle and RB commands use smaller grids than the CLI defaults (7 of 25
# widths, 21x4 of 41x7 landscape cells, 4 of 16 RB sequences) so that one run
# holds about seven repeats to take the median over; each repeat still runs
# the same code paths.  The README commands run verbatim apart from the seed.
README_CZ_FAILURE = KnownFailure(
    3,
    "README example exits 3: repeated-gate residual 1.46% over the 1% gate "
    "at the default --levels 4 (ROADMAP item 5)",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "readme-cli",
            "the README commands plus T1: mostly interpreter start and import",
            (
                _cmd("zz --pair Q2,Q3", check_zz),
                _cmd("stats --column alpha", check_stats_alpha),
                _cmd("report", check_report),
                _cmd("spectrum --qubits Q2,Q3,Q6 --levels 3", check_spectrum),
                _cmd("dynamics --protocol ramsey --qubit Q2 --delays 0:20:161 --seed {seed}",
                     check_ramsey),
                _cmd("dynamics --protocol t1 --qubit Q2 --seed {seed}", check_t1),
                _cmd("sweep --kind swap --pair Q2,Q3 --amplitudes 25:35:11 --seed {seed}",
                     check_swap),
                _cmd("sizzle --mode tomography --pair Q2,Q7 --amplitude 10 --seed {seed}",
                     check_sizzle_tomography),
                _cmd("calibrate-cz --pair Q2,Q7 --freq 5028.5 --amplitude 10 --seed {seed}",
                     check_calibrate_cz, README_CZ_FAILURE),
                _cmd("rb --qubits Q1 --epc 1e-3 --seed {seed}", check_rb_injected),
                _cmd("tomography --state bell --tau-g 3.3 --seed {seed}", check_tomography),
                _cmd("fit --model exp_decay --input trace.csv", check_fit),
            ),
            (_cmd("fit --model exp_decay --input trace.csv", check_fit),),
        ),
        Workload(
            "cz-phase-sweep",
            "CZ tune-up phase sweep at dim 16: one subset Hamiltonian reused, 7 widths per segment",
            (_cmd("sizzle --mode phase --pair Q2,Q7 --amplitude 10 --widths 0:3:7 --seed {seed}",
                  check_phase_sweep),),
            (_cmd("sizzle --mode phase --pair Q2,Q7 --amplitude 10 --widths 0.5,1,1.5 "
                  "--seed {seed}", check_phase_sweep),),
        ),
        Workload(
            "cz-landscape",
            "drive landscape: a new drive frame and one width per cell, so nothing is reused",
            (_cmd("sizzle --mode landscape --pair Q2,Q7 --freqs 4900:5300:21 "
                  "--amplitudes 2:20:4 --seed {seed}", check_landscape),),
            (_cmd("sizzle --mode landscape --pair Q2,Q7 --freqs 4900:5300:3 "
                  "--amplitudes 2:20:2 --seed {seed}", check_landscape),),
        ),
        Workload(
            "rb-simultaneous",
            "3-qubit simultaneous RB with device ZZ: Clifford stepping, no operator work",
            (_cmd("rb --qubits Q1,Q2,Q3 --simultaneous --sequences 4 --seed {seed}",
                  check_rb_simultaneous),),
            (_cmd("rb --qubits Q1,Q2,Q3 --simultaneous --sequences 2 --lengths 2,25,50,100,250 "
                  "--seed {seed}", check_rb_simultaneous),),
        ),
    )
}
