"""Every module-level function, class and constant of the package, and
every method and class attribute of its classes, is reached from the rest
of the package, or is listed here with the reason it stays.  A name that
no other line of ``src/`` names, neither as a name nor as an attribute,
is code no command runs: delete it with its tests, or list it below.  An
import is not a use, and neither are the lines of the name's own
definition."""
import ast
from pathlib import Path

import transmon_lattice

PACKAGE = Path(transmon_lattice.__file__).parent

# module.name: why it stays although no other line of src/ names it
UNREACHED = (
    ("cliffords.MIXER_CZ_COUNTS", "CZ count of each mixer; the two-qubit Clifford tests "
                                  "check the mixers against it"),
    ("cliffords.mean_physical_gates", "the published 1.875 gates per Clifford, a reference "
                                      "the Clifford tests compare against"),
    ("device.CouplingGraph.j_long", "the long-range residual of one pair, which the "
                                    "Hamiltonian tests build their reference from"),
    ("device.TransmonParams.from_frequency", "builds a transmon from measured (omega, alpha); "
                                             "the test devices are made with it, the bundled "
                                             "one stores EJ and EC"),
    ("device.omega_from_ej_ec", "transmon frequency from EJ and EC; the tests check "
                                "ej_from_omega, which devices are built with, against it"),
    ("dynamics.site_populations", "per-site populations, a reference the dynamics tests "
                                  "compare the site readouts against"),
    ("fileio.save_device", "the device writer (with device_to_dict), the inverse of "
                           "load_device"),
    ("fitting.MODELS", "the fit models and Jacobians, which the fit tests check against "
                       "finite differences"),
    ("operators.LatticeOperator.to_dense", "a writable copy of the matrix for the tests; "
                                           "the benchmark traces it as a span"),
    ("operators.total_excitation", "the excitation-number operator the Hamiltonian "
                                   "conservation tests commute against"),
    ("protocols.stark_amplitude_for_shift", "inverse of the AC-Stark shift, used by the "
                                            "acceptance tests"),
    ("rb.run_interleaved_rb_cz", "interleaved two-qubit RB, the open device-noise CZ item "
                                 "builds on it"),
    ("rb.sequence_gate_list", "the replay API that the frozen RNG-stream test pins"),
    ("sizzle.sizzle_zz_predicted_for", "closed-form driven ZZ of a device pair, the "
                                       "acceptance reference for measured nu_tilde"),
    ("spectrum.DressedSpectrum.energy_of", "the labeled energy that the dense-spectrum ZZ "
                                          "reference reads"),
    ("spectrum.assign_dressed_labels", "labels the dense spectrum, the reference that the "
                                       "ZZ cross-check compares device.zz_exact against"),
    ("spectrum.j_from_zz", "J implied by a measured ZZ, the acceptance reference for the "
                           "device's J values"),
)


def _definitions(body, prefix=""):
    """(qualified name, node) of every function, class and constant that
    ``body`` defines, and of those that the bodies of its classes define."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield prefix + name, node
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body, f"{prefix}{node.name}.")


def _unreached() -> set[str]:
    defined = {}  # (module, qualified name) -> (first line, last line)
    used = []  # (module, name, line)
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        for name, node in _definitions(tree.body):
            defined[module, name] = (node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                used.append((module, node.attr, node.lineno))
    return {
        f"{module}.{name}"
        for (module, name), (first, last) in defined.items()
        if not any(
            other == name.rpartition(".")[2] and not (where == module and first <= line <= last)
            for where, other, line in used
        )
    }


def test_every_unreached_name_is_listed_with_its_reason():
    listed = [name for name, _ in UNREACHED]
    assert len(listed) == len(set(listed))
    unreached = _unreached()
    new = sorted(unreached - set(listed))
    assert not new, f"no other line of src/ names {new}; delete them or list them with a reason"
    stale = sorted(set(listed) - unreached)
    assert not stale, f"{stale} are deleted or now reached from src/; drop them from UNREACHED"


# Names that other lines of src/ named, so the census above passed them,
# yet that no command ran: the time-dependent half of dynamics.evolve
# (timed and enveloped tones, the segment loop).  Ramps live only in
# dynamics.echo_sequence.  Then the second evolution entry and its tone
# type: dynamics.evolve takes vectors and density matrices alike, and
# per-site amplitudes in place of tones, whose drive terms it adds with
# the echo's helper.  Then tomography's own operator algebra: its Pauli
# table and per-string reconstruction, kron chains and one preparation
# function per state, where one circuit on the operators module's
# embedding now prepares both.  Then the Levenberg-Marquardt loop, whose
# last caller, the damped cosine, now searches f and T by variable
# projection as the decays search T.  Then the static propagation of
# evolve alone: evolve, the echo's flat tops and every ramp slice share one
# stacked runner, dynamics._static_run.  These names stay out of src/.
RETIRED = (
    "ENVELOPES", "_DriveTerm", "_frame_terms", "_segment_edges", "breakpoints",
    "envelope_value", "is_static_on", "DriveTone", "evolve_open", "_static_hamiltonian",
    "PAULI", "pauli_string", "measurement_settings", "_expectations_from_counts", "_kron_all",
    "_gate_on", "_cz_on", "_gate_noise", "bell_state", "ghz_state", "bell_state_noisy",
    "ghz_state_noisy", "rb_decay_model", "rb_decay_jacobian",
    # Clifford unitaries: the Clifford and ZZ transfer matrices are built from
    # real rotations, and these complex references live in tests/unitaries.py
    "_PAULIS", "_pauli_strings", "_transfers", "gate_unitary", "compose_gates", "_rx", "_rz",
    "clifford_unitaries", "cz_unitary",
    "levenberg_marquardt", "_propagate_static",
)


def _names_in_src(modules=None) -> set[str]:
    """Every function and class defined, and every name, attribute and
    imported name used, on any line of src/ (or of the named modules)."""
    used = set()
    paths = sorted(PACKAGE.glob("*.py")) if modules is None else [
        PACKAGE / f"{module}.py" for module in modules
    ]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


def test_the_retired_time_dependent_engine_stays_out_of_src():
    used = _names_in_src()
    assert not used & set(RETIRED), sorted(used & set(RETIRED))


# Linear fits are closed-form (linefit.fit_line, and the normal equations of
# the phase modulation): these numpy routes map LAPACK's SVD least-squares
# routine (dgelsd), about 0.3 MiB resident, to fit two or three parameters.
LAPACK_LEAST_SQUARES = ("polyfit", "lstsq")


def test_no_linear_fit_maps_a_lapack_least_squares_routine():
    used = _names_in_src()
    assert not used & set(LAPACK_LEAST_SQUARES), sorted(used & set(LAPACK_LEAST_SQUARES))


# Randomized benchmarking and the fits are real arithmetic on at most
# 4**n-long Pauli vectors and five-parameter systems.  Their small solves
# go through linefit.solve, so no RB or fit process faults in LAPACK's
# solver code (np.linalg), nor complex GEMM or einsum code for the
# Clifford and ZZ transfer matrices.
NO_LINALG = ("cliffords", "rb", "fitting", "linefit", "sizzle")
REAL_ONLY = ("cliffords", "rb")


def test_rb_and_the_fits_name_no_linalg():
    assert "linalg" not in _names_in_src(NO_LINALG)


def test_rb_forms_no_complex_number_and_calls_no_einsum():
    used = _names_in_src(REAL_ONLY)
    assert "einsum" not in used
    assert not [name for name in used if "complex" in name], sorted(used)
    constants = [
        node.value for module in REAL_ONLY
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, complex)
    ]
    assert not constants, constants
