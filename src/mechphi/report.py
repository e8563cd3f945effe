"""Declarative analysis driver: parse a request, run the unfolding, render tables.

Request and report formats are JSON-first.  Complex numbers are serialized as
two-element [re, im] arrays (bare reals are accepted on input), matrices as
row-major nested arrays, and basis indices are big-endian with unit 0 as the
most significant digit.  An infinite phi is serialized as the string "inf".
"""

from __future__ import annotations

import csv
import io
import json
import math
import string
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__, classical, quantum
from .errors import NumericError, ValidationError
from .tensor import DEFAULT_TOL, DensityMatrix, UnitaryOperator, hermitian_eig

_DIRECTIONS = {"cause": ("cause",), "effect": ("effect",), "both": ("effect", "cause")}


@dataclass
class AnalysisRequest:
    """A validated analysis request; ``raw`` echoes the parsed document."""

    backend: str
    direction: str
    tolerance: float
    mechanisms: Optional[tuple[tuple[int, ...], ...]]
    raw: dict
    system: object
    state_t: Optional[tuple[int, ...]] = None
    state_t1: Optional[tuple[int, ...]] = None
    rho_t: Optional[DensityMatrix] = None


@dataclass
class AnalysisReport:
    request: dict
    distinctions: list[dict]
    meta: dict = field(default_factory=dict)


# -- parsing ---------------------------------------------------------------


def _parse_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)):
        parts = (value,)
    elif (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(x, (int, float)) for x in value)):
        parts = value
    else:
        raise ValidationError(f"{path}: expected a number or [re, im] pair, got {value!r}")
    try:
        return complex(*parts)
    except OverflowError:
        raise ValidationError(f"{path}: {value!r} is out of range") from None


def _parse_cvector(value, path: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or not value:
        raise ValidationError(f"{path}: expected a nonempty array")
    return np.array([_parse_complex(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _parse_cmatrix(value, path: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or not value:
        raise ValidationError(f"{path}: expected a nonempty matrix")
    rows = [_parse_cvector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    if len({len(r) for r in rows}) != 1:
        raise ValidationError(f"{path}: ragged rows")
    return np.stack(rows)


def _parse_int_list(value, path: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{path}: expected an array of integers")
    out = []
    for i, v in enumerate(value):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"{path}[{i}]: expected an integer, got {v!r}")
        out.append(v)
    return tuple(out)


def parse_request(source, tolerance: Optional[float] = None,
                  direction: Optional[str] = None,
                  mechanisms: Optional[str] = None) -> AnalysisRequest:
    """Parse and validate a request document (bytes, str, or dict).

    Optional arguments override the corresponding document fields.  Every
    matrix invariant (row-stochasticity, conditional independence, unitarity,
    density-matrix validity) is checked here, at load time.
    """
    if isinstance(source, (bytes, bytearray)):
        source = source.decode("utf-8")
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from None
    else:
        data = source
    if not isinstance(data, dict):
        raise ValidationError("request document must be a JSON object")
    data = dict(data)

    if direction is not None:
        data["direction"] = direction
    if mechanisms is not None:
        data["mechanisms"] = _parse_mechanisms_spec(mechanisms)
    if tolerance is not None:
        data["tolerance"] = tolerance

    backend = data.get("backend")
    if backend not in ("classical", "quantum"):
        raise ValidationError(f"backend: expected 'classical' or 'quantum', got {backend!r}")
    dir_value = data.get("direction", "both")
    if not isinstance(dir_value, str) or dir_value not in _DIRECTIONS:
        raise ValidationError(f"direction: expected cause|effect|both, got {dir_value!r}")
    tol = data.get("tolerance", DEFAULT_TOL)
    if not isinstance(tol, (int, float)) or not 0 < tol < 1:
        raise ValidationError(f"tolerance: expected a float in (0, 1), got {tol!r}")
    tol = float(tol)

    mech_field = data.get("mechanisms", "all")
    if mech_field == "all":
        mech_subsets = None
    elif isinstance(mech_field, (list, tuple)):
        mech_subsets = tuple(
            _parse_int_list(m, f"mechanisms[{i}]") for i, m in enumerate(mech_field)
        )
        if not mech_subsets:
            raise ValidationError("mechanisms: list must be nonempty (or use \"all\")")
        for i, m in enumerate(mech_subsets):
            if not m:
                raise ValidationError(f"mechanisms[{i}]: mechanism must be nonempty")
            if len(set(m)) != len(m):
                raise ValidationError(
                    f"mechanisms[{i}]: mechanism units must be distinct, got {list(m)}")
    else:
        raise ValidationError(f"mechanisms: expected \"all\" or an array, got {mech_field!r}")

    if backend == "classical":
        return _parse_classical(data, dir_value, tol, mech_subsets)
    return _parse_quantum(data, dir_value, tol, mech_subsets)


def _parse_classical(data: dict, direction: str, tol: float,
                     mech_subsets) -> AnalysisRequest:
    if "unit_states" not in data:
        raise ValidationError("unit_states: required for the classical backend")
    counts = _parse_int_list(data["unit_states"], "unit_states")
    if "tpm" not in data:
        raise ValidationError("tpm: required for the classical backend")
    tpm = _parse_cmatrix(data["tpm"], "tpm")
    if np.any(tpm.imag != 0):  # NaN parts included
        raise ValidationError("tpm: entries must be real")
    background = None
    if "background" in data:
        bg = data["background"]
        if not isinstance(bg, dict) or "units" not in bg or "state" not in bg:
            raise ValidationError("background: expected {\"units\": [...], \"state\": [...]}")
        background = (
            _parse_int_list(bg["units"], "background.units"),
            _parse_int_list(bg["state"], "background.state"),
        )
    try:
        system = classical.ClassicalSystem(counts, tpm.real, tol=tol)
    except ValidationError as exc:
        raise ValidationError(f"tpm: {exc}") from None
    if background is not None:
        try:
            system._fix_background(*background)
        except ValidationError as exc:
            raise ValidationError(f"background: {exc}") from None
    _check_mechanisms(mech_subsets, system._check_units)

    def full_state(key: str) -> Optional[tuple[int, ...]]:
        if key not in data or data[key] is None:
            return None
        state = _parse_int_list(data[key], key)
        try:
            return classical._check_full_state(system, state)
        except ValidationError as exc:
            raise ValidationError(f"{key}: {exc}") from None

    return AnalysisRequest(
        backend="classical", direction=direction, tolerance=tol,
        mechanisms=mech_subsets, raw=data, system=system,
        state_t=full_state("state_t"), state_t1=full_state("state_t1"),
    )


def _parse_quantum(data: dict, direction: str, tol: float,
                   mech_subsets) -> AnalysisRequest:
    qubits = data.get("qubits")
    if not isinstance(qubits, int) or isinstance(qubits, bool) or not 1 <= qubits <= 3:
        raise ValidationError(f"qubits: expected 1, 2 or 3, got {qubits!r}")
    if "unitary" not in data:
        raise ValidationError("unitary: required for the quantum backend")
    u = _parse_cmatrix(data["unitary"], "unitary")
    if u.shape != (2**qubits, 2**qubits):
        raise ValidationError(
            f"unitary: shape {u.shape} does not match {qubits} qubits"
        )
    try:
        system = quantum.QuantumSystem(UnitaryOperator(u, dims=(2,) * qubits, tol=tol), tol=tol)
    except ValidationError as exc:
        raise ValidationError(f"unitary: {exc}") from None
    _check_mechanisms(mech_subsets, system._check_qubits)

    state = data.get("state")
    if not isinstance(state, dict) or "kind" not in state:
        raise ValidationError("state: expected {\"kind\": \"pure\"|\"density\", ...}")
    try:
        if state["kind"] == "pure":
            amp = _parse_cvector(state.get("amplitudes"), "state.amplitudes")
            if amp.shape != (2**qubits,):
                raise ValidationError(
                    f"length {amp.shape[0]} does not match {qubits} qubits"
                )
            rho = DensityMatrix.from_pure(amp, dims=(2,) * qubits, tol=tol)
        elif state["kind"] == "density":
            mat = _parse_cmatrix(state.get("matrix"), "state.matrix")
            rho = DensityMatrix(mat, dims=(2,) * qubits, tol=tol)
        else:
            raise ValidationError(f"unknown kind {state['kind']!r}")
    except ValidationError as exc:
        raise ValidationError(f"state: {exc}") from None

    return AnalysisRequest(
        backend="quantum", direction=direction, tolerance=tol,
        mechanisms=mech_subsets, raw=data, system=system, rho_t=rho,
    )


def _check_mechanisms(mech_subsets, check) -> None:
    """Each requested mechanism's units against the system, reported by index."""
    for i, units in enumerate(mech_subsets or ()):
        try:
            check(units, "mechanism")
        except ValidationError as exc:
            raise ValidationError(f"mechanisms[{i}]: {exc}") from None


def _parse_mechanisms_spec(spec: str):
    """CLI shorthand: semicolon-separated mechanisms of comma-separated units."""
    if spec == "all":
        return "all"
    out = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append([int(tok) for tok in chunk.split(",")])
        except ValueError:
            raise ValidationError(
                f"mechanisms: cannot parse {chunk!r}; use e.g. \"0;0,1\" or \"all\""
            ) from None
    if not out:
        raise ValidationError("mechanisms: empty specification")
    return out


# -- running ---------------------------------------------------------------


def run(request: AnalysisRequest) -> AnalysisReport:
    """Run the requested unfolding and package a deterministic report."""
    directions = _DIRECTIONS[request.direction]
    try:
        if request.backend == "classical":
            state_t1 = request.state_t1
            if state_t1 is None and "cause" in directions:
                state_t1 = _derive_output_state(request)
            distinctions = classical.unfold(
                request.system, state_t=request.state_t, state_t1=state_t1,
                directions=directions, mechanisms=request.mechanisms,
            )
            dicts = [_classical_dict(d) for d in distinctions]
        else:
            if request.rho_t is None:
                raise ValidationError("state: required for the quantum backend")
            distinctions = quantum.unfold(
                request.system, request.rho_t,
                directions=directions, mechanisms=request.mechanisms,
            )
            dicts = [_quantum_dict(d) for d in distinctions]
    except (ValidationError, NumericError):
        raise
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        raise NumericError(f"analysis failed numerically: {exc}") from exc
    meta = {
        "backend": request.backend,
        "tolerance": request.tolerance,
        "version": __version__,
    }
    return AnalysisReport(request=request.raw, distinctions=dicts, meta=meta)


def _derive_output_state(request: AnalysisRequest) -> tuple[int, ...]:
    sys = request.system
    if request.state_t is None:
        raise ValidationError("state_t1: required for cause analysis")
    idx = int(np.ravel_multi_index(request.state_t, sys.unit_state_counts))
    # The candidate units' joint next state: the background's next values summed out.
    joint = sys.tpm[idx].reshape(sys.unit_state_counts).sum(
        axis=sys.background_units, keepdims=True)
    top = np.unravel_index(int(np.argmax(joint)), joint.shape)
    if joint[top] < 1.0 - sys.tol:
        raise ValidationError(
            "state_t1: required for cause analysis (the transition from state_t "
            "is not deterministic)"
        )
    state = [int(v) for v in top]
    for u, v in zip(sys.background_units, sys.background_state):
        state[u] = v
    return tuple(state)


# -- serialization ---------------------------------------------------------


def _phi_value(value: float):
    return "inf" if math.isinf(value) else float(value)


def _cnum(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _cvec(vec) -> list:
    return [_cnum(z) for z in np.asarray(vec).reshape(-1)]


def _cmat(mat) -> list:
    return [[_cnum(z) for z in row] for row in np.asarray(mat)]


def _distinction_dict(d, units, mechanism_state, intrinsic_state: dict) -> dict:
    """The JSON fields of a distinction, in report order, from either backend."""
    return {
        "mechanism_units": list(units),
        "mechanism_state": mechanism_state,
        "direction": d.direction,
        "purview": list(d.purview),
        "intrinsic_state": intrinsic_state,
        "phi": _phi_value(d.phi),
        "mip": {
            "parts": [{"mechanism": list(m), "purview": list(z)} for m, z in d.mip.parts],
            "normalization": d.normalization,
        },
        "ties": [{"type": "purview", "units": list(z)} for z in d.tied_purviews],
    }


def _classical_dict(d: classical.ClassicalDistinction) -> dict:
    return _distinction_dict(d, d.mechanism_units, list(d.mechanism_state), {
        "kind": "state",
        "vectors": [list(s) for s in d.intrinsic_states],
    })


def _quantum_dict(d: quantum.QuantumDistinction) -> dict:
    mechanism_state = {"kind": "density", "matrix": _cmat(d.mechanism_state.data)}
    return _distinction_dict(d, d.mechanism_qubits, mechanism_state, {
        "kind": d.intrinsic_state.kind,
        "eigenvalues": [float(p) for p in d.intrinsic_state.eigenvalues],
        "vectors": [_cvec(v) for v in d.intrinsic_state.vectors],
    })


# -- rendering -------------------------------------------------------------


_LETTERS = string.ascii_uppercase


def _unit_label(unit: int, layer: int, n_units: int) -> str:
    """A to Z while both layers fit, else fixed-width base-26 letter groups.

    A fixed width keeps labels unambiguous when joined: with 14 units, unit
    0 at t is AA and unit 13 at t+1 is BB.
    """
    index, width = unit + layer * n_units, 1
    while 26 ** width < 2 * n_units:
        width += 1
    return "".join(_LETTERS[index // 26 ** k % 26] for k in reversed(range(width)))


def _units_label(units: Sequence[int], layer: int, n: int) -> str:
    return "".join(_unit_label(u, layer, n) for u in units)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_complex(z: complex) -> str:
    if abs(z.imag) < 1e-12:
        return _fmt(z.real)
    return f"({_fmt(z.real)}{z.imag:+.6g}j)"


def _fmt_vector(vec: np.ndarray, n_units: int) -> str:
    parts = []
    for idx, amp in enumerate(np.asarray(vec).reshape(-1)):
        if abs(amp) < 1e-6:
            continue
        basis = format(idx, f"0{n_units}b")
        a = complex(amp)
        if abs(a.imag) < 1e-9:
            sign = "-" if a.real < 0 else "+"
            mag = abs(a.real)
            coeff = "" if abs(mag - 1.0) < 1e-9 else _fmt(mag)
        else:
            sign = "+"
            coeff = _fmt_complex(a)
        parts.append((sign, f"{coeff}|{basis}>"))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out


def _fmt_density(matrix: np.ndarray, tol: float) -> str:
    """A validated state, as stored in a report, read at the report's tolerance."""
    n = len(matrix).bit_length() - 1
    eig = hermitian_eig(matrix, tol=tol)
    if abs(eig.eigenvalues[0] - 1.0) < 1e-9:
        return _fmt_vector(quantum.fix_global_phase(eig.eigenvectors[:, 0]), n)
    terms = [
        f"{_fmt(val)}*({_fmt_vector(quantum.fix_global_phase(eig.eigenvectors[:, i]), n)})"
        for i, val in enumerate(eig.eigenvalues) if val > 1e-9
    ]
    return "mix[" + " ; ".join(terms) + "]"


def _mech_layer(direction: str) -> tuple[int, int]:
    """(mechanism layer, purview layer); effects run from t to t+1."""
    return (0, 1) if direction == "effect" else (1, 0)


def _rows_for(report: AnalysisReport) -> list[dict]:
    backend = report.meta["backend"]
    n = (len(report.request["unit_states"]) if backend == "classical"
         else report.request["qubits"])
    rows = []
    for d in report.distinctions:
        mlayer, zlayer = _mech_layer(d["direction"])
        munits = d["mechanism_units"]
        zunits = d["purview"]
        if backend == "classical":
            mech = ("".join(str(v) for v in d["mechanism_state"])
                    + "_" + _units_label(munits, mlayer, n))
            vectors = d["intrinsic_state"]["vectors"]
            state = " | ".join(
                "".join(str(v) for v in vec) + "_" + _units_label(zunits, zlayer, n)
                for vec in vectors
            )
        else:
            matrix = np.array([[complex(re, im) for re, im in row]
                               for row in d["mechanism_state"]["matrix"]])
            mech = (_fmt_density(matrix, report.meta["tolerance"])
                    + "_" + _units_label(munits, mlayer, n))
            vecs = [
                _fmt_vector(np.array([complex(re, im) for re, im in v]), len(zunits))
                for v in d["intrinsic_state"]["vectors"]
            ]
            joined = " ; ".join(vecs)
            state = (f"span{{{joined}}}" if d["intrinsic_state"]["kind"] == "subspace"
                     else " | ".join(vecs))
            state += "_" + _units_label(zunits, zlayer, n)
        mip_txt = " | ".join(
            (_units_label(p["mechanism"], mlayer, n) or "-") + ">"
            + (_units_label(p["purview"], zlayer, n) or "-")
            for p in d["mip"]["parts"]
        )
        phi = d["phi"] if isinstance(d["phi"], str) else _fmt(d["phi"])
        ties = " | ".join(
            _units_label(t["units"], zlayer, n) for t in d["ties"]
        ) or "-"
        rows.append({
            "mechanism": mech,
            "direction": d["direction"],
            "purview": _units_label(zunits, zlayer, n),
            "state": state,
            "phi": phi,
            "mip": f"[{mip_txt}] /{d['mip']['normalization']}",
            "ties": ties,
        })
    return rows


_COLUMNS = ("mechanism", "direction", "purview", "state", "phi", "mip", "ties")


def render(report: AnalysisReport, fmt: str = "text") -> str:
    """Render a report as an aligned text table, JSON, or CSV."""
    if fmt not in ("text", "json", "csv"):
        raise ValidationError(f"format: expected text|json|csv, got {fmt!r}")
    if fmt == "json":
        payload = {
            "request": report.request,
            "distinctions": report.distinctions,
            "meta": report.meta,
        }
        return json.dumps(payload, indent=2) + "\n"
    rows = _rows_for(report)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    widths = {
        c: max(len(c), *(len(r[c]) for r in rows)) if rows else len(c)
        for c in _COLUMNS
    }
    lines = ["  ".join(c.ljust(widths[c]) for c in _COLUMNS).rstrip()]
    lines.append("  ".join("-" * widths[c] for c in _COLUMNS).rstrip())
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in _COLUMNS).rstrip())
    if not rows:
        lines.append("(no distinctions: every mechanism is fully reducible)")
    return "\n".join(lines) + "\n"
