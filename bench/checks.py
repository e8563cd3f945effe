"""Output checks: goldens, recorded references and independent recomputation.

Every operation's output is checked in the parent process, after the worker
has exited, so the checking never runs inside a timed region nor adds to the
worker's memory.

- Catalog requests are compared with ``tests/golden/<name>.json`` at 1e-9 by
  the same structural comparison as the test suite, ignoring
  ``meta.version``.  The goldens are only read.
- Random requests with the default or the hold-out seed are compared at 1e-9
  with the reference outputs in ``bench/reference/``, recorded by
  ``bench/record_reference.py``.
- Every random request, whatever its seed, must echo its document, and each
  distinction must be well formed.  For classical outputs the phi of every
  distinction is recomputed here from the TPM, the reported purview, MIP and
  intrinsic states, with a literal implementation that shares no code with
  ``mechphi``.
"""

from __future__ import annotations

import gzip
import json
import math
from itertools import product
from pathlib import Path

import numpy as np

from workloads import golden_path, request_doc

TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def mismatch(got, expected, path: str = "") -> str | None:
    """First structural difference, floats compared at 1e-9; None when equal."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(got) != set(expected):
            return f"{path}: keys differ"
        for k in expected:
            err = mismatch(got[k], expected[k], f"{path}.{k}")
            if err:
                return err
        return None
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return f"{path}: length differs"
        for i, (g, e) in enumerate(zip(got, expected)):
            err = mismatch(g, e, f"{path}[{i}]")
            if err:
                return err
        return None
    if isinstance(expected, float):
        if not isinstance(got, (int, float)) or not abs(got - expected) <= TOL:
            return f"{path}: {got!r} != {expected!r}"
        return None
    return None if got == expected else f"{path}: {got!r} != {expected!r}"


def _without_version(report: dict) -> dict:
    report = dict(report)
    report["meta"] = {k: v for k, v in report.get("meta", {}).items() if k != "version"}
    return report


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-{seed}.json.gz"


def key_id(key: dict) -> str:
    return json.dumps(key, sort_keys=True)


def load_references(workload: str, seed: int) -> dict[str, list]:
    path = reference_path(workload, seed)
    if not path.exists():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


class Checker:
    """Checks operation outputs of one workload and seed."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.seed = seed
        self.references = load_references(workload, seed)
        self._goldens: dict[str, dict] = {}
        self.reference_checked = 0

    def golden(self, name: str) -> dict:
        if name not in self._goldens:
            self._goldens[name] = _without_version(
                json.loads(golden_path(self.root, name).read_text()))
        return self._goldens[name]

    def check_catalog(self, name: str, rendered: str) -> str | None:
        return mismatch(_without_version(json.loads(rendered)), self.golden(name))

    def check(self, key: dict, output) -> str | None:
        """None when ``output`` is correct for the operation ``key``.

        ``output`` is the rendered JSON text of a request, or, for a sweep
        operation, the list of distinction dicts of one unfold.
        """
        if key["kind"] == "catalog":
            return self.check_catalog(key["name"], output)
        doc = request_doc(self.root, self.seed, key)
        if key["kind"] == "sweep":
            distinctions = output
        else:
            report = json.loads(output)
            if report.get("request") != doc:
                return "request echo differs from the document"
            meta = {k: v for k, v in report.get("meta", {}).items() if k != "version"}
            if meta != {"backend": doc["backend"], "tolerance": TOL}:
                return f"unexpected meta {report.get('meta')!r}"
            distinctions = report.get("distinctions")
        err = (check_classical(doc, distinctions) if doc["backend"] == "classical"
               else check_quantum(doc, distinctions))
        if err:
            return err
        ref = self.references.get(key_id(key))
        if ref is not None:
            self.reference_checked += 1
            return mismatch(distinctions, ref, "distinctions")
        return None


# -- structural checks -----------------------------------------------------


def _check_common(d: dict, n: int, path: str) -> str | None:
    mech, purview = d["mechanism_units"], d["purview"]
    if d["direction"] not in ("effect", "cause"):
        return f"{path}: bad direction {d['direction']!r}"
    for units in (mech, purview):
        if not units or units != sorted(set(units)) or units[0] < 0 or units[-1] >= n:
            return f"{path}: bad unit set {units!r}"
    phi = d["phi"]
    if not (phi == "inf" or (isinstance(phi, float) and phi > TOL)):
        return f"{path}: phi {phi!r} is not positive"
    parts = d["mip"]["parts"]
    m_cover = sorted(u for p in parts for u in p["mechanism"])
    z_cover = sorted(u for p in parts for u in p["purview"])
    if m_cover != mech or z_cover != purview:
        return f"{path}: MIP parts do not partition the mechanism and purview"
    severed = len(mech) * len(purview) - sum(
        len(p["mechanism"]) * len(p["purview"]) for p in parts)
    if severed < 1 or d["mip"]["normalization"] != severed:
        return f"{path}: normalization {d['mip']['normalization']} != {severed}"
    return None


def _check_order(distinctions: list) -> str | None:
    keys = [(d["direction"] == "cause", len(d["mechanism_units"]), d["mechanism_units"])
            for d in distinctions]
    if keys != sorted(keys) or len(set(map(repr, keys))) != len(keys):
        return "distinctions: not sorted by direction, order and mechanism"
    return None


def check_quantum(doc: dict, distinctions: list) -> str | None:
    n = doc["qubits"]
    for i, d in enumerate(distinctions):
        path = f"distinctions[{i}]"
        err = _check_common(d, n, path)
        if err:
            return err
        vals = d["intrinsic_state"]["eigenvalues"]
        vecs = d["intrinsic_state"]["vectors"]
        if not vals or len(vals) != len(vecs) or not all(-TOL <= p <= 1 + TOL for p in vals):
            return f"{path}: bad intrinsic eigenvalues {vals!r}"
        for v in vecs:
            norm = sum(re * re + im * im for re, im in v)
            if len(v) != 2 ** len(d["purview"]) or abs(norm - 1.0) > 1e-6:
                return f"{path}: intrinsic vector is not a unit vector on the purview"
    return _check_order(distinctions)


# -- classical recomputation -------------------------------------------------


class _Network:
    """Literal repertoire arithmetic over a TPM, written from the definitions."""

    def __init__(self, doc: dict):
        self.counts = list(doc["unit_states"])
        self.tpm = np.array([[float(x) for x in row] for row in doc["tpm"]])
        self.states = list(product(*[range(c) for c in self.counts]))
        arr = np.array(self.states)
        # marg[u][s, v]: probability that unit u takes value v after source state s
        self.marg = [
            np.stack([self.tpm[:, arr[:, u] == v].sum(axis=1) for v in range(c)], axis=1)
            for u, c in enumerate(self.counts)
        ]

    def rows(self, fixed: dict[int, int]) -> np.ndarray:
        return np.array([all(s[u] == v for u, v in fixed.items()) for s in self.states])

    def sub_states(self, units) -> list[tuple[int, ...]]:
        return list(product(*[range(self.counts[u]) for u in units]))

    def effect(self, mech: dict[int, int], purview) -> np.ndarray:
        """Product over purview units of their next-state marginals, inputs outside
        the mechanism averaged uniformly."""
        rows = self.rows(mech)
        out = np.ones(1)
        for u in purview:
            out = np.kron(out, self.marg[u][rows].mean(axis=0))
        return out

    def cause(self, mech: dict[int, int], purview) -> np.ndarray | None:
        """Normalized product over mechanism units of their per-unit likelihoods."""
        z_states = self.sub_states(purview)
        if not mech:
            return np.full(len(z_states), 1.0 / len(z_states))
        out = np.ones(len(z_states))
        for u, v in mech.items():
            lik = np.array([self.marg[u][self.rows(dict(zip(purview, z))), v].mean()
                            for z in z_states])
            if lik.sum() <= 0:
                return None
            out *= lik / lik.sum()
        return out / out.sum() if out.sum() > 0 else None

    def repertoire(self, direction: str, mech: dict[int, int], purview):
        return self.effect(mech, purview) if direction == "effect" else self.cause(mech, purview)


def _recomputed_phi(net: _Network, base: list[int], d: dict) -> float:
    purview = d["purview"]
    mech = {u: base[u] for u in d["mechanism_units"]}
    rep = net.repertoire(d["direction"], mech, purview)
    if rep is None:
        return 0.0
    z_states = net.sub_states(purview)
    part = np.ones(len(z_states))
    for p in d["mip"]["parts"]:
        if not p["purview"]:
            continue
        dist = net.repertoire(d["direction"], {u: base[u] for u in p["mechanism"]},
                              p["purview"])
        if dist is None:
            return math.inf
        sub_index = {z: i for i, z in enumerate(net.sub_states(p["purview"]))}
        pos = [purview.index(u) for u in p["purview"]]
        part *= np.array([dist[sub_index[tuple(z[k] for k in pos)]] for z in z_states])
    best = 0.0
    for vec in d["intrinsic_state"]["vectors"]:
        s = z_states.index(tuple(vec))
        ps, qs = float(rep[s]), float(part[s])
        if ps <= TOL:
            continue
        best = max(best, math.inf if qs <= TOL else ps * math.log2(ps / qs))
    return best


def check_classical(doc: dict, distinctions: list) -> str | None:
    net = _Network(doc)
    n = len(net.counts)
    for i, d in enumerate(distinctions):
        path = f"distinctions[{i}]"
        err = _check_common(d, n, path)
        if err:
            return err
        base = doc["state_t"] if d["direction"] == "effect" else doc["state_t1"]
        if d["mechanism_state"] != [base[u] for u in d["mechanism_units"]]:
            return f"{path}: mechanism state does not match the system state"
        vecs = d["intrinsic_state"]["vectors"]
        if not vecs or any(
                len(v) != len(d["purview"])
                or any(not 0 <= x < net.counts[u] for x, u in zip(v, d["purview"]))
                for v in vecs):
            return f"{path}: bad intrinsic states {vecs!r}"
        phi = math.inf if d["phi"] == "inf" else d["phi"]
        again = _recomputed_phi(net, base, d)
        if not (phi == again or abs(phi - again) <= TOL):
            return f"{path}: phi {phi!r} but recomputed {again!r}"
    return _check_order(distinctions)

