"""Request parsing, report rendering, golden-file regressions, CLI behavior."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechphi import __version__, classical
from mechphi.catalog import EXAMPLES, example_names, example_request
from mechphi.cli import main
from mechphi.errors import NumericError, ValidationError
from mechphi.report import AnalysisReport, parse_request, render, run

GOLDEN_DIR = Path(__file__).parent / "golden"


def close_enough(got, expected, path=""):
    """Structural equality with numeric tolerance on floats."""
    if isinstance(expected, dict):
        assert isinstance(got, dict) and set(got) == set(expected), path
        for k in expected:
            close_enough(got[k], expected[k], f"{path}.{k}")
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), path
        for i, (g, e) in enumerate(zip(got, expected)):
            close_enough(g, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(got, (int, float)) and abs(got - expected) <= 1e-9, (
            f"{path}: {got} != {expected}"
        )
    else:
        assert got == expected, f"{path}: {got!r} != {expected!r}"


class TestParsing:
    def test_builtin_cnot_request(self):
        req = parse_request(example_request("cnot-10"))
        assert req.backend == "quantum"
        assert req.system.n_qubits == 2
        assert np.allclose(req.rho_t.data, np.diag([0, 0, 1, 0]))

    def test_row_sum_error_names_the_row(self):
        data = example_request("copy-xor-10")
        data["tpm"][1][1] = 0.9
        with pytest.raises(ValidationError, match="row 1"):
            parse_request(data)

    def test_non_unitary_reports_residual(self):
        data = example_request("cnot-10")
        data["unitary"][0][0] = [0.5, 0.0]
        with pytest.raises(ValidationError, match=r"U\^dag U - I"):
            parse_request(data)

    def test_bad_density_matrix(self):
        data = example_request("cnot-mixed")
        data["state"]["matrix"][0][0] = [0.7, 0.0]
        with pytest.raises(ValidationError, match="state"):
            parse_request(data)

    def test_unknown_backend(self):
        with pytest.raises(ValidationError, match="backend"):
            parse_request({"backend": "analog"})

    def test_malformed_json(self):
        with pytest.raises(ValidationError, match="JSON"):
            parse_request(b"{not json")

    def test_direction_override(self):
        req = parse_request(example_request("cnot-10"), direction="effect")
        assert req.direction == "effect"

    def test_mechanisms_override_spec(self):
        req = parse_request(example_request("cnot-10"), mechanisms="0;0,1")
        assert req.mechanisms == ((0,), (0, 1))

    def test_derived_output_state_for_deterministic_tpm(self):
        data = example_request("copy-xor-10")
        del data["state_t1"]
        report = run(parse_request(data))
        causes = [d for d in report.distinctions if d["direction"] == "cause"]
        assert len(causes) == 3

    def test_missing_output_state_for_stochastic_tpm(self):
        data = {
            "backend": "classical",
            "unit_states": [2],
            "tpm": [[0.5, 0.5], [0.5, 0.5]],
            "state_t": [0],
            "direction": "both",
        }
        with pytest.raises(ValidationError, match="state_t1"):
            run(parse_request(data))


def value_paths(doc, prefix=()):
    """The path (dict keys and list indices) of every value nested in ``doc``."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


GOLDEN_REQUESTS = [json.loads(path.read_text())["request"]
                   for path in sorted(GOLDEN_DIR.glob("*.json"))]

#: Replacement values: swapped types, non-finite numbers, huge ints, nested lists.
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4), st.sampled_from([10**30, -10**400, 2**63]),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -0.0]), st.text(max_size=3),
    st.sampled_from([[], {}, [[]], [[1, 2], [3]], [0, [0, 1]], {"units": [0]}]),
)


@st.composite
def mutated_requests(draw):
    doc = copy.deepcopy(draw(st.sampled_from(GOLDEN_REQUESTS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(value_paths(doc))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        action = draw(st.sampled_from(["drop", "replace", "wrap"]))
        if action == "drop":
            del parent[key]
        elif action == "replace":
            parent[key] = copy.deepcopy(draw(ODD_VALUES))
        else:
            parent[key] = [copy.deepcopy(parent[key]) for _ in range(draw(st.integers(1, 2)))]
    return doc


def _complex_pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


@st.composite
def schema_kept_requests(draw):
    """A golden request with its fields redrawn within their types and ranges.

    The matrices stay.  ``tolerance``, ``direction``, ``mechanisms``, the
    classical states and background, and the quantum state are drawn anew,
    each valid on its own (or left out, where optional), so most documents
    parse and reach ``run``.
    """
    doc = copy.deepcopy(draw(st.sampled_from(GOLDEN_REQUESTS)))
    doc["tolerance"] = draw(st.floats(1e-12, 0.5))
    doc["direction"] = draw(st.sampled_from(["cause", "effect", "both"]))
    counts = doc.get("unit_states") or [2] * doc["qubits"]
    n = len(counts)
    doc["mechanisms"] = draw(st.one_of(st.just("all"), st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
        min_size=1, max_size=2)))
    if doc["backend"] == "quantum":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        dim = 2**n
        shape = (dim, draw(st.integers(1, dim)))
        imag = draw(st.sampled_from([0, 1])) * rng.standard_normal(shape)
        g = rng.standard_normal(shape) + 1j * imag
        g[rng.random(shape) > draw(st.sampled_from([0.4, 0.8, 1.0]))] = 0  # sparse: ties
        if not g.any():  # a zero state has no trace to divide by
            g[0, 0] = 1
        if draw(st.booleans()):
            doc["state"] = {"kind": "pure", "amplitudes": _complex_pairs(g[:, 0])}
        else:
            rho = g @ g.conj().T
            rho = (rho + rho.conj().T) / 2  # Hermitian entry for entry
            doc["state"] = {"kind": "density",
                            "matrix": [_complex_pairs(row) for row in rho / np.trace(rho).real]}
        return doc
    states = st.tuples(*[st.integers(0, c - 1) for c in counts]).map(list)
    doc["state_t"] = draw(states)
    doc["state_t1"] = draw(st.one_of(st.none(), states))
    if draw(st.booleans()):
        unit = draw(st.integers(0, n - 1))
        value = draw(st.integers(0, counts[unit] - 1))
        doc["background"] = {"units": [unit], "state": [value]}
        for key in ("state_t", "state_t1"):
            if doc[key] is not None:
                doc[key][unit] = value
    return doc


class TestMalformedInput:
    def test_nan_tpm_entry_is_rejected(self, tmp_path, capsys):
        data = example_request("copy-xor-10")
        data["tpm"][0][0] = math.nan
        with pytest.raises(ValidationError, match="non-finite"):
            parse_request(data)
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))  # writes a bare NaN token
        assert main(["analyze", str(path), "--format", "json"]) == 2
        assert capsys.readouterr().out == ""

    def test_unhashable_direction_is_rejected(self):
        data = example_request("copy-xor-10")
        data["direction"] = []
        with pytest.raises(ValidationError, match="direction"):
            parse_request(data)

    def test_huge_unit_state_count_is_rejected(self):
        data = example_request("copy-xor-10")
        data["unit_states"] = [10**30, 2]
        with pytest.raises(ValidationError, match="tpm shape"):
            parse_request(data)

    @pytest.mark.parametrize("units,state", [([0, 1], [1]), ([0], [1, 0])])
    def test_background_length_mismatch_exits_2(self, tmp_path, capsys, units, state):
        data = example_request("copy-xor-10")
        data["background"] = {"units": units, "state": state}
        with pytest.raises(ValidationError, match="^background: .* differ in length"):
            parse_request(data)
        path = tmp_path / "bg.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path), "--format", "json"]) == 2
        assert capsys.readouterr().out == ""

    def test_background_unit_out_of_range_exits_2(self, tmp_path, capsys):
        data = {**example_request("copy-xor-10"), "background": {"units": [5], "state": [0]}}
        message = "background: background units (5,) out of range"
        with pytest.raises(ValidationError) as exc:
            parse_request(data)
        assert str(exc.value) == message
        path = tmp_path / "bg.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path), "--format", "json"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_background_request_builds_the_system_once(self, monkeypatch):
        built = []
        init = classical.ClassicalSystem.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(classical.ClassicalSystem, "__init__", counting_init)
        data = {**example_request("copy-xor-10"), "background": {"units": [0], "state": [1]}}
        request = parse_request(data)
        assert len(built) == 1
        assert request.system.background_units == (0,)
        assert request.system.candidate_units == (1,)
        data["tpm"] = [[1, 0, 0, 0]] * 3 + [[0.5, 0, 0, 0]]
        with pytest.raises(ValidationError, match="^tpm: tpm row 3"):
            parse_request(data)

    @pytest.mark.parametrize("name, data, message", [
        ("copy-xor-10", {"mechanisms": [[0], [0, 7]]},
         "mechanisms[1]: mechanism units [7] invalid or fixed as background"),
        ("copy-xor-10", {"mechanisms": [[0], [1]], "background": {"units": [1], "state": [0]}},
         "mechanisms[1]: mechanism units [1] invalid or fixed as background"),
        ("cnot-10", {"mechanisms": [[0, 7]]}, "mechanisms[0]: mechanism qubits (0, 7) out of range"),
    ])
    def test_out_of_range_mechanism_exits_2(self, tmp_path, capsys, name, data, message):
        data = {**example_request(name), **data}
        with pytest.raises(ValidationError) as exc:
            parse_request(data)
        assert str(exc.value) == message
        path = tmp_path / "mech.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path), "--format", "json"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("name", ["copy-xor-10", "cnot-10"])
    def test_repeated_mechanism_unit_exits_2(self, tmp_path, capsys, name):
        data = example_request(name)
        data["mechanisms"] = [[0], [0, 0]]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path), "--format", "json"]) == 2
        assert capsys.readouterr().err == (
            "error: mechanisms[1]: mechanism units must be distinct, got [0, 0]\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on 1e308-sized entries
    @settings(max_examples=500, deadline=None)
    @given(mutated_requests(), st.booleans())
    def test_only_validation_errors_escape(self, doc, as_text):
        try:
            parse_request(json.dumps(doc) if as_text else doc)
        except ValidationError:
            pass

    @pytest.mark.filterwarnings("ignore::RuntimeWarning",
                                "ignore:cause repertoire blocks do not commute",
                                "ignore:symmetrized cause repertoire not PSD")
    @settings(max_examples=200, deadline=None)  # about 1 in 30 parses
    @given(mutated_requests())
    def test_parsed_requests_end_in_a_report_or_an_error(self, doc):
        """``run`` on a mutated request that parses ends in a report or a package error."""
        try:
            request = parse_request(doc)
        except ValidationError:
            return
        try:
            assert isinstance(run(request), AnalysisReport)
        except (ValidationError, NumericError):
            pass

    @pytest.mark.filterwarnings("ignore:cause repertoire blocks do not commute",
                                "ignore:symmetrized cause repertoire not PSD")
    def test_schema_kept_requests_end_in_a_report_or_an_error(self):
        """At least half of them parse; ``run`` ends in a report or a package error."""
        parsed = []

        @settings(max_examples=60, deadline=None)
        @given(schema_kept_requests())
        def check(doc):
            try:
                request = parse_request(doc)
            except ValidationError:
                parsed.append(False)
                return
            parsed.append(True)
            try:
                assert isinstance(run(request), AnalysisReport)
            except (ValidationError, NumericError):
                pass

        check()
        assert sum(parsed) >= len(parsed) / 2


class TestGoldenReports:
    @pytest.mark.parametrize("name", example_names())
    def test_matches_committed_golden(self, name):
        report = run(parse_request(example_request(name)))
        got = json.loads(render(report, "json"))
        expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert got["meta"]["version"] == __version__
        expected["meta"]["version"] = got["meta"]["version"]
        close_enough(got, expected)

    def test_json_round_trip_is_bit_identical(self):
        report = run(parse_request(example_request("w-identity")))
        payload = json.loads(render(report, "json"))
        for got, orig in zip(payload["distinctions"], report.distinctions):
            assert got["phi"] == orig["phi"]  # exact float round trip

    def test_rerun_is_deterministic(self):
        a = render(run(parse_request(example_request("icnot-ghz"))), "json")
        b = render(run(parse_request(example_request("icnot-ghz"))), "json")
        assert a == b

    def test_tolerance_override_is_stamped(self):
        report = run(parse_request(example_request("cnot-10"), tolerance=1e-07))
        assert report.meta["tolerance"] == 1e-07


class TestRendering:
    def test_csv_has_one_row_per_distinction(self):
        report = run(parse_request(example_request("copy-xor-10")))
        lines = render(report, "csv").strip().splitlines()
        assert len(lines) == 1 + 5  # header + 2 effects + 3 causes

    def test_text_table_layout(self):
        report = run(parse_request(example_request("copy-xor-10")))
        text = render(report, "text")
        assert text.splitlines()[0].split() == [
            "mechanism", "direction", "purview", "state", "phi", "mip", "ties"
        ]
        assert "10_AB" in text and "11_CD" in text

    def test_tied_states_are_pipe_separated(self):
        report = run(parse_request(example_request("copy-xor-10")))
        text = render(report, "text")
        assert "01_AB | 10_AB" in text

    def test_states_render_at_the_request_tolerance(self):
        """A trace off by 1e-7 passes a 1e-6 request, in every format."""
        data = {
            "backend": "quantum",
            "qubits": 1,
            "unitary": [[1, 0], [0, 1]],
            "state": {"kind": "density", "matrix": [[0.7, 0], [0, 0.3000001]]},
            "tolerance": 1e-6,
        }
        report = run(parse_request(data))
        assert len(report.distinctions) == 2
        for fmt in ("text", "csv"):
            assert render(report, fmt).count("mix[0.7*(|0>) ; 0.3*(|1>)]") == 2

    def test_empty_distinction_set_renders_header_only(self):
        data = {
            "backend": "classical",
            "unit_states": [2],
            "tpm": [[0.5, 0.5], [0.5, 0.5]],
            "state_t": [0],
            "state_t1": [0],
        }
        report = run(parse_request(data))
        assert report.distinctions == []
        assert render(report, "csv").strip().splitlines() == [
            "mechanism,direction,purview,state,phi,mip,ties"
        ]
        assert "no distinctions" in render(report, "text")

    def test_labels_past_z_are_fixed_width_letter_groups(self):
        """14 units need 28 labels: every label becomes two letters, A-Z counted in base 26."""
        effect = {
            "mechanism_units": [0, 13], "mechanism_state": [1, 0], "direction": "effect",
            "purview": [12, 13], "intrinsic_state": {"kind": "state", "vectors": [[1, 1]]},
            "phi": 0.5,
            "mip": {"parts": [{"mechanism": [0], "purview": [12]},
                              {"mechanism": [13], "purview": [13]}],
                    "normalization": 2},
            "ties": [{"type": "purview", "units": [13]}],
        }
        report = AnalysisReport(
            request={"unit_states": [2] * 14},
            distinctions=[effect, {**effect, "direction": "cause", "ties": []}],
            meta={"backend": "classical"},
        )
        assert render(report, "csv").splitlines()[1:] == [
            "10_AAAN,effect,BABB,11_BABB,0.5,[AA>BA | AN>BB] /2,BB",
            "10_AOBB,cause,AMAN,11_AMAN,0.5,[AO>AM | BB>AN] /2,-",
        ]
        text = render(report, "text").splitlines()
        assert text[2].split() == ["10_AAAN", "effect", "BABB", "11_BABB", "0.5",
                                   "[AA>BA", "|", "AN>BB]", "/2", "BB"]
        assert text[3].split()[:3] == ["10_AOBB", "cause", "AMAN"]

    def test_labels_up_to_13_units_are_single_letters(self):
        from mechphi.report import _units_label

        assert _units_label(range(13), 0, 13) == "ABCDEFGHIJKLM"
        assert _units_label(range(13), 1, 13) == "NOPQRSTUVWXYZ"
        assert _units_label([0, 1], 1, 2) == "CD"

    def test_unknown_format_rejected(self):
        report = AnalysisReport(request={}, distinctions=[], meta={"backend": "classical"})
        with pytest.raises(ValidationError, match="format"):
            render(report, "yaml")

    def test_infinite_phi_serialization(self):
        from mechphi.report import _phi_value

        assert _phi_value(math.inf) == "inf"
        assert _phi_value(1.0) == 1.0


class TestCli:
    def test_example_text(self, capsys):
        assert main(["example", "cnot-10"]) == 0
        out = capsys.readouterr().out
        assert "|10>" in out and "effect" in out

    def test_list_examples(self, capsys):
        assert main(["list-examples"]) == 0
        out = capsys.readouterr().out
        for name in EXAMPLES:
            assert name in out

    def test_analyze_file_json_to_output_path(self, tmp_path, capsys):
        req_file = tmp_path / "req.json"
        req_file.write_text(json.dumps(example_request("cnot-bell")))
        out_file = tmp_path / "report.json"
        code = main(["analyze", str(req_file), "--format", "json",
                     "--out", str(out_file)])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert len(payload["distinctions"]) == 2
        assert all(abs(d["phi"] - 2.0) < 1e-9 for d in payload["distinctions"])

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        req_file = tmp_path / "bad.json"
        bad = example_request("copy-xor-10")
        bad["tpm"][0][0] = 0.5
        req_file.write_text(json.dumps(bad))
        assert main(["analyze", str(req_file)]) == 2
        assert "row 0" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["copy-xor-10", "cnot-10"])
    def test_empty_mechanism_rejected_at_parse(self, name, tmp_path, capsys):
        """Both backends reject an empty mechanism with one message, before any analysis."""
        req_file = tmp_path / "req.json"
        req_file.write_text(json.dumps({**example_request(name), "mechanisms": [[0], []]}))
        assert main(["analyze", str(req_file)]) == 2
        assert capsys.readouterr().err == "error: mechanisms[1]: mechanism must be nonempty\n"

    def test_validate_command(self, tmp_path, capsys):
        req_file = tmp_path / "req.json"
        req_file.write_text(json.dumps(example_request("w-identity")))
        assert main(["validate", str(req_file)]) == 0
        assert "OK: quantum" in capsys.readouterr().out

    def test_unknown_example(self, capsys):
        assert main(["example", "nope"]) == 2
        assert "unknown example" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["analyze", "/does/not/exist.json"]) == 2

    def test_unexpected_exception_is_one_line_with_exit_code_4(self, monkeypatch, capsys):
        def broken_run(request):
            raise RuntimeError("broken\nacross lines")

        monkeypatch.setattr("mechphi.cli.run", broken_run)
        assert main(["example", "cnot-10"]) == 4
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: broken across lines\n"
        assert "Traceback" not in err

    def test_direction_and_mechanism_flags(self, capsys):
        assert main(["example", "cnot-10", "--direction", "effect",
                     "--mechanisms", "0", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # header + the single first-order effect
