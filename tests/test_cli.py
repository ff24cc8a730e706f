import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wittcalc import cli
from wittcalc.fields import formal, generator, rationals
from wittcalc.lifting import EvaluationTable, table_to_json
from wittcalc.weyl import BN, lift_u, torsor_to_json, wreath
from wittcalc.sampling import random_torsor, trivial_torsor
from wittcalc.witt import (
    diagonal,
    form_from_json,
    from_diagonal,
    pfister,
    witt_eq,
    witt_from_json,
    witt_int_scale,
    witt_mul,
    witt_sub,
)

Q = rationals()


def run_json(capsys, argv, payload=None, tmp_path=None):
    args = list(argv)
    if payload is not None:
        f = tmp_path / "in.json"
        f.write_text(json.dumps(payload))
        args += ["--input", str(f)]
    code = cli.run(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_form_lambda(capsys, tmp_path):
    payload = {"form": [2, 3, 5]}
    code, out, _ = run_json(
        capsys, ["form", "lambda", "--degree", "2"], payload, tmp_path
    )
    assert code == 0
    got = witt_from_json(json.loads(out)["witt"], Q)
    assert witt_eq(got, from_diagonal(diagonal(Q, [6, 10, 15])))


def test_form_eq(capsys, tmp_path):
    payload = {
        "a": [{"class": 2, "coeff": 2}],
        "b": [{"class": 1, "coeff": 2}],
    }
    code, out, _ = run_json(capsys, ["form", "eq"], payload, tmp_path)
    assert code == 0
    assert json.loads(out) == {"equal": True}


def test_coh_sw(capsys, tmp_path):
    payload = {"form": [2, 3], "d": 2}
    code, out, _ = run_json(capsys, ["coh", "sw"], payload, tmp_path)
    assert code == 0
    coh = json.loads(out)["coh"]
    assert coh["degree"] == 2
    assert coh["symbols"] == [[2, 3]]


def test_etale_trace_form(capsys, tmp_path):
    payload = {
        "algebra": [{"type": "poly", "coeffs": [-5, 0, 1]}]
    }
    code, out, _ = run_json(capsys, ["etale", "trace-form"], payload, tmp_path)
    assert code == 0
    form = form_from_json(json.loads(out)["form"], Q)
    assert [e.data for e in form.entries] == [2, 10]


def test_weyl_eval_u_trivial(capsys, tmp_path):
    payload = {"torsor": torsor_to_json(trivial_torsor(Q, BN, 2))}
    code, out, _ = run_json(
        capsys, ["weyl", "eval", "--invariant", "u", "--degree", "1"], payload, tmp_path
    )
    assert code == 0
    assert json.loads(out)["coh"]["symbols"] == []


def test_verify_suite(capsys):
    code, out, _ = run_json(capsys, ["verify", "--suite", "trace-oracle"])
    assert code == 0
    rep = json.loads(out)["reports"]
    assert rep[0]["passed"] and rep[0]["cases"] > 0


def test_malformed_input(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code = cli.run(["form", "eq", "--input", str(f)])
    out = capsys.readouterr()
    assert code == 2
    err = json.loads(out.err)
    assert "error" in err and "message" in err


def test_missing_key_is_input_error(capsys, tmp_path):
    code, _, err = run_json(capsys, ["form", "lambda", "-d", "1"], {}, tmp_path)
    assert code == 2
    assert json.loads(err)["error"] == "KeyError"


def test_bad_argument_exit_code(capsys):
    assert cli.run(["form", "no-such-op"]) == 2
    capsys.readouterr()


def test_output_is_deterministic(capsys, tmp_path):
    payload = {"form": [30, -7], "d": 1}
    runs = []
    for _ in range(2):
        code, out, _ = run_json(capsys, ["coh", "sw"], payload, tmp_path)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    json.loads(runs[0])  # emitted text is valid JSON


def test_json_indent_flag(capsys, tmp_path):
    payload = {
        "a": [{"class": 1, "coeff": 1}],
        "b": [{"class": 1, "coeff": 1}],
    }
    code, out, _ = run_json(
        capsys, ["--json-indent", "2", "form", "eq"], payload, tmp_path
    )
    assert code == 0
    assert out.startswith("{\n")


def test_non_object_payload_is_input_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[1, 2]"))
    code = cli.run(["form", "lambda"])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["error"] == "InvalidInput"


def test_ordering_cap_is_input_error(tmp_path):
    # 2^40 orderings: refused up front, not enumerated
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"witt": [{"class": {"neg": False, "gens": [0]}, "coeff": 1}]}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["form", "filtration", "--field", "formal:40", "--input", str(f)]
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-m", "wittcalc.cli", *argv],
        env=env, capture_output=True, text=True, timeout=1,
    )
    assert time.monotonic() - t0 < 1
    assert out.returncode == 2
    assert json.loads(out.stderr)["error"] == "OrderingLimitExceeded"


def test_decompose_cost_does_not_grow_with_n0(capsys, tmp_path):
    # once the residual vanishes no later degree peels anything, so n0 = 100000
    # answers at once, and as n0 = 4 does
    f = formal(2)
    t = random_torsor(random.Random(0), f, BN, 2, 2)
    gens = [EvaluationTable((t,), (lift_u(t, d),), d) for d in range(3)]
    t1 = pfister(f, [generator(f, 0)])
    value = witt_sub(witt_int_scale(3, lift_u(t, 0)), witt_mul(t1, lift_u(t, 1)))
    payload = {
        "target": table_to_json(EvaluationTable((t,), (value,), 0)),
        "generators": [table_to_json(tab) for tab in gens],
    }
    code, want, _ = run_json(capsys, ["lift", "decompose"], {**payload, "n0": 4}, tmp_path)
    assert code == 0
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**payload, "n0": 100000}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "wittcalc.cli", "lift", "decompose", "--input", str(path)],
        env=env, capture_output=True, text=True, timeout=5,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == want


def test_cli_import_leaves_numpy_out():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, wittcalc.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["form", "eq"], {"a": [2], "b": []}),
        (["form", "eq"], {"a": {"class": 2}, "b": []}),
        (["form", "eq"], {"a": [{"class": 2, "coeff": 1.5}], "b": []}),
        (["form", "eq"], {"a": [{"class": 2, "coeff": True}], "b": []}),
        (["coh", "e-map"], {"pfister": {"degree": 1, "terms": [{"coeff": 1.5, "gens": [2]}]}}),
    ],
)
def test_malformed_witt_terms_are_input_errors(capsys, tmp_path, argv, payload):
    code, out, err = run_json(capsys, argv, payload, tmp_path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInput"


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["form", "lambda"], {"form": 5, "d": 1}),
        (["coh", "sw"], {"form": 5, "d": 1}),
        (["form", "diagonalize"], {"gram": 5}),
        (["form", "diagonalize"], {"gram": [5]}),
        (["form", "pfister"], {"alphas": 5}),
        (["form", "pfister", "--field", "formal:3"], {"alphas": [{"gens": 5}]}),
        (["form", "pfister", "--field", "formal:3"], {"alphas": [{"gens": ["a"]}]}),
        (["coh", "is-zero"], {"coh": 5}),
        (["coh", "is-zero"], {"coh": {"degree": 2, "symbols": 5}}),
        (["coh", "is-zero"], {"coh": {"degree": 2, "symbols": [5]}}),
        (["coh", "cup"], {"a": 5, "b": {"degree": 1, "symbols": [[2]]}}),
        (["coh", "e-map"], {"pfister": 5}),
        (["coh", "e-map"], {"pfister": {"degree": 1, "terms": [{"coeff": 1, "gens": 5}]}}),
    ],
)
def test_malformed_payload_shapes_are_input_errors(capsys, tmp_path, argv, payload):
    code, out, err = run_json(capsys, argv, payload, tmp_path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInput"


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", None])
@pytest.mark.parametrize(
    "argv, payload",
    [
        (["form", "lambda"], {"form": [2, 3], "d": "BAD"}),
        (["form", "filtration", "--field", "r"], {"witt": [{"class": "+", "coeff": 4}], "cap": "BAD"}),
        (["coh", "e-map"], {"pfister": {"degree": "BAD", "terms": [{"coeff": 1, "gens": [2]}]}}),
        (["coh", "is-zero"], {"coh": {"degree": "BAD", "symbols": [[2]]}}),
        (["lift", "decompose"], {"target": {"samples": [], "values": [], "degree": "BAD"}}),
        (
            ["lift", "decompose"],
            {"target": {"samples": [], "values": [], "degree": 0}, "generators": [], "n0": "BAD"},
        ),
    ],
)
def test_integer_fields_are_checked(capsys, tmp_path, argv, payload, bad):
    # a float is not truncated and a bool is not read as 0 or 1
    text = json.dumps(payload).replace('"BAD"', json.dumps(bad))
    code, out, err = run_json(capsys, argv, json.loads(text), tmp_path)
    assert code == 2 and out == ""
    err = json.loads(err)
    assert err["error"] == "InvalidInput" and "must be an integer" in err["message"]


_TORSOR = {"field": "q", "d": [], "target": {"type": "bn", "n": 1}, "images": []}
_TABLE = {"samples": [], "values": [], "degree": 0}
_AK = ["weyl", "eval", "--invariant", "aK"]


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["lift", "decompose"], {"target": 5, "generators": []}),
        (["lift", "decompose"], {"target": {**_TABLE, "samples": 5}, "generators": []}),
        (["lift", "decompose"], {"target": {**_TABLE, "samples": [5]}, "generators": []}),
        (["lift", "decompose"], {"target": {**_TABLE, "values": 5}, "generators": []}),
        (
            ["lift", "decompose"],
            {"target": {**_TABLE, "values": [[{"class": 2, "coeff": 1}]]}, "generators": []},
        ),
        (["lift", "decompose"], {"target": _TABLE, "generators": 5}),
        (["lift", "decompose"], {"target": _TABLE, "generators": [5]}),
        (_AK, {"torsor": 5}),
        (_AK, {"torsor": {**_TORSOR, "field": 5}}),
        (_AK, {"torsor": {**_TORSOR, "d": 5}}),
        (_AK, {"torsor": {**_TORSOR, "target": 5}}),
        (_AK, {"torsor": {**_TORSOR, "target": {"type": "bn", "n": None}}}),
        (_AK, {"torsor": {**_TORSOR, "images": 5}}),
        (_AK, {"torsor": {**_TORSOR, "d": [2], "images": [5]}}),
        (_AK, {"torsor": {**_TORSOR, "d": [2], "images": [{"perm": 5}]}}),
        (_AK, {"torsor": {**_TORSOR, "d": [2], "images": [{"perm": ["a", 1]}]}}),
        (_AK, {"torsor": {**_TORSOR, "d": [2], "images": [{"perm": [1], "flips": [None]}]}}),
        (["weyl", "eval", "--invariant", "g2"], {"t2": 5, "t3": 5}),
        (["etale", "pair-trace-form"], {"pair": 5}),
        (["etale", "pair-trace-form"], {"pair": {"base": 5, "deltas": []}}),
        (["etale", "pair-trace-form"], {"pair": {"base": [], "deltas": 5}}),
        (["etale", "pair-trace-form"], {"pair": {"base": [], "deltas": [5]}}),
        (
            ["etale", "pair-trace-form"],
            {"pair": {"base": [{"type": "poly", "coeffs": [-2, 0, 1]}], "deltas": [[None]]}},
        ),
        (["etale", "trace-form"], {"algebra": 5}),
        (["etale", "trace-form"], {"algebra": [{"type": "poly", "coeffs": 5}]}),
        (["etale", "trace-form"], {"algebra": [{"type": "poly", "coeffs": [1.5, 1]}]}),
        (["etale", "trace-form"], {"algebra": [{"type": "multiquadratic", "classes": 5}]}),
        (["form", "diagonalize"], {"gram": [[None]]}),
        (["form", "diagonalize"], {"gram": [[1e400]]}),
        (["form", "diagonalize"], {"gram": [[1.5]]}),
        (["form", "diagonalize"], {"gram": [[True]]}),
        (["form", "diagonalize"], {"gram": [["1/0"]]}),
        (["form", "diagonalize"], {"gram": [["abc"]]}),
    ],
)
def test_reader_shapes_are_input_errors(capsys, tmp_path, argv, payload):
    code, out, err = run_json(capsys, argv, payload, tmp_path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInput"


@pytest.mark.parametrize(
    "argv, payload, error",
    [
        (["form", "lambda"], {"form": [True, 3], "d": 1}, "BadBackend"),
        (["form", "lambda", "--field", "fp:7"], {"form": [False, 1], "d": 1}, "BadBackend"),
        (["form", "eq"], {"a": [{"class": True, "coeff": 1}], "b": []}, "BadBackend"),
        (["form", "pfister", "--field", "formal:3"], {"alphas": [{"neg": "yes"}]}, "InvalidInput"),
        (["form", "pfister", "--field", "formal:3"], {"alphas": [{"neg": 1}]}, "InvalidInput"),
        (["form", "pfister", "--field", "formal:3"], {"alphas": [{"neg": None}]}, "InvalidInput"),
    ],
)
def test_square_classes_refuse_bools_and_non_bool_neg(capsys, tmp_path, argv, payload, error):
    # a bool is not an integer class, and only a bool is a neg flag
    code, out, err = run_json(capsys, argv, payload, tmp_path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize(
    "invariant, kind, n, error",
    [
        ("r", "dn", 0, "InvalidInput"),
        ("r", "dn", -2, "InvalidInput"),
        ("r", "dn", 40, "DegreeOutOfRange"),
        ("aK", "bn", 0, "InvalidInput"),
        ("aK", "bn", -2, "InvalidInput"),
    ],
)
def test_torsor_sizes_are_checked(capsys, tmp_path, invariant, kind, n, error):
    # torsors without images; 2^39 D_40 cosets are refused before any is built
    payload = {"torsor": {**_TORSOR, "target": {"type": kind, "n": n}}}
    code, out, err = run_json(capsys, ["weyl", "eval", "--invariant", invariant], payload, tmp_path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error


def test_gram_entries_are_integers_or_rational_strings(capsys, tmp_path):
    payload = {"gram": [["-3/4", 2], [2, "5"]]}
    code, out, _ = run_json(capsys, ["form", "diagonalize"], payload, tmp_path)
    assert code == 0
    # -3/4 then 5 - 2 * 2 / (-3/4) = 31/3
    assert json.loads(out)["form"] == [-3, 93]


def test_gram_over_fp_is_diagonalized_mod_p(capsys, tmp_path):
    # 7 is a nonzero rational pivot that vanishes mod 7
    argv = ["form", "diagonalize", "--field", "fp:7"]
    code, out, _ = run_json(capsys, argv, {"gram": [[7, 1], [1, 0]]}, tmp_path)
    assert code == 0
    assert json.loads(out)["form"] == [0, 1]
    code, out, err = run_json(capsys, argv, {"gram": [[1, 1], [1, 8]]}, tmp_path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DegenerateMatrix"


def test_coh_symbol_length_must_match_degree(capsys, tmp_path):
    payload = {"coh": {"degree": 2, "symbols": [[2]]}}
    code, out, err = run_json(capsys, ["coh", "is-zero", "--field", "q"], payload, tmp_path)
    assert code == 2 and out == ""
    err = json.loads(err)
    assert err["error"] == "DegreeOutOfRange"
    assert err["message"] == "symbol of length 1 in a degree-2 class"


def test_e_map_refuses_a_zero_factor_in_an_even_term(capsys, tmp_path):
    # e_map checks every term's factors, as PfisterPresentation.to_witt does
    payload = {"pfister": {"degree": 2, "terms": [{"coeff": 2, "gens": [2, 0]}]}}
    code, out, err = run_json(capsys, ["coh", "e-map", "--field", "q"], payload, tmp_path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ZeroElement"


def test_decompose_refuses_tables_over_two_fields(capsys, tmp_path):
    rng = random.Random(5)
    f3, f4 = formal(3), formal(4)
    t3, t4 = random_torsor(rng, f3, BN, 2, 1), random_torsor(rng, f4, BN, 2, 1)
    table = table_to_json(EvaluationTable((t3, t3), (lift_u(t3, 1), lift_u(t3, 1)), 1))
    table["samples"][1] = torsor_to_json(t4)
    payload = {"target": table, "generators": [table]}
    code, out, err = run_json(capsys, ["lift", "decompose"], payload, tmp_path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BackendMismatch"


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["coh", "cup", "--field", "q"], {"a": {"degree": -3, "symbols": []}, "b": {"degree": 1, "symbols": [[2]]}}),
        (["coh", "is-zero"], {"coh": {"degree": -1, "symbols": []}}),
        (["coh", "e-map"], {"pfister": {"degree": -1, "terms": []}}),
    ],
)
def test_negative_degrees_are_refused(capsys, tmp_path, argv, payload):
    code, out, err = run_json(capsys, argv, payload, tmp_path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DegreeOutOfRange"
