"""Command-line front end: JSON in, JSON out.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import cohomology, etale, fields, lifting, verify, weyl, witt
from .errors import WittCalcError
from .fields import parse_field
from .witt import PfisterPresentation


def _load_payload(args) -> dict:
    if getattr(args, "input", None):
        with open(args.input) as fh:
            payload = json.load(fh)
    else:
        data = sys.stdin.read()
        payload = json.loads(data) if data.strip() else {}
    return fields.json_checked(payload, dict, "payload")


def _emit(obj, args) -> None:
    indent = getattr(args, "json_indent", None)
    print(json.dumps(obj, indent=indent, sort_keys=True))


def _field(args):
    return parse_field(args.field)


def _degree(args, payload, key: str = "d") -> int:
    if getattr(args, "degree", None) is not None:
        return args.degree
    if key in payload:
        return fields.json_checked(payload[key], int, key)
    raise WittCalcError("missing degree (use --degree or payload key 'd')")


# ---------------------------------------------------------------------------


def _cmd_form(args) -> int:
    payload = _load_payload(args)
    field = _field(args)
    op = args.op
    if op == "lambda":
        q = witt.form_from_json(payload["form"], field)
        out = witt.lambda_power(q, _degree(args, payload))
        _emit({"witt": witt.witt_to_json(out)}, args)
    elif op == "pfister":
        alphas = fields.json_checked(payload["alphas"], list, "alphas")
        out = witt.pfister(field, [fields.sq_from_json(a, field) for a in alphas])
        _emit({"witt": witt.witt_to_json(out)}, args)
    elif op == "diagonalize":
        g = witt.gram_from_json(payload["gram"], field)
        _emit({"form": witt.form_to_json(witt.diagonalize(g))}, args)
    elif op == "eq":
        a = witt.witt_from_json(payload["a"], field)
        b = witt.witt_from_json(payload["b"], field)
        _emit({"equal": witt.witt_eq(a, b)}, args)
    elif op == "filtration":
        w = witt.witt_from_json(payload["witt"], field)
        cap = fields.json_checked(payload.get("cap", 8), int, "cap")
        _emit({"degree": witt.filtration_degree(w, cap)}, args)
    return 0


def _cmd_coh(args) -> int:
    payload = _load_payload(args)
    field = _field(args)
    op = args.op
    if op in ("sw", "sw-mod"):
        q = witt.form_from_json(payload["form"], field)
        fn = cohomology.sw if op == "sw" else cohomology.sw_mod
        out = fn(q, _degree(args, payload))
        _emit({"coh": cohomology.coh_to_json(out)}, args)
    elif op == "e-map":
        spec = fields.json_checked(payload["pfister"], dict, "pfister")
        terms = []
        for t, k in witt.terms_from_json(spec["terms"]):
            gens = fields.json_checked(t["gens"], list, "gens")
            terms.append((k, tuple(fields.sq_from_json(g, field) for g in gens)))
        degree = fields.json_checked(spec["degree"], int, "degree")
        p = PfisterPresentation(field, degree, tuple(terms))
        _emit({"coh": cohomology.coh_to_json(cohomology.e_map(p))}, args)
    elif op == "is-zero":
        c = cohomology.coh_from_json(payload["coh"], field)
        _emit({"zero": cohomology.is_zero(c)}, args)
    elif op == "cup":
        a = cohomology.coh_from_json(payload["a"], field)
        b = cohomology.coh_from_json(payload["b"], field)
        _emit({"coh": cohomology.coh_to_json(cohomology.cup(a, b))}, args)
    return 0


def _cmd_etale(args) -> int:
    payload = _load_payload(args)
    field = _field(args)
    if args.op == "trace-form":
        alg = etale.etale_from_json(payload["algebra"], field)
        _emit({"form": witt.form_to_json(etale.trace_form(alg))}, args)
    else:  # pair-trace-form
        pair = etale.pair_from_json(payload["pair"])
        _emit(
            {"form": witt.form_to_json(etale.quadratic_layer_trace_form(pair))}, args
        )
    return 0


def _cmd_weyl(args) -> int:
    payload = _load_payload(args)
    inv = args.invariant
    if inv == "g2":
        t2 = weyl.torsor_from_json(payload["t2"])
        t3 = weyl.torsor_from_json(payload["t3"])
        rows = weyl.eval_g2_basis(t2, t3)
        _emit({"basis": [witt.witt_to_json(w) for w in rows]}, args)
        return 0
    t = weyl.torsor_from_json(payload["torsor"])
    if inv == "aK":
        _emit({"form": witt.form_to_json(weyl.eval_aK(t))}, args)
    elif inv == "aL":
        _emit({"form": witt.form_to_json(weyl.eval_aL(t))}, args)
    elif inv == "r":
        _emit({"form": witt.form_to_json(weyl.eval_r(t))}, args)
    else:
        d = _degree(args, payload)
        fn = {"u": weyl.eval_u, "v": weyl.eval_v, "vprime": weyl.eval_v_prime}[inv]
        _emit({"coh": cohomology.coh_to_json(fn(t, d))}, args)
    return 0


def _cmd_lift(args) -> int:
    payload = _load_payload(args)
    target = lifting.table_from_json(payload["target"])
    gens = fields.json_checked(payload["generators"], list, "generators")
    gens = [lifting.table_from_json(t) for t in gens]
    n0 = fields.json_checked(payload.get("n0", 4), int, "n0") if args.n0 is None else args.n0
    dec = lifting.decompose(target, gens, n0)
    _emit(
        {
            "coefficients": [witt.witt_to_json(c) for c in dec.coefficients],
            "constant": witt.witt_to_json(dec.constant),
            "residual_ok": dec.residual_ok,
        },
        args,
    )
    return 0


def _cmd_verify(args) -> int:
    t0 = time.monotonic()
    reports = verify.run_suite(args.suite, args.seed)
    elapsed = time.monotonic() - t0
    _emit({"reports": reports, "seconds": round(elapsed, 3)}, args)
    return 0 if all(r["passed"] for r in reports) else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="wittcalc")
    top.add_argument("--json-indent", type=int, default=None)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", default="q")
        p.add_argument("--input", default=None)
        p.add_argument("--degree", "-d", type=int, default=None)

    p = sub.add_parser("form")
    p.add_argument("op", choices=["lambda", "pfister", "diagonalize", "eq", "filtration"])
    common(p)
    p.set_defaults(fn=_cmd_form)

    p = sub.add_parser("coh")
    p.add_argument("op", choices=["sw", "sw-mod", "e-map", "is-zero", "cup"])
    common(p)
    p.set_defaults(fn=_cmd_coh)

    p = sub.add_parser("etale")
    p.add_argument("op", choices=["trace-form", "pair-trace-form"])
    common(p)
    p.set_defaults(fn=_cmd_etale)

    p = sub.add_parser("weyl")
    p.add_argument("op", choices=["eval"])
    p.add_argument("--invariant", required=True, choices=["aK", "aL", "u", "v", "vprime", "r", "g2"])
    common(p)
    p.set_defaults(fn=_cmd_weyl)

    p = sub.add_parser("lift")
    p.add_argument("op", choices=["decompose"])
    p.add_argument("--input", default=None)
    p.add_argument("--n0", type=int, default=None)
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("verify")
    p.add_argument(
        "--suite",
        default="all",
        choices=sorted(verify.SUITES) + ["all"],
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)
    return top


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (WittCalcError, json.JSONDecodeError, KeyError, OSError, ValueError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
