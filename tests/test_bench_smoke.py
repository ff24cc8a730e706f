"""Round 0 of the in-process benchmark workloads, with their own answer checks.

perfbench/workloads.py calls the program through its module attributes and
checks each answer against an oracle computed apart from wittcalc; running one
round here shows a removed name or a changed answer before a benchmark run does.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports oracles by name
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    module.import_program()
    return module


@pytest.mark.parametrize("name", ["q-arith", "formal-lift"])
def test_round_zero_answers_pass_their_checks(workloads, name):
    build = workloads.q_arith_round if name == "q-arith" else workloads.formal_lift_round
    ops = build(3, 0)
    raised, wrong = [], []
    for op in ops:
        try:
            result = op.run()
        except Exception as exc:
            raised.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            continue
        if not op.check(result):
            wrong.append(op.kind)
    assert ops and not raised and not wrong, (raised, wrong)
