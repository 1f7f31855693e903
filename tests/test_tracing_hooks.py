"""The names the benchmark tracer patches must exist on privlin.

perfbench/tracing.py wraps privlin functions by (module, attribute); a
rename or removal on the privlin side would crash every traced run. The
table is read from the file's source, not imported or executed.
"""

import ast
import importlib
from pathlib import Path

import privlin

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def patch_table():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "PATCH_TABLE"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PATCH_TABLE in {TRACING}")


def test_every_patched_name_resolves():
    table = patch_table()
    assert len(table) > 10
    missing = []
    for span, targets in table:
        for module_name, attr in targets:
            module = importlib.import_module(f"privlin.{module_name}")
            if not callable(getattr(module, attr, None)):
                missing.append(f"{span}: privlin.{module_name}.{attr}")
    assert missing == []


def test_patched_methods_exist():
    assert callable(privlin.mechanisms.PrivatePredictor.predict)
    assert callable(privlin.accounting.BudgetState.consume)
