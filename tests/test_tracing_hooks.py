"""The names the benchmark tracer patches must exist on privlin and be called,
and every name the benchmark reads off privlin must resolve.

perfbench/tracing.py wraps privlin functions by (module, attribute); a
rename or removal on the privlin side would crash every traced run, and a
call that moves to another module would silently report 0 for its span. The
table and the names are read from the files' source, not imported or executed.
"""

import ast
import importlib
import operator
from pathlib import Path

import privlin
from privlin import KINDS, MechanismSpec, PrivacySpec, RngStream, SweepConfig, synth_blobs

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


def privlin_chains():
    """Every attribute chain that perfbench/*.py reads off privlin, as the name
    `pl` or `privlin` or an attribute `.privlin`, with the files that read it."""
    chains = {}
    for path in sorted(TRACING.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            parts = []
            while isinstance(node, ast.Attribute) and node.attr != "privlin":
                parts.append(node.attr)
                node = node.value
            rooted = (isinstance(node, ast.Name) and node.id in ("pl", "privlin")
                      or isinstance(node, ast.Attribute))
            if parts and rooted:
                chains.setdefault(".".join(reversed(parts)), set()).add(path.name)
    return chains


def test_every_name_perfbench_reads_resolves():
    chains = privlin_chains()
    assert len(chains) > 20 and "erm_objective" in chains
    missing = []
    for chain, files in chains.items():
        try:
            operator.attrgetter(chain)(privlin)
        except AttributeError:
            missing.append(f"privlin.{chain} ({', '.join(sorted(files))})")
    assert missing == []


def test_patched_methods_exist():
    assert callable(privlin.mechanisms.PrivatePredictor.predict)
    assert callable(privlin.accounting.BudgetState.consume)


# Spans whose patch sites no privlin code calls: the solver reaches the
# objective through losses.objective_gradient, and no dense Hessian is built.
DEAD_SPANS = {"losses.objective", "losses.mc_logistic_hessian"}


def test_every_patched_name_is_called(monkeypatch):
    calls = {}

    def counted(span, fn):
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)
        return wrapper

    for span, targets in patch_table():
        calls[span] = 0
        for module_name, attr in targets:
            module = importlib.import_module(f"privlin.{module_name}")
            monkeypatch.setattr(module, attr, counted(span, getattr(module, attr)))

    cfg = SweepConfig(mechanisms=tuple(KINDS), deltas=(0.0, 1e-5), budgets=(3,),
                      n_models=(4,), trials=1, base_seed=5, dpsgd_batch=8, dpsgd_steps=5,
                      synth={"n_per_class": 20, "n_classes": 3, "dim": 5, "separation": 3.0,
                             "n_test_per_class": 5})
    records = privlin.bench.run_sweep(cfg)
    failed = {(r.mechanism, r.delta) for r in records if r.error is not None}
    assert failed == {("dpsgd", 0.0)}  # DP-SGD has no delta = 0 variant
    data = synth_blobs(20, 3, 5, 3.0, RngStream(6))
    for kind in (kind for kind, entry in KINDS.items() if entry.prediction_side):
        spec = MechanismSpec(kind=kind, privacy=PrivacySpec(1.0, 1e-5, 4), lam=0.1,
                             n_models=4)
        predictor = privlin.mechanisms.fit_predictor(data, spec, RngStream(7))
        predictor.predict(data.features[0])
        privlin.mechanisms.answer_queries(predictor, data.features[1:3])
    assert {span for span, n in calls.items() if n == 0} == DEAD_SPANS


def test_dpsgd_noise_is_drawn_through_the_patched_sampler(monkeypatch):
    # 300 steps span two sampler blocks, and each block draws its noise in one call.
    calls = []
    sampler = privlin.mechanisms.sample_gaussian
    monkeypatch.setattr(privlin.mechanisms, "sample_gaussian",
                        lambda *args: calls.append(args[0]) or sampler(*args))
    data = synth_blobs(20, 3, 5, 3.0, RngStream(8))
    cfg = privlin.DpSgdConfig.for_dataset(data.n_examples, 8, 300, clip=0.5)
    spec = MechanismSpec(kind="dpsgd", privacy=PrivacySpec(1.0, 1e-5), lam=0.1, dpsgd=cfg)
    privlin.mechanisms.fit_predictor(data, spec, RngStream(9))
    assert calls == [(256 * 5, 3), (44 * 5, 3)]
