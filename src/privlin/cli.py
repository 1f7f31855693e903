"""Command-line surface: train, predict, sweep, verify."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from .accounting import CalibrationError, DpSgdConfig, PrivacySpec
from .bench import SweepConfig, emit_csv, emit_summary_csv, run_sweep, summarize
from .data import (load_csv, load_idx, normalize_unit_ball, project_to_unit_ball, synth_blobs_raw,
                   synth_settings)
from .mechanisms import (
    KINDS,
    MechanismSpec,
    answer_queries,
    fit_predictor,
    load_predictor,
    save_predictor,
)
from .noise import RngStream
from .trainer import ConvergenceError
from .verify import run_verification


def _parse_synth(text: str) -> dict:
    out = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        if not value:
            raise ValueError(f"synth spec items must look like key=value, got {item!r}")
        key = key.strip()
        if key in out:
            raise ValueError(f"synth key {key!r} is given more than once")
        out[key] = float(value)
    return out


def _load_training_data(args):
    idx = args.idx_images or args.idx_labels
    if sum(map(bool, (args.synth, idx, args.csv))) != 1:
        raise ValueError("provide exactly one of --synth, --idx-images/--idx-labels, or --csv")
    if args.synth:
        raw = synth_blobs_raw(**synth_settings(_parse_synth(args.synth)),
                              rng=RngStream(args.seed, 1))
    elif idx:
        if not (args.idx_images and args.idx_labels):
            raise ValueError("--idx-images and --idx-labels must be given together")
        raw = load_idx(args.idx_images, args.idx_labels)
    else:
        raw = load_csv(args.csv)
    return normalize_unit_ball(raw)


def _cmd_train(args) -> int:
    data = _load_training_data(args)
    privacy = PrivacySpec(epsilon=args.epsilon, delta=args.delta, budget=args.budget)
    dpsgd = None
    if args.mechanism == "dpsgd":
        batch = min(args.batch, data.n_examples)
        dpsgd = DpSgdConfig.for_dataset(data.n_examples, batch, args.steps,
                                        args.clip, args.lr)
    spec = MechanismSpec(kind=args.mechanism, privacy=privacy, lam=args.lam,
                         n_models=args.models, dpsgd=dpsgd,
                         grad_tolerance=args.grad_tol, max_iterations=args.max_iter)
    predictor = fit_predictor(data, spec, RngStream(args.seed, 0))
    save_predictor(args.out, predictor)
    # The targets, then the noise the predictor was built with.
    report = {"mechanism": spec.kind, **asdict(privacy), "lambda": spec.lam,
              "n_train": data.n_examples, "n_classes": data.n_classes,
              **(asdict(dpsgd) if dpsgd else {}), **asdict(predictor.calibration)}
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"saved predictor to {args.out}")
    return 0


def _read_query_rows(path) -> np.ndarray:
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    header = None
    if rows:
        try:
            float(rows[0][0])
        except ValueError:
            header, rows = rows[0], rows[1:]
    if not rows:
        raise ValueError(f"{path}: no rows")
    table = np.asarray(rows, dtype=np.float64)
    if header is not None and header[-1] == "label":
        table = table[:, :-1]
    return table


def _cmd_predict(args) -> int:
    predictor = load_predictor(args.model)
    # Queries must lie in the unit ball; project any that do not.
    queries = project_to_unit_ball(_read_query_rows(args.inputs))

    # Answer the rows the budget covers and refuse the rest.
    n_answered = len(queries) if predictor.budget is None else min(
        len(queries), predictor.budget.remaining)
    labels = answer_queries(predictor, queries[:n_answered])
    if KINDS[predictor.kind].prediction_side:
        # Record the spend and noise-stream position before any answer leaves.
        save_predictor(args.model, predictor)
    lines = ["index,status,label"]
    lines += [f"{i},answered,{label}" for i, label in enumerate(labels)]
    lines += [f"{i},refused," for i in range(n_answered, len(queries))]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config) as handle:
        cfg = SweepConfig.from_json(handle.read())
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    cfg = replace(cfg, **overrides)
    records = run_sweep(cfg, threads=args.threads)
    emit_csv(records, args.out)
    print(f"wrote {len(records)} trial records to {args.out}")
    if args.summary_out:
        emit_summary_csv(summarize(records), args.summary_out)
        print(f"wrote summary to {args.summary_out}")
    failures = sum(1 for r in records if r.error is not None)
    if failures:
        print(f"{failures} trial(s) failed; their rows carry accuracy=nan")
    return 0


def _cmd_verify(_args) -> int:
    return 0 if run_verification() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privlin",
        description="Differentially private training and prediction for linear models.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one private predictor and serialize it")
    train.add_argument("--mechanism", required=True, choices=list(KINDS))
    train.add_argument("--synth", help="synthetic blobs, e.g. "
                                       "n_per_class=200,n_classes=4,dim=12,separation=3.0")
    train.add_argument("--idx-images")
    train.add_argument("--idx-labels")
    train.add_argument("--csv")
    train.add_argument("--epsilon", type=float, default=1.0)
    train.add_argument("--delta", type=float, default=0.0)
    train.add_argument("--budget", type=int, default=100)
    train.add_argument("--lam", type=float, default=0.01)
    train.add_argument("--models", type=int, default=256, help="ensemble size T")
    train.add_argument("--clip", type=float, default=0.1, help="dpsgd gradient clip")
    train.add_argument("--batch", type=int, default=64,
                       help="expected dpsgd batch size; each row joins a step "
                            "with probability batch/N")
    train.add_argument("--steps", type=int, default=200, help="dpsgd update count")
    train.add_argument("--lr", type=float, default=1.0, help="dpsgd learning rate")
    train.add_argument("--grad-tol", type=float, default=1e-8)
    train.add_argument("--max-iter", type=int, default=500, help="Newton iterations")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True)
    train.set_defaults(func=_cmd_train)

    predict = sub.add_parser("predict", help="answer queries from a serialized predictor")
    predict.add_argument("--model", required=True)
    predict.add_argument("--inputs", required=True, help="CSV of feature rows")
    predict.add_argument("--out", help="answers CSV (stdout when omitted)")
    predict.set_defaults(func=_cmd_predict)

    sweep = sub.add_parser("sweep", help="run a config-file sweep and emit CSV")
    sweep.add_argument("--config", required=True, help="SweepConfig JSON file")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--summary-out")
    sweep.add_argument("--trials", type=int)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--threads", type=int, default=1)
    sweep.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser("verify", help="run the invariant suites")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CalibrationError, ConvergenceError, OSError) as exc:  # one line, exit 2
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
