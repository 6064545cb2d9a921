"""Command-line entry point: fit, compress, decompress, budget, solve, eval,
tables.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings

from . import archive as ar
from . import budget as bd
from . import harness as hz
from . import labels as lb
from . import vqae as vq

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# reference accounting settings: target rate -> (d_h, d_c, k)
TABLE_SETTINGS = {
    10: (795, 5, 1024),
    20: (990, 15, 2048),
    30: (1000, 20, 1024),
    40: (1000, 25, 512),
    100: (1000, 50, 128),
    200: (1000, 100, 64),
}


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise _UsageExit


def _label_io(path):
    """A label file's (reader, writer): CSV for a ``.csv`` path, SLAB otherwise."""
    return ((lb.read_labels_csv, lb.write_labels_csv) if str(path).endswith(".csv")
            else (lb.read_slab, lb.write_slab))


def _load_labels(path):
    return _label_io(path)[0](path)


def _build_parser():
    parser = _Parser(prog="slvq", description="soft-label VQ compression toolkit")
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # main reads --config before parsing, wherever it sits; every parser accepts it
        p.add_argument("--config", help="JSON file with default flag values")
        p.add_argument("--seed", type=int, default=os.environ.get("SLVQ_SEED", "0"))
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("fit", help="train a codec on a label file")
    common(p)
    p.add_argument("--labels", required=True, help="label file (CSV if .csv, else SLAB)")
    p.add_argument("--out", required=True, help="output model file (.slvq)")
    p.add_argument("--d-h", type=int, required=True)
    p.add_argument("--d-c", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--steps", type=int, default=vq.TrainConfig.max_steps)
    p.add_argument("--batch-size", type=int, default=vq.TrainConfig.batch_size)
    p.add_argument("--alpha", type=float, default=vq.TrainConfig.alpha)
    p.add_argument("--beta", type=float, default=vq.TrainConfig.beta)
    p.add_argument("--lr", type=float, default=vq.TrainConfig.lr)
    p.add_argument("--weight-decay", type=float, default=vq.TrainConfig.weight_decay)
    p.add_argument("--epsilon", type=float, default=vq.TrainConfig.epsilon)
    p.add_argument("--gradient-mode", choices=vq.GRADIENT_MODES, default=vq.TrainConfig.gradient_mode)

    p = sub.add_parser("compress", help="compress labels with a fitted model")
    common(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output SLAR archive")

    p = sub.add_parser("decompress", help="reconstruct labels from an archive")
    common(p)
    p.add_argument("--archive", required=True)
    p.add_argument("--out", required=True, help="output label file (CSV if .csv, else SLAB)")

    p = sub.add_parser("budget", help="storage accounting for a budget spec")
    common(p)
    p.add_argument("--ipc", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--aug", type=int, default=1)
    p.add_argument("--d-h", type=int)
    p.add_argument("--d-c", type=int)
    p.add_argument("--k", type=int)

    p = sub.add_parser("solve", help="find (d_h, d_c, k) for a target ratio")
    common(p)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--ipc", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--aug", type=int, default=1)

    p = sub.add_parser("eval", help="desk-scale distillation comparison")
    common(p)
    p.add_argument("--classes", type=int, default=100)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--n-per-class", type=int, default=10)
    p.add_argument("--spread", type=float, default=1.5)
    p.add_argument("--views", type=int, default=4)
    p.add_argument("--jitter", type=float, default=0.3)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--d-h", type=int, default=50)
    p.add_argument("--d-c", type=int, default=5)
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--steps", type=int, default=vq.TrainConfig.max_steps)
    p.add_argument("--student-epochs", type=int, default=150)
    p.add_argument("--account-epochs", type=int, default=300,
                   help="epoch count used for the storage-ratio accounting")
    p.add_argument("--csv", help="append (codec, ratio, retention) rows here")

    p = sub.add_parser("tables", help="reproduce the storage accounting tables")
    common(p)

    return parser, sub


def _report_text(report: bd.StorageReport) -> str:
    d = report.as_dict()
    lines = [
        f"raw:        {d['raw_bytes']:>16,.0f} B  ({d['raw_gb']:.3f} GB)",
        f"compressed: {d['compressed_bytes']:>16,.0f} B  ({d['compressed_gb']:.3f} GB)",
        f"ratio:      {d['ratio']:.2f}x",
    ]
    for name, value in d["breakdown"].items():
        lines.append(f"  {name:<12} {value:>14,.0f} B")
    if not d["exact"]:
        lines.append("  (inexact: k is not a power of two)")
    return "\n".join(lines)


def _cmd_fit(args):
    labels = _load_labels(args.labels)
    config = vq.TrainConfig(alpha=args.alpha, beta=args.beta, lr=args.lr,
                            weight_decay=args.weight_decay,
                            batch_size=min(args.batch_size, labels.n),
                            max_steps=args.steps, seed=args.seed,
                            gradient_mode=args.gradient_mode, epsilon=args.epsilon)
    model, trace = vq.fit(labels, args.d_h, args.d_c, args.k, config)
    ar.write_model(model, args.out, args.gradient_mode, args.epsilon)
    summary = {"steps": len(trace), "final_loss": trace.loss_total[-1] if len(trace) else None,
               "final_rec_loss": trace.loss_rec[-1] if len(trace) else None,
               "model": args.out}
    return summary, (f"wrote {args.out} after {summary['steps']} steps "
                     f"(rec loss {summary['final_rec_loss']})")


def _cmd_compress(args):
    labels = _load_labels(args.labels)
    model, _, epsilon = ar.read_model(args.model)
    indices = vq.compress(labels, model)
    ar.write_archive(ar.vqae_archive(model, indices, epsilon), args.out)
    return ({"archive": args.out, "n": labels.n, "m": model.m},
            f"wrote {args.out} ({labels.n} labels, {model.m} indices each)")


def _cmd_decompress(args):
    arch = ar.read_archive(args.archive)
    labels = ar.decompress_vqae_archive(arch)
    _label_io(args.out)[1](labels, args.out)
    return ({"labels": args.out, "n": labels.n, "c": labels.c},
            f"wrote {args.out} ({labels.n} x {labels.c} labels)")


def _cmd_budget(args):
    spec = bd.BudgetSpec(args.ipc, args.classes, args.epochs, args.aug,
                         d_h=args.d_h, d_c=args.d_c, k=args.k)
    if (spec.d_h, spec.d_c, spec.k) != (None, None, None):   # vq_bytes rejects a partial set
        report = bd.vq_bytes(spec)
        return report.as_dict(), _report_text(report)
    raw = bd.raw_label_bytes(spec)
    out = {"raw_bytes": raw, "raw_gb": round(raw / bd.GIB, 3)}
    return out, f"raw: {raw:,} B  ({out['raw_gb']:.3f} GB)"


def _cmd_solve(args):
    spec = bd.BudgetSpec(args.ipc, args.classes, args.epochs, args.aug)
    (d_h, d_c, k), ratio = bd.solve_hyperparams(args.target, spec)
    return ({"d_h": d_h, "d_c": d_c, "k": k, "ratio": ratio},
            f"d_h={d_h} d_c={d_c} k={k}  (ratio {ratio:.3f}x, target {args.target}x)")


def _cmd_eval(args):
    # the budget and the fit config come first, so a bad accounting or fit flag trains nothing
    spec = bd.BudgetSpec(args.n_per_class, args.classes, args.account_epochs,
                         d_h=args.d_h, d_c=args.d_c, k=args.k)
    ratio = bd.compression_ratio(spec)
    config = vq.TrainConfig(max_steps=args.steps, seed=args.seed)
    task = hz.make_task(args.seed, args.dim, args.classes, args.n_per_class,
                        spread=args.spread)
    teacher = hz.train_teacher(task, seed=args.seed)
    labels = hz.cache_teacher_labels(teacher, task, views=args.views, tau=args.tau,
                                     jitter=args.jitter, seed=args.seed)
    config = dataclasses.replace(config, batch_size=min(config.batch_size, labels.n))
    model, _ = vq.fit(labels, args.d_h, args.d_c, args.k, config)
    reconstructed = vq.decompress(vq.compress(labels, model), model, config.epsilon)
    report = hz.compare(task, labels, reconstructed, ratio,
                        tau=args.tau, epochs=args.student_epochs, seed=args.seed,
                        codec_name="vqae")
    if args.csv:
        hz.write_retention_csv([report], args.csv)
    d = report.as_dict()
    return d, "\n".join(f"{key:>21}: {d[key]}" for key in
                        ("codec", "storage_ratio", "raw_accuracy", "compressed_accuracy",
                         "retention", "mean_kl"))


def _cmd_tables(args):
    ipcs = (10, 20, 50, 100)
    raw = {ipc: bd.raw_label_bytes(bd.BudgetSpec(ipc, 1000, 300)) / bd.GIB for ipc in ipcs}
    ours = {
        rate: {ipc: bd.vq_bytes(bd.BudgetSpec(ipc, 1000, 300, d_h=d_h, d_c=d_c, k=k))
                        .as_dict()["compressed_gb"]
               for ipc in ipcs}
        for rate, (d_h, d_c, k) in TABLE_SETTINGS.items()
    }
    lines = ["Soft label size without compression (GB, C=1000, 300 epochs)",
             "  " + "  ".join(f"IPC {ipc:>3}: {raw[ipc]:7.3f}" for ipc in ipcs),
             "\nCompressed size (GB) per rate setting",
             f"{'rate':>6} {'d_h':>5} {'d_c':>4} {'k':>5}" + "".join(f"  IPC {i:>3}" for i in ipcs)]
    for rate, (d_h, d_c, k) in TABLE_SETTINGS.items():
        lines.append(f"{rate:>5}x {d_h:>5} {d_c:>4} {k:>5}"
                     + "".join(f"  {ours[rate][ipc]:7.3f}" for ipc in ipcs))
    return ({"raw_gb": {str(i): round(v, 3) for i, v in raw.items()},
             "ours_gb": {str(r): {str(i): v for i, v in row.items()} for r, row in ours.items()}},
            "\n".join(lines))


_COMMANDS = {
    "fit": _cmd_fit,
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "budget": _cmd_budget,
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "tables": _cmd_tables,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sub = _build_parser()
    try:
        # --config is read first, in any form the parsers accept, so its values become defaults
        pre = _Parser(add_help=False)
        pre.add_argument("--config")
        cfg_path = pre.parse_known_args(argv)[0].config
        if cfg_path is not None:
            try:
                with open(cfg_path) as f:
                    defaults = json.load(f)
                if not isinstance(defaults, dict):
                    raise ValueError("not a JSON object")
            except (OSError, ValueError) as err:   # ValueError covers JSON and UTF-8 errors
                raise ValueError(f"cannot read config {cfg_path}: {err}") from None
            flags = {action.dest for command in sub.choices.values() for action in command._actions}
            if unknown := [key for key in defaults if key not in flags]:
                parser.error(f"config {cfg_path}: unrecognized keys: {', '.join(map(repr, unknown))}")
            # subcommand parsers re-apply their own defaults over the top-level
            # namespace, so the config must be pushed into each of them
            parser.set_defaults(**defaults)
            for command in sub.choices.values():
                command.set_defaults(**defaults)
        args = parser.parse_args(argv)
        if not lb._is_count(args.seed, 0):   # also a seed that --config set
            parser.error(f"argument --seed: need an integer >= 0, got {args.seed!r}")
        with warnings.catch_warnings():
            # budget's text ("inexact") and its JSON field "exact" report an inexact k
            warnings.filterwarnings("ignore", r"k=\d+ is not a power of two", UserWarning)
            result, text = _COMMANDS[args.command](args)
        print(json.dumps(result) if args.json else text)
        return EXIT_OK
    except _UsageExit:
        return EXIT_USAGE
    # every slvq data error is a ValueError; an OverflowError is a count too big for a float or C long
    except (ValueError, OverflowError, MemoryError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (vq.TrainingError, FloatingPointError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
