"""Command-line interface: ``python -m repro <command>``.

Commands
--------
compress      compress a ``.npy`` array to a ``.rz`` blob
decompress    reconstruct a ``.rz`` blob back to ``.npy``
info          show a blob's codec, header and section sizes
tune          run the CliZ auto-tuner and print the winning pipeline
assess        quality report: original vs reconstructed (Z-checker style)
dataset       generate one of the synthetic Table-III datasets
experiment    run one of the paper's experiment harnesses
sweep         kill-resumable experiment sweep (crash-consistent ledger)
obs           offline telemetry analysis (report / top / critical-path / diff)
codecs        list registered codecs

Examples
--------
::

    python -m repro dataset SSH --out ssh.npy --mask-out ssh_mask.npy
    python -m repro tune ssh.npy --rel-eb 1e-3 --mask ssh_mask.npy \\
        --time-axis 2 --horiz-axes 0,1
    python -m repro compress ssh.npy ssh.rz --codec cliz --rel-eb 1e-3 \\
        --mask ssh_mask.npy
    python -m repro decompress ssh.rz ssh_out.npy
    python -m repro assess ssh.npy ssh_out.npy --mask ssh_mask.npy
    python -m repro experiment headline

Telemetry
---------
``compress``, ``decompress`` and ``experiment`` take ``--profile``,
``--trace-out``, ``--metrics-out``, ``--chrome-out`` and
``--serve-metrics``; ``sweep`` takes ``--trace-out``, ``--metrics-out``
and ``--serve-metrics``. Any of them makes :func:`repro.obs.session`
start an obs run for the command (without one, no run starts), and the
session closes it on every exit: a command that raises still writes its
files, so a failed run leaves its trace.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _load_mask(path):
    if path is None:
        return None
    return np.load(path).astype(bool)


def _eb_kwargs(args) -> dict:
    if (args.rel_eb is None) == (args.abs_eb is None):
        raise SystemExit("specify exactly one of --rel-eb / --abs-eb")
    if args.rel_eb is not None:
        return {"rel_eb": args.rel_eb}
    return {"abs_eb": args.abs_eb}


# ------------------------------------------------------------------- #
def cmd_compress(args) -> int:
    from repro import compressor_for, obs

    data = np.load(args.input)
    mask = _load_mask(args.mask)
    kwargs = _eb_kwargs(args)
    faults = args.inject_faults
    with obs.session({"command": args.command}, args):
        if args.chunks:
            from repro.parallel import compress_chunked

            blob = compress_chunked(
                data, args.codec, axis=args.chunk_axis, n_chunks=args.chunks,
                workers=args.workers, mask=mask, retries=args.retries,
                retry_backoff=args.retry_backoff, timeout=args.timeout,
                faults=faults, **kwargs)
        else:
            if faults is not None:
                raise SystemExit("--inject-faults on compress requires --chunks "
                                 "(faults target the chunked pipeline)")
            blob = compressor_for(args.codec).compress(data, mask=mask, **kwargs)
    from repro.runtime import atomic_write

    atomic_write(args.output, blob)
    ratio = data.size * 4 / len(blob)
    print(f"{args.input} -> {args.output}: {len(blob)} bytes "
          f"(CR {ratio:.2f}x vs 32-bit)")
    return 0


def cmd_decompress(args) -> int:
    from repro import decompress, obs

    with open(args.input, "rb") as fh:
        blob = fh.read()
    faults = args.inject_faults
    if faults is not None:
        # corrupt the blob in memory — exercises salvage without touching
        # the file on disk (used by the CI robustness smoke job)
        blob, events = faults.corrupt_blob(blob, "cli.decompress")
        for event in events:
            print(f"injected: {event}", file=sys.stderr)
    from repro.encoding.container import Container

    with obs.session({"command": args.command}, args):
        codec = Container.peek_codec(blob)
        if args.salvage and codec != "chunked":
            raise SystemExit(
                f"--salvage needs a chunked blob (got codec {codec!r}); "
                "for RCDF datasets use repro.io.rcdf.read_rcdf(salvage=True)")
        if codec == "chunked":
            from repro.parallel import decompress_chunked

            data = decompress_chunked(
                blob, workers=args.workers, salvage=args.salvage, retries=args.retries,
                retry_backoff=args.retry_backoff)
        else:
            data = decompress(blob)
        if args.salvage:
            data, report = data
            print(report.summary(), file=sys.stderr)
            if args.salvage_report:
                from repro.runtime import atomic_write

                atomic_write(args.salvage_report,
                             json.dumps(report.to_dict(), indent=2))
                print(f"salvage report -> {args.salvage_report}", file=sys.stderr)
    np.save(args.output, data)
    print(f"{args.input} -> {args.output}: shape {data.shape}, dtype {data.dtype}")
    return 0


def cmd_info(args) -> int:
    from repro.encoding.container import Container

    with open(args.input, "rb") as fh:
        blob = fh.read()
    container = Container.from_bytes(blob)
    print(f"codec    : {container.codec}")
    print(f"header   : {json.dumps(container.header, indent=2, default=str)}")
    print("sections :")
    for name in container.section_names:
        print(f"  {name:24s} {len(container.section(name)):10d} bytes")
    return 0


def cmd_tune(args) -> int:
    from repro import AutoTuner

    data = np.load(args.input)
    mask = _load_mask(args.mask)
    horiz = tuple(int(x) for x in args.horiz_axes.split(",")) if args.horiz_axes else None
    tuner = AutoTuner(sampling_rate=args.sampling_rate, time_axis=args.time_axis,
                      horiz_axes=horiz, max_layouts=args.max_layouts)
    result = tuner.tune(data, mask=mask, **_eb_kwargs(args))
    print(f"period   : {result.period}")
    print(f"sample   : {result.sample_shape} ({result.sampling_rate:.3%} of the data)")
    print(f"tuning   : {result.total_time:.1f}s over {len(result.trials)} pipelines "
          f"on {result.workers} worker{'s' if result.workers > 1 else ''}")
    print(f"best     : {result.best.describe()}")
    print("top 5    :")
    for trial in result.sorted_trials()[:5]:
        print(f"  est CR {trial.est_ratio:8.2f}  {trial.name}")
    if args.save_config:
        from repro.runtime import atomic_write

        atomic_write(args.save_config, json.dumps(result.best.to_dict(), indent=2))
        print(f"saved    : {args.save_config}")
    return 0


def cmd_assess(args) -> int:
    from repro.metrics import assess

    original = np.load(args.original)
    recon = np.load(args.reconstructed)
    mask = _load_mask(args.mask)
    report = assess(original, recon, mask)
    print(report.text())
    if args.abs_eb is not None:
        ok = report.passes(abs_eb=args.abs_eb)
        print(f"acceptance ({args.abs_eb:g} bound + Pearson>=0.99999): "
              f"{'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def cmd_dataset(args) -> int:
    from repro.datasets import load

    field = load(args.name)
    np.save(args.out, field.data)
    print(f"{args.name}: shape {field.shape}, axes {field.axes}, "
          f"valid {field.valid_fraction:.0%} -> {args.out}")
    if args.mask_out:
        if field.mask is None:
            print("(dataset has no mask; --mask-out ignored)")
        else:
            np.save(args.mask_out, field.mask)
            print(f"mask -> {args.mask_out}")
    return 0


def cmd_experiment(args) -> int:
    import importlib

    from repro import obs
    from repro.experiments import ALL_EXPERIMENTS

    if args.name not in ALL_EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; available:")
        for name, desc in ALL_EXPERIMENTS.items():
            print(f"  {name:26s} {desc}")
        return 1
    module = importlib.import_module(f"repro.experiments.{args.name}")
    with obs.session({"command": args.command}, args):
        module.run().print()
    return 0


def cmd_sweep(args) -> int:
    from repro.experiments import sweep

    return sweep.run_from_args(args)


def cmd_obs(args) -> int:
    from repro.obs import report

    return report.run_from_args(args)


def cmd_service(args) -> int:
    from repro.service.__main__ import main as service_main

    return service_main(args.service_args)


def cmd_codecs(args) -> int:
    from repro import COMPRESSORS

    for name, cls in sorted(COMPRESSORS.items()):
        bound = getattr(cls, "pointwise_bound", True)
        print(f"{name:12s} {cls.__name__:14s} pointwise bound: {'yes' if bound else 'no'}")
    return 0


# ------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CliZ reproduction toolkit (IPDPS 2024)"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    from repro.faults import fault_spec_arg
    from repro.obs import add_session_arguments

    def add_eb(p):
        p.add_argument("--rel-eb", type=float, default=None,
                       help="relative error bound (fraction of value range)")
        p.add_argument("--abs-eb", type=float, default=None,
                       help="absolute pointwise error bound")

    def add_resilience(p):
        p.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: serial)")
        p.add_argument("--retries", type=int, default=None,
                       help="per-job retries with exponential backoff")
        p.add_argument("--retry-backoff", type=float, default=None,
                       help="base backoff seconds between retries (doubles each try)")
        p.add_argument("--inject-faults", type=fault_spec_arg, default=None,
                       metavar="SPEC",
                       help="deterministic fault spec, e.g. "
                            "'seed=7;crash:p=0.5;bitflip:only=2' (see docs/ROBUSTNESS.md)")

    p = sub.add_parser("compress", help="compress a .npy array")
    p.add_argument("input"), p.add_argument("output")
    p.add_argument("--codec", default="cliz")
    p.add_argument("--mask", default=None, help=".npy boolean mask (True = valid)")
    p.add_argument("--chunks", type=int, default=None,
                   help="split into N chunks and compress them in parallel")
    p.add_argument("--chunk-axis", type=int, default=0,
                   help="axis to split along (with --chunks)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-chunk timeout in seconds (with --chunks)")
    add_resilience(p)
    add_session_arguments(p)
    add_eb(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="decompress a blob to .npy")
    p.add_argument("input"), p.add_argument("output")
    p.add_argument("--salvage", action="store_true",
                   help="tolerate corrupt chunks: NaN-fill them and report "
                        "instead of failing (chunked blobs)")
    p.add_argument("--salvage-report", default=None, metavar="FILE",
                   help="write the machine-readable salvage report JSON here")
    add_resilience(p)
    add_session_arguments(p)
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("info", help="inspect a compressed blob")
    p.add_argument("input")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("tune", help="auto-tune a CliZ pipeline")
    p.add_argument("input")
    p.add_argument("--mask", default=None)
    p.add_argument("--sampling-rate", type=float, default=0.01)
    p.add_argument("--time-axis", type=int, default=None)
    p.add_argument("--horiz-axes", default=None, help="e.g. 0,1")
    p.add_argument("--max-layouts", type=int, default=None)
    p.add_argument("--save-config", default=None, help="write winning pipeline JSON here")
    add_eb(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("assess", help="quality report original vs reconstruction")
    p.add_argument("original"), p.add_argument("reconstructed")
    p.add_argument("--mask", default=None)
    p.add_argument("--abs-eb", type=float, default=None,
                   help="also run the acceptance test against this bound")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("dataset", help="generate a synthetic Table-III dataset")
    p.add_argument("name")
    p.add_argument("--out", required=True)
    p.add_argument("--mask-out", default=None)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("experiment", help="run a paper experiment harness")
    p.add_argument("name")
    add_session_arguments(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "sweep",
        help="kill-resumable experiment sweep (journaled ledger + --resume)")
    from repro.experiments.sweep import add_arguments as _add_sweep_args

    _add_sweep_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "obs",
        help="offline telemetry analysis: report / top / critical-path / diff")
    from repro.obs.report import add_arguments as _add_obs_args

    _add_obs_args(p)
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser(
        "service",
        help="compression-as-a-service: serve the HTTP API or chaos-drill it")
    p.add_argument("service_args", nargs=argparse.REMAINDER,
                   help="arguments for repro.service (serve / drill ...)")
    p.set_defaults(func=cmd_service)

    p = sub.add_parser("codecs", help="list registered codecs")
    p.set_defaults(func=cmd_codecs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
