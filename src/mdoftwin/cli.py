"""Command-line front-end.

Subcommands: simulate, filter, campaign, predict, report. Every run writes
``config_echo.json`` into the output directory; all outputs are plain CSV
(UTF-8, header row) or JSON (each JSON file replaced atomically) and are
reproduced byte for byte given the same inputs and seed. Exit codes: 0
success, 2 usage or configuration error (a malformed window file
included), 3 numeric failure.

``campaign`` runs ``twin.run_campaign``: windows are generated in batches
of up to 64, each one integration, and assimilated in order. A diverging
window is recorded as a generation failure at its place, the outputs are
still written, and the exit code is 3; a config no window can be generated
from (a zero-amplitude force) exits 2, as do observed DOFs the system lacks
or, for ``filter``, that differ from the window's sidecar.

Configuration file layout (JSON, all sections optional except ``system``;
an unknown section, or an unknown key in any section, is an error)::

    {
      "system":     {"kind": "duffing_2dof", ...parameter overrides...},
      "campaign":   {"horizon_days": 2000, "window_interval_days": 50, ...},
      "ukf":        {"params": {"alpha_f": 0.001, ...}, ...},
      "gp":         {"kernel_family": "squared-exponential", ...},
      "integrator": {"dt": 0.001, "seed": 0}
    }
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .codec import decode, write_json
from .errors import InvalidParameterError, NumericError
from .models import (KIND_DUFFING_2DOF, KIND_DVP_7DOF, DegradationSchedule,
                     MdofSystem, build_duffing_2dof, build_dvp_7dof,
                     check_observed_dofs, degraded_stiffness, to_state_space)
from .sde import simulate_window
from .twin import (CampaignConfig, MeasurementWindow, TwinSnapshot,
                   campaign_times, filter_window, new_snapshot,
                   predict_parameters, predict_response, run_campaign,
                   write_estimates_csv, write_gp_track_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_BUILDER_KWARGS = ("masses", "stiffnesses", "dampings", "force_amplitudes",
                   "force_frequencies", "noise_sigmas")
_BUILDERS = {KIND_DUFFING_2DOF: (build_duffing_2dof, _BUILDER_KWARGS),
             KIND_DVP_7DOF: (build_dvp_7dof, _BUILDER_KWARGS + ("symmetric_consistent",))}


def _build_system(doc) -> MdofSystem:
    doc = decode(dict, doc, "system")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise InvalidParameterError(f"system kind must be one of "
                                    f"{KIND_DUFFING_2DOF!r}, {KIND_DVP_7DOF!r}")
    builder, keys = _BUILDERS[kind]
    unknown = sorted(set(doc) - {"kind", "nonlinear_coefficient", *keys})
    if unknown:
        raise InvalidParameterError(f"unknown key {unknown[0]!r} in the {kind} system section")
    kwargs = {key: doc[key] for key in keys if key in doc}
    if "nonlinear_coefficient" in doc:
        kwargs["nonlinear_coeff"] = doc["nonlinear_coefficient"]
    return builder(**kwargs)


def _load_config(path: str, args) -> tuple:
    with open(path, encoding="utf-8") as fh:
        doc = decode(dict, json.load(fh), "config file")
    if "system" not in doc:
        raise InvalidParameterError("config file must contain a 'system' section")
    unknown = sorted(set(doc) - {"system", "campaign", "ukf", "gp", "integrator"})
    if unknown:
        raise InvalidParameterError(f"unknown config section {unknown[0]!r}")
    system = _build_system(doc["system"])
    campaign_doc = decode(dict, doc.get("campaign", {}), "campaign")
    for section in ("ukf", "gp", "integrator"):
        if section in doc:
            campaign_doc[section] = doc[section]
    cfg = CampaignConfig.from_dict(campaign_doc)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed,
                      integrator=replace(cfg.integrator, seed=args.seed))
    if getattr(args, "observe", None):
        try:  # a token that is not an integer, or not a DOF of the system
            dofs = check_observed_dofs([int(tok) for tok in args.observe.split(",")],
                                       system.n_dof)
        except ValueError as exc:
            raise InvalidParameterError(f"--observe {args.observe!r}: {exc}") from exc
        cfg = replace(cfg, observed_dofs=dofs)
    elif cfg.observed_dofs is not None:
        check_observed_dofs(cfg.observed_dofs, system.n_dof)
    return system, cfg


def _echo_config(out_dir: Path, system: MdofSystem, cfg: CampaignConfig,
                 extras: dict | None = None) -> None:
    doc = {"system": system.to_dict(), "campaign": cfg.to_dict()}
    if extras:
        doc.update(extras)
    write_json(out_dir / "config_echo.json", doc)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidParameterError(
            f"cannot use --out {str(out)!r} as the output directory: {exc.strerror}") from None
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    system, cfg = _load_config(args.config, args)
    out = _out_dir(args)
    _echo_config(out, system, cfg, {"command": "simulate"})
    model = to_state_space(system)
    traj = simulate_window(model, system, np.zeros(model.dim_state),
                           cfg.window_duration_s, cfg.integrator)
    columns = traj.to_csv(out / "trajectory.csv", model.labels)
    meta = {
        "n_samples": int(traj.times.shape[0]),
        "dt": cfg.integrator.dt,
        "scheme": "taylor15",
        "seed": cfg.integrator.seed,
        "state_labels": list(model.labels),
        "columns": columns,
    }
    write_json(out / "trajectory_meta.json", meta)
    return EXIT_OK


def cmd_filter(args) -> int:
    system, cfg = _load_config(args.config, args)
    window = MeasurementWindow.load(args.window)
    if cfg.observed_dofs not in (None, window.observed_dofs):
        raise InvalidParameterError(
            f"campaign.observed_dofs {list(cfg.observed_dofs)} disagrees with "
            f"observed_dofs {list(window.observed_dofs)} of the window")
    out = _out_dir(args)
    _echo_config(out, system, cfg, {"command": "filter", "window": args.window})
    result = filter_window(system, cfg, window)
    result.to_csv(out / "filter_result.csv")
    summary = result.summary_dict()
    summary["t_s"] = float(window.t_s)
    summary["observed_dofs"] = list(window.observed_dofs)
    summary["config"] = {"system": system.to_dict(), "campaign": cfg.to_dict()}
    write_json(out / "filter_summary.json", summary)
    return EXIT_OK


def cmd_campaign(args) -> int:
    system, cfg = _load_config(args.config, args)
    out = _out_dir(args)
    _echo_config(out, system, cfg, {"command": "campaign", "cutoff_days": args.cutoff_days})
    schedule = DegradationSchedule.for_system(system, rate_per_day=cfg.degradation_rate_per_day)
    snapshot = new_snapshot(system, cfg, schedule)
    generation_failures = run_campaign(snapshot, args.cutoff_days)

    snapshot.save(out / "snapshot.json")
    write_estimates_csv(snapshot, out / "estimates.csv")
    if snapshot.gp_models:
        step = cfg.window_interval_days / 5.0
        grid = np.arange(0.0, cfg.horizon_days + args.track_extension_days + step / 2.0, step)
        write_gp_track_csv(snapshot, out / "gp_track.csv", grid)
    return EXIT_NUMERIC if generation_failures else EXIT_OK


def _parse_times(text: str) -> np.ndarray:
    """The slow times of ``--times``: finite numbers separated by commas."""
    try:
        query = np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise InvalidParameterError(
            f"--times must be comma-separated numbers, got {text!r}") from exc
    if not np.isfinite(query).all():
        raise InvalidParameterError(f"--times must be finite, got {text!r}")
    return query


def cmd_predict(args) -> int:
    query = _parse_times(args.times)
    snapshot = TwinSnapshot.load(args.snapshot)
    out = _out_dir(args)
    write_json(out / "config_echo.json",
               {"command": "predict", "snapshot": str(args.snapshot),
                "times": args.times, "config": snapshot.config.to_dict()})
    write_gp_track_csv(snapshot, out / "parameters_prediction.csv", query)
    if args.response_at is not None:
        traj = predict_response(snapshot, args.response_at, args.duration,
                                seed=args.seed if args.seed is not None else 0)
        traj.to_csv(out / "response.csv", to_state_space(snapshot.system).labels)
    return EXIT_OK


def _report_doc(snapshot: TwinSnapshot) -> dict:
    names = snapshot.param_names
    doc = {
        "windows_processed": snapshot.windows_processed,
        "windows_rejected": len(snapshot.rejected_windows),
        "gp_trained_upto": snapshot.gp_trained_upto,
        "workload": {
            "filter_updates": sum(r["n_updates"] for r in snapshot.parameter_history),
            "psd_repairs": sum(r["psd_repairs"] for r in snapshot.parameter_history),
        },
    }
    if snapshot.windows_processed == 0:
        doc["status"] = "no windows processed"
        return doc
    doc["status"] = "ok"

    last = snapshot.parameter_history[-1]
    parameters = {}
    for j, name in enumerate(names):
        entry = {
            "terminal_estimate": last["estimate"][j],
            "terminal_stddev": last["stddev"][j],
            "t_s": last["t_s"],
        }
        if snapshot.schedule is not None:
            truth = float(degraded_stiffness(snapshot.schedule, last["t_s"])[j])
            entry["truth"] = truth
            entry["relative_error"] = abs(entry["terminal_estimate"] - truth) / truth
            entry["accuracy_percent"] = 100.0 * (1.0 - entry["relative_error"])
        parameters[name] = entry
    doc["parameters"] = parameters

    if snapshot.gp_models and snapshot.schedule is not None:
        grid = campaign_times(snapshot.config)
        held_out = grid[grid > (snapshot.gp_trained_upto or 0.0)]
        if held_out.size:
            predictions = predict_parameters(snapshot, held_out)
            errors = {}
            for name, pred in predictions.items():
                idx = int(name[1:]) - 1
                truth = np.array([degraded_stiffness(snapshot.schedule, t)[idx]
                                  for t in held_out])
                rel = np.abs(pred.mean - truth) / truth
                errors[name] = {"mean_relative_error": float(rel.mean()),
                                "max_relative_error": float(rel.max()),
                                "n_held_out": int(held_out.size)}
            doc["gp_extrapolation"] = errors
    return doc


def _report_text(doc: dict) -> str:
    lines = ["digital twin report", "==================="]
    lines.append(f"status: {doc['status']}")
    lines.append(f"windows processed: {doc['windows_processed']} "
                 f"(rejected: {doc['windows_rejected']})")
    if doc["status"] == "no windows processed":
        return "\n".join(lines) + "\n"
    lines.append(f"filter updates: {doc['workload']['filter_updates']}, "
                 f"psd repairs: {doc['workload']['psd_repairs']}")
    lines.append("")
    header = f"{'param':>6} {'estimate':>12} {'stddev':>10}"
    has_truth = any("truth" in e for e in doc["parameters"].values())
    if has_truth:
        header += f" {'truth':>12} {'accuracy%':>10}"
    lines.append(header)
    for name, entry in doc["parameters"].items():
        row = f"{name:>6} {entry['terminal_estimate']:>12.3f} " \
              f"{entry['terminal_stddev']:>10.3f}"
        if "truth" in entry:
            row += f" {entry['truth']:>12.3f} {entry['accuracy_percent']:>10.2f}"
        lines.append(row)
    if "gp_extrapolation" in doc:
        lines.append("")
        lines.append("GP extrapolation at held-out slow times (relative error):")
        for name, err in doc["gp_extrapolation"].items():
            lines.append(f"  {name}: mean {err['mean_relative_error']:.4f}, "
                         f"max {err['max_relative_error']:.4f} "
                         f"over {err['n_held_out']} points")
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    snapshot = TwinSnapshot.load(args.snapshot)
    out = _out_dir(args)
    write_json(out / "config_echo.json", {"command": "report", "snapshot": str(args.snapshot),
                                          "config": snapshot.config.to_dict()})
    doc = _report_doc(snapshot)
    write_json(out / "report.json", doc)
    text = _report_text(doc)
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type of the numeric flags: a finite number."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer, as numpy's
    generators take."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdoftwin",
        description="digital-twin estimation engine for nonlinear MDOF systems")
    parser.add_argument("--verbose", action="store_true",
                        help="enable info/debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the configured seed")

    p_sim = sub.add_parser("simulate", help="one high-fidelity trajectory")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_fil = sub.add_parser("filter", help="UKF run on one measurement window")
    common(p_fil)
    p_fil.add_argument("--window", required=True,
                       help="window base path (reads <base>.csv and <base>.json)")
    p_fil.set_defaults(func=cmd_filter)

    p_cam = sub.add_parser("campaign", help="synthetic campaign + assimilation")
    common(p_cam)
    p_cam.add_argument("--observe", default=None,
                       help="comma-separated observed DOF list override")
    p_cam.add_argument("--cutoff-days", type=_finite_float, default=None,
                       help="assimilate only windows up to this slow time")
    p_cam.add_argument("--track-extension-days", type=_finite_float, default=500.0,
                       help="extend the GP track grid past the horizon")
    p_cam.set_defaults(func=cmd_campaign)

    p_pre = sub.add_parser("predict", help="parameter/response prediction")
    p_pre.add_argument("--snapshot", required=True, help="snapshot JSON path")
    p_pre.add_argument("--out", required=True)
    p_pre.add_argument("--times", required=True,
                       help="comma-separated slow times (days)")
    p_pre.add_argument("--response-at", type=_finite_float, default=None,
                       help="also simulate the response at this slow time")
    p_pre.add_argument("--duration", type=_finite_float, default=5.0,
                       help="response simulation length (s)")
    p_pre.add_argument("--seed", type=_seed, default=None)
    p_pre.set_defaults(func=cmd_predict)

    p_rep = sub.add_parser("report", help="summarize a snapshot")
    p_rep.add_argument("--snapshot", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code) if exc.code else EXIT_OK
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (InvalidParameterError, FileNotFoundError, json.JSONDecodeError,
            KeyError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
