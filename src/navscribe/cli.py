"""Command line front end for the scene-to-instruction pipeline.

Every command writes its artifact to a file given by ``--out`` (or the
``out`` config key); stdout stays silent so the tool composes cleanly in
scripts. Diagnostics go to stderr. Exit codes: 0 on success, 1 when the
input fails to parse or a validation check fails, 2 for usage mistakes.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import jsonio
from .aux_loss_math import gradient_check
from .config import RunConfig, load_config
from .instruction_crafter import craft_instruction
from .instruction_executor import (DEFAULT_SUCCESS_RADIUS, ExecutionResult,
                                   InstructionParseError, evaluate, evaluate_batch,
                                   execute, parse_crafted)
from .nav_graph import (PathSpec, check_paths_on, parse_connectivity, paths_from_json,
                        paths_to_json, sample_paths)
from .object_saliency import Scan
from .render_svg import RenderSpec, render_viewpoint
from .scene_metadata import SceneModel, parse_house, read_scene_json, write_scene_json
from .supervision_export import (DatasetRecord, NoTokensError, build_supervision,
                                 emit_r2r_json, emit_supervision_json, read_r2r_json,
                                 tokenize)
from .text_ablation import AblationMode, ablate, load_default_lexicon, load_lexicon


class UsageError(Exception):
    """A required input was given neither as a flag nor in the config."""


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _resolve(flag_value: str | None, cfg_value: str | None, what: str) -> str:
    if flag_value is not None:
        return flag_value
    if cfg_value is not None:
        return cfg_value
    raise UsageError(f"missing {what}; pass the flag or set it in the config file")


def _with_flags(section, args):
    """The config section with each field whose flag was given replaced by
    the flag's value; flag dests are named after the section's fields."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(section)
             if getattr(args, f.name, None) is not None}
    return dataclasses.replace(section, **given)


def _load_scene(path: str) -> SceneModel:
    """Accepts raw .house text or the canonical scene JSON."""
    text = _read(path)
    if text.lstrip().startswith("{"):
        return read_scene_json(text)
    return parse_house(text)


def _load_scan(args, cfg: RunConfig) -> Scan:
    scene = _load_scene(_resolve(args.house, cfg.files.scene, "scene file (--house)"))
    conn = _resolve(args.connectivity, cfg.files.graph, "connectivity file (--connectivity)")
    graph = parse_connectivity(_read(conn), scan_id=scene.scan_id)
    return Scan(scene, graph, cfg.saliency)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_parse_scene(args, cfg: RunConfig) -> tuple[str, int]:
    scene = parse_house(_read(_resolve(args.house, cfg.files.scene, "scene file (--house)")))
    return write_scene_json(scene), 0


def _cmd_sample_paths(args, cfg: RunConfig) -> tuple[str, int]:
    result = sample_paths(_load_scan(args, cfg).graph,
                          **dataclasses.asdict(_with_flags(cfg.sampler, args)))
    if result.shortfall:
        print(f"warning: {result.shortfall} fewer paths than requested", file=sys.stderr)
    return paths_to_json(result), 0


def _cmd_craft(args, cfg: RunConfig) -> tuple[str, int]:
    scan = _load_scan(args, cfg)
    sample = paths_from_json(_read(_resolve(args.paths, cfg.files.paths,
                                            "sampled paths file (--paths)")))
    check_paths_on(scan.graph, sample.paths, "$.paths")
    records = []
    for path_id, path in enumerate(sample.paths):
        crafted = craft_instruction(scan, path)
        records.append(DatasetRecord(
            path_id=path_id,
            scan=path.scan,
            heading=path.heading_0,
            path=path.path,
            instructions=(crafted.text,),
            distance=path.geodesic_length,
        ))
    return emit_r2r_json(records), 0


def _cmd_supervise(args, cfg: RunConfig) -> tuple[str, int]:
    scan = _load_scan(args, cfg)
    records = read_r2r_json(_read(args.dataset))
    check_paths_on(scan.graph, records, "$")
    n = _with_flags(cfg.aux, args).n_objects
    supervisions = []
    for i, record in enumerate(records):
        path = PathSpec(record.scan, record.path, record.heading, record.distance)
        try:
            supervisions.append(build_supervision(scan, path, record.instructions[0], n,
                                                  path_id=record.path_id))
        except NoTokensError as exc:
            raise jsonio.JsonSchemaError(str(exc), f"$[{i}].instructions[0]") from None
    return emit_supervision_json(supervisions), 0


def _cmd_ablate(args, cfg: RunConfig) -> tuple[str, int]:
    lexicon_path = args.lexicon if args.lexicon is not None else cfg.files.lexicon
    lexicon = load_default_lexicon() if lexicon_path is None else load_lexicon(_read(lexicon_path))
    mode = AblationMode(args.mode)
    records = read_r2r_json(_read(args.dataset))
    ablated = [
        dataclasses.replace(r, instructions=tuple(ablate(text, mode, lexicon)
                                                  for text in r.instructions))
        for r in records
    ]
    return emit_r2r_json(ablated), 0


def _cmd_validate(args, cfg: RunConfig) -> tuple[str, int]:
    scan = _load_scan(args, cfg)
    records = read_r2r_json(_read(args.dataset))
    check_paths_on(scan.graph, records, "$")
    rows = []
    metrics = []
    all_good = bool(records)
    for record in records:
        gold = PathSpec(record.scan, record.path, record.heading, record.distance)
        try:
            atoms = parse_crafted(record.instructions[0])
            parse_ok = True
            result = execute(scan, record.path[0], record.heading, atoms)
        except InstructionParseError:
            parse_ok = False
            result = ExecutionResult(path=(record.path[0],), final_heading=record.heading,
                                     stopped=False, failure_reason="instruction did not parse")
        round_trip = parse_ok and result.stopped and result.path == record.path
        metrics.append(evaluate(scan.graph, gold, result, args.success_radius))
        all_good = all_good and parse_ok and round_trip
        rows.append({"path_id": record.path_id, "parse_ok": parse_ok,
                     "round_trip": round_trip})
    aggregate = evaluate_batch(metrics) if metrics else None
    report = {
        "count": len(records),
        "round_trip_rate": (sum(1 for r in rows if r["round_trip"]) / len(rows)) if rows else 0.0,
        "metrics": {
            "pl": aggregate.pl, "ne": aggregate.ne,
            "sr": aggregate.sr, "spl": aggregate.spl,
        } if aggregate else None,
        "paths": rows,
    }
    return jsonio.dumps(report), 0 if all_good else 1


def _cmd_render(args, cfg: RunConfig) -> tuple[str, int]:
    scan = _load_scan(args, cfg)
    spec = RenderSpec(viewpoint=args.viewpoint, radius=args.radius,
                      width=args.width, height=args.height)
    return render_viewpoint(scan.scene, scan.graph, spec), 0


def _cmd_loss_check(args, cfg: RunConfig) -> tuple[str, int]:
    report = gradient_check(instances=args.instances, seed=args.seed,
                            max_vocab=args.max_vocab, lam=cfg.aux.lam,
                            n_objects=cfg.aux.n_objects, beta=cfg.aux.beta)
    # Relative errors sit far below 1e-6, so fixed six-decimal floats would
    # flatten them to zero; the report uses scientific notation instead.
    return jsonio.dumps(report, float_fmt=".3e"), 0 if report["passed"] else 1


def _cmd_stats(args, cfg: RunConfig) -> tuple[str, int]:
    records = read_r2r_json(_read(args.dataset))
    # One pass that keeps no token list: the counts are integers, so the
    # means are the same as from the lists.
    n_instructions = n_tokens = 0
    vocabulary: set[str] = set()
    for r in records:
        for text in r.instructions:
            tokens = tokenize(text)
            n_instructions += 1
            n_tokens += len(tokens)
            vocabulary.update(tokens)
    report = {
        "records": len(records),
        "instructions": n_instructions,
        "mean_tokens": (n_tokens / n_instructions) if n_instructions else 0.0,
        "mean_path_nodes": (sum(len(r.path) for r in records) / len(records)) if records else 0.0,
        "mean_distance": _mean([r.distance for r in records]),
        "vocabulary": len(vocabulary),
    }
    return jsonio.dumps(report), 0


def _mean(values: list[float]) -> float:
    """The mean of finite non-negative ``values``, 0.0 for none. Where their
    sum overflows, the values are summed scaled down by a power of two above
    their count, which is exact but for subnormals, and the mean is capped at
    the largest of them."""
    if not values:
        return 0.0
    total = sum(values)
    if total < math.inf:
        return total / len(values)
    scale = 2.0 ** len(values).bit_length()
    return min(sum(value / scale for value in values) / len(values) * scale, max(values))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navscribe",
        description="Compile indoor scenes and navigation graphs into "
                    "instruction-following training data.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--out", help="output file path")
    scene_io = argparse.ArgumentParser(add_help=False)
    scene_io.add_argument("--house", help="scene file (.house text or scene JSON)")
    scene_io.add_argument("--connectivity", help="connectivity JSON file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse-scene", parents=[common],
                       help="parse a .house file into canonical scene JSON")
    p.add_argument("--house", help="scene .house file")
    p.set_defaults(func=_cmd_parse_scene)

    p = sub.add_parser("sample-paths", parents=[common, scene_io],
                       help="sample shortest paths from the graph")
    p.add_argument("--n", type=int, help="number of paths to sample")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--min-hops", type=int)
    p.add_argument("--max-hops", type=int)
    p.add_argument("--min-geodesic", type=float)
    p.set_defaults(func=_cmd_sample_paths)

    p = sub.add_parser("craft", parents=[common, scene_io],
                       help="write instructions for sampled paths")
    p.add_argument("--paths", help="sampled paths JSON file")
    p.set_defaults(func=_cmd_craft)

    p = sub.add_parser("supervise", parents=[common, scene_io],
                       help="emit per-token object supervision for a dataset")
    p.add_argument("--dataset", required=True, help="dataset JSON file")
    p.add_argument("--n-objects", type=int, help="object labels per token")
    p.set_defaults(func=_cmd_supervise)

    p = sub.add_parser("ablate", parents=[common],
                       help="rewrite dataset instructions with words removed")
    p.add_argument("--dataset", required=True, help="dataset JSON file")
    p.add_argument("--mode", required=True,
                   choices=[mode.value for mode in AblationMode])
    p.add_argument("--lexicon", help="word TAB tag lexicon file")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("validate", parents=[common, scene_io],
                       help="re-execute dataset instructions and score them")
    p.add_argument("--dataset", required=True, help="dataset JSON file")
    p.add_argument("--success-radius", type=float, default=DEFAULT_SUCCESS_RADIUS)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("render", parents=[common, scene_io],
                       help="draw the surroundings of one viewpoint as SVG")
    p.add_argument("--viewpoint", required=True)
    p.add_argument("--radius", type=float, default=4.0)
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--height", type=int, default=800)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("loss-check", parents=[common],
                       help="verify loss gradients against finite differences")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--max-vocab", type=int, default=16)
    p.set_defaults(func=_cmd_loss_check)

    p = sub.add_parser("stats", parents=[common],
                       help="summarize a dataset file")
    p.add_argument("--dataset", required=True, help="dataset JSON file")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: load the config, compute the artifact, then write it
    to ``--out``, so a command that fails writes nothing."""
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig() if args.config is None else load_config(_read(args.config))
        text, code = args.func(args, cfg)
        _write(_resolve(args.out, cfg.files.out, "output file (--out)"), text)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
