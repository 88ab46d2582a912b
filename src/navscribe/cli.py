"""Command line front end for the scene-to-instruction pipeline.

Every command writes its artifact to a file given by ``--out`` (or the
``out`` config key); stdout stays silent so the tool composes cleanly in
scripts. Diagnostics go to stderr. Exit codes: 0 on success, 1 when the
input fails to parse or a validation check fails, 2 for usage mistakes.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import sys
from itertools import repeat

from . import jsonio
from .aux_loss_math import gradient_check
from .config import RunConfig, load_config
from .instruction_crafter import craft_instruction
from .instruction_executor import (DEFAULT_SUCCESS_RADIUS, ExecutionResult,
                                   InstructionParseError, evaluate, evaluate_batch,
                                   execute, parse_crafted)
from .nav_graph import (check_paths_on, parse_connectivity, paths_from_json, paths_to_json,
                        sample_paths)
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
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: invalid UTF-8 at byte {exc.start} ({exc.reason})") from None


def _write(path: str, text: str) -> None:
    data = text.encode("utf-8")  # before the open, so a text that cannot be encoded writes nothing
    with open(path, "wb") as fh:
        fh.write(data)


def _need(value: str | None, what: str) -> str:
    if value is None:
        raise UsageError(f"missing {what}; pass the flag or set it in the config file")
    return value


def _overlay(cfg: RunConfig, flags: dict) -> RunConfig:
    """``cfg`` with each flag laid over its key; a config-backed flag's dest
    names its RunConfig field as ``section.field``."""
    for dest, value in flags.items():
        section, name = dest.split(".")
        part = dataclasses.replace(getattr(cfg, section), **{name: value})
        cfg = dataclasses.replace(cfg, **{section: part})
    return cfg


def _load_scene(path: str) -> SceneModel:
    """Accepts raw .house text or the canonical scene JSON."""
    text = _read(path)
    if text.lstrip().startswith("{"):
        return read_scene_json(text)
    return parse_house(text)


def _load_scan(cfg: RunConfig) -> Scan:
    scene = _load_scene(_need(cfg.files.scene, "scene file (--house)"))
    conn = _need(cfg.files.graph, "connectivity file (--connectivity)")
    graph = parse_connectivity(_read(conn), scan_id=scene.scan_id)
    return Scan(scene, graph, cfg.saliency)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_parse_scene(cfg: RunConfig) -> tuple[str, int]:
    scene = parse_house(_read(_need(cfg.files.scene, "scene file (--house)")))
    return write_scene_json(scene), 0


def _cmd_sample_paths(cfg: RunConfig) -> tuple[str, int]:
    result = sample_paths(_load_scan(cfg).graph, **dataclasses.asdict(cfg.sampler))
    if result.shortfall:
        print(f"warning: {result.shortfall} fewer paths than requested", file=sys.stderr)
    return paths_to_json(result), 0


def _cmd_craft(cfg: RunConfig) -> tuple[str, int]:
    scan = _load_scan(cfg)
    sample = paths_from_json(_read(_need(cfg.files.paths, "sampled paths file (--paths)")))
    check_paths_on(scan.graph, sample.paths, "$.paths")
    records = [DatasetRecord(path_id=path_id, scan=path.scan, heading=path.heading, path=path.path,
                             instructions=(craft_instruction(scan, path).text,),
                             distance=path.distance)
               for path_id, path in enumerate(sample.paths)]
    return emit_r2r_json(records), 0


def _cmd_supervise(cfg: RunConfig, dataset: str) -> tuple[str, int]:
    scan = _load_scan(cfg)
    records = read_r2r_json(_read(dataset))
    check_paths_on(scan.graph, records, "$")
    supervisions = []
    for i, record in enumerate(records):
        try:
            supervisions.append(build_supervision(scan, record, record.instructions[0],
                                                  cfg.aux.n_objects, path_id=record.path_id))
        except NoTokensError as exc:
            raise jsonio.JsonSchemaError(str(exc), f"$[{i}].instructions[0]") from None
    return emit_supervision_json(supervisions), 0


def _cmd_ablate(cfg: RunConfig, dataset: str, mode: str) -> tuple[str, int]:
    path = cfg.files.lexicon
    lexicon = load_default_lexicon() if path is None else load_lexicon(_read(path))
    mode = AblationMode(mode)
    records = read_r2r_json(_read(dataset))
    # Positional, in field order: one constructor call per record, where
    # dataclasses.replace would first walk the field table.
    ablated = [
        DatasetRecord(r.path_id, r.scan, r.heading, r.path,
                      tuple(map(ablate, r.instructions, repeat(mode), repeat(lexicon))),
                      r.distance)
        for r in records
    ]
    return emit_r2r_json(ablated), 0


def _cmd_validate(cfg: RunConfig, dataset: str, success_radius: float) -> tuple[str, int]:
    scan = _load_scan(cfg)
    records = read_r2r_json(_read(dataset))
    if not records:
        raise jsonio.JsonSchemaError("no records to validate")
    check_paths_on(scan.graph, records, "$")
    rows = []
    metrics = []
    for record in records:
        try:
            atoms = parse_crafted(record.instructions[0])
            parse_ok = True
            result = execute(scan, record.path[0], record.heading, atoms)
        except InstructionParseError:
            parse_ok = False
            result = ExecutionResult(path=(record.path[0],), final_heading=record.heading,
                                     stopped=False, failure_reason="instruction did not parse")
        metrics.append(evaluate(scan.graph, record, result, success_radius))
        rows.append({"path_id": record.path_id, "parse_ok": parse_ok,
                     "round_trip": parse_ok and result.stopped and result.path == record.path})
    round_trips = sum(row["round_trip"] for row in rows)
    report = {
        "count": len(records),
        "round_trip_rate": round_trips / len(rows),
        "metrics": evaluate_batch(metrics),
        "paths": rows,
    }
    return jsonio.dumps(report), 0 if round_trips == len(rows) else 1


def _cmd_render(cfg: RunConfig, **spec) -> tuple[str, int]:
    scan = _load_scan(cfg)
    return render_viewpoint(scan.scene, scan.graph, RenderSpec(**spec)), 0


def _cmd_loss_check(cfg: RunConfig, **flags) -> tuple[str, int]:
    report = gradient_check(**flags, **dataclasses.asdict(cfg.aux))
    # Relative errors sit far below 1e-6, so fixed six-decimal floats would
    # flatten them to zero; the report uses scientific notation instead.
    return jsonio.dumps(report, float_fmt=".3e"), 0 if report["passed"] else 1


def _cmd_stats(cfg: RunConfig, dataset: str) -> tuple[str, int]:
    records = read_r2r_json(_read(dataset))
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


def _keyed(parser: argparse.ArgumentParser, flag: str, key: str, **kwargs) -> None:
    """Add ``flag`` over config field ``key`` (``section.field``), with the
    metavar argparse would derive from the flag."""
    parser.add_argument(flag, dest=key, metavar=flag[2:].replace("-", "_").upper(), **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navscribe",
        description="Compile indoor scenes and navigation graphs into "
                    "instruction-following training data.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    _keyed(common, "--out", "files.out", help="output file path")
    scene_io = argparse.ArgumentParser(add_help=False)
    _keyed(scene_io, "--house", "files.scene", help="scene file (.house text or scene JSON)")
    _keyed(scene_io, "--connectivity", "files.graph", help="connectivity JSON file")
    dataset_in = argparse.ArgumentParser(add_help=False)
    dataset_in.add_argument("--dataset", required=True, help="dataset JSON file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse-scene", parents=[common],
                       help="parse a .house file into canonical scene JSON")
    _keyed(p, "--house", "files.scene", help="scene .house file")
    p.set_defaults(func=_cmd_parse_scene)

    p = sub.add_parser("sample-paths", parents=[common, scene_io],
                       help="sample shortest paths from the graph")
    _keyed(p, "--n", "sampler.n", type=int, help="number of paths to sample")
    _keyed(p, "--seed", "sampler.seed", type=int, help="random seed")
    _keyed(p, "--min-hops", "sampler.min_hops", type=int)
    _keyed(p, "--max-hops", "sampler.max_hops", type=int)
    _keyed(p, "--min-geodesic", "sampler.min_geodesic", type=float)
    p.set_defaults(func=_cmd_sample_paths)

    p = sub.add_parser("craft", parents=[common, scene_io],
                       help="write instructions for sampled paths")
    _keyed(p, "--paths", "files.paths", help="sampled paths JSON file")
    p.set_defaults(func=_cmd_craft)

    p = sub.add_parser("supervise", parents=[common, scene_io, dataset_in],
                       help="emit per-token object supervision for a dataset")
    _keyed(p, "--n-objects", "aux.n_objects", type=int, help="object labels per token")
    p.set_defaults(func=_cmd_supervise)

    p = sub.add_parser("ablate", parents=[common, dataset_in],
                       help="rewrite dataset instructions with words removed")
    p.add_argument("--mode", required=True,
                   choices=[mode.value for mode in AblationMode])
    _keyed(p, "--lexicon", "files.lexicon", help="word TAB tag lexicon file")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("validate", parents=[common, scene_io, dataset_in],
                       help="re-execute dataset instructions and score them")
    p.add_argument("--success-radius", type=float, default=DEFAULT_SUCCESS_RADIUS)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("render", parents=[common, scene_io],
                       help="draw the surroundings of one viewpoint as SVG")
    p.add_argument("--viewpoint", required=True)
    p.add_argument("--radius", type=float)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("loss-check", parents=[common],
                       help="verify loss gradients against finite differences")
    p.add_argument("--instances", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-vocab", type=int)
    p.set_defaults(func=_cmd_loss_check)

    p = sub.add_parser("stats", parents=[common, dataset_in],
                       help="summarize a dataset file")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: load the config, lay the flags given over it, compute
    the artifact, then write it to ``--out``, so a command that fails writes
    nothing. A flag left out is not passed on, so its key or the library's
    default applies.

    From after argument parsing through the write, cyclic garbage collection
    is paused: a command's records are acyclic, so reference counting frees
    them all and a collection would only walk them. However the command ends,
    collection is enabled again if it was enabled on entry."""
    given = {dest: value for dest, value in vars(_build_parser().parse_args(argv)).items()
             if value is not None}
    command, config = given.pop("func"), given.pop("config", None)
    del given["command"]
    keyed = {dest: given.pop(dest) for dest in [dest for dest in given if "." in dest]}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        cfg = _overlay(RunConfig() if config is None else load_config(_read(config)), keyed)
        text, code = command(cfg, **given)
        _write(_need(cfg.files.out, "output file (--out)"), text)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
