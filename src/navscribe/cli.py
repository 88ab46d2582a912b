"""Command line front end for the scene-to-instruction pipeline.

Every command writes its artifact to a file given by ``--out`` (or the
``out`` config key); stdout stays silent so the tool composes cleanly in
scripts. Diagnostics go to stderr. Exit codes: 0 on success, 1 when the
input fails to parse or a validation check fails, 2 for usage mistakes.
"""
from __future__ import annotations

import dataclasses
import gc
import sys

from . import jsonio
from .config import RunConfig, load_config
from .instruction_crafter import craft_dataset
from .instruction_executor import DEFAULT_SUCCESS_RADIUS, validate_dataset
from .nav_graph import (check_paths_on, check_sampler_bounds, parse_connectivity,
                        paths_from_json, paths_to_json, sample_paths)
from .object_saliency import Scan
from .scene_metadata import SceneModel, parse_house, read_scene_json, write_scene_json
from .supervision_export import (dataset_stats, emit_r2r_json, emit_supervision_json,
                                 read_r2r_json, supervise_dataset)
from .text_ablation import AblationMode, ablate_dataset, load_default_lexicon, load_lexicon


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


def _load_scene(cfg: RunConfig) -> SceneModel:
    """Scene JSON if the file opens with { or [, past blanks and one BOM; else .house text."""
    text = _read(_need(cfg.files.scene, "scene file (--house)"))
    is_json = text.removeprefix("\ufeff").lstrip().startswith(("{", "["))
    return read_scene_json(text) if is_json else parse_house(text)


def _load_scan(cfg: RunConfig) -> Scan:
    scene = _load_scene(cfg)
    conn = _read(_need(cfg.files.graph, "connectivity file (--connectivity)"))
    return Scan(scene, parse_connectivity(conn, scan_id=scene.scan_id), cfg.saliency)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_parse_scene(cfg: RunConfig) -> tuple[str, int]:
    return write_scene_json(_load_scene(cfg)), 0


def _cmd_sample_paths(cfg: RunConfig) -> tuple[str, int]:
    s = dataclasses.asdict(cfg.sampler)
    check_sampler_bounds(**s)  # before any input is read
    result = sample_paths(_load_scan(cfg).graph, **s)
    if result.shortfall:
        print(f"warning: {result.shortfall} fewer paths than requested", file=sys.stderr)
    return paths_to_json(result), 0


def _cmd_craft(cfg: RunConfig) -> tuple[str, int]:
    scan = _load_scan(cfg)
    sample = paths_from_json(_read(_need(cfg.files.paths, "sampled paths file (--paths)")))
    check_paths_on(scan.graph, sample.paths, "$.paths")
    return emit_r2r_json(craft_dataset(scan, sample.paths)), 0


def _cmd_supervise(cfg: RunConfig, dataset: str) -> tuple[str, int]:
    scan = _load_scan(cfg)
    records = read_r2r_json(_read(dataset))
    check_paths_on(scan.graph, records, "$")
    return emit_supervision_json(supervise_dataset(scan, records, cfg.aux.n_objects)), 0


def _cmd_ablate(cfg: RunConfig, dataset: str, mode: str) -> tuple[str, int]:
    path = cfg.files.lexicon
    lexicon = load_default_lexicon() if path is None else load_lexicon(_read(path))
    records = read_r2r_json(_read(dataset))
    return emit_r2r_json(ablate_dataset(records, AblationMode(mode), lexicon)), 0


def _cmd_validate(cfg: RunConfig, dataset: str,
                  success_radius: float = DEFAULT_SUCCESS_RADIUS) -> tuple[str, int]:
    scan = _load_scan(cfg)
    records = read_r2r_json(_read(dataset))
    check_paths_on(scan.graph, records, "$")  # no records pass, for validate_dataset to refuse
    report = validate_dataset(scan, records, success_radius)
    return jsonio.dumps(report), 0 if report["round_trip_rate"] == 1 else 1


def _cmd_render(cfg: RunConfig, **spec) -> tuple[str, int]:
    from .render_svg import RenderSpec, render_viewpoint  # no compile command needs it

    scan = _load_scan(cfg)
    return render_viewpoint(scan.scene, scan.graph, RenderSpec(**spec)), 0


def _cmd_loss_check(cfg: RunConfig, **flags) -> tuple[str, int]:
    from .aux_loss_math import gradient_check  # no compile command needs it

    report = gradient_check(**flags, **dataclasses.asdict(cfg.aux))
    # Relative errors sit far below 1e-6, so fixed six-decimal floats would
    # flatten them to zero; the report uses scientific notation instead.
    return jsonio.dumps(report, float_fmt=".3e"), 0 if report["passed"] else 1


def _cmd_stats(cfg: RunConfig, dataset: str) -> tuple[str, int]:
    return jsonio.dumps(dataset_stats(read_r2r_json(_read(dataset)))), 0


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _flag(option: str, key: str | None = None, **kwargs) -> tuple[str, dict]:
    """``option`` and its ``add_argument`` keywords, with its dest. A
    config-backed flag's dest is its RunConfig field ``key``
    (``section.field``), with the metavar argparse would derive from the
    option."""
    name = option[2:].replace("-", "_")
    if key is not None:
        kwargs.update(dest=key, metavar=name.upper())
    return option, {"dest": name, **kwargs}


_OUT = (_flag("--config", help="key = value config file"),
        _flag("--out", "files.out", help="output file path"))
_HOUSE = _flag("--house", "files.scene", help="scene file (.house text or scene JSON)")
_SCENE = (_HOUSE, _flag("--connectivity", "files.graph", help="connectivity JSON file"))
_DATASET = (_flag("--dataset", required=True, help="dataset JSON file"),)

# Each command: the name of its function, looked up when it runs, its help,
# and its flags by option string, in the order --help lists them.
_COMMANDS = {
    "parse-scene": ("_cmd_parse_scene", "parse a scene file into canonical scene JSON", dict([
        *_OUT, _HOUSE])),
    "sample-paths": ("_cmd_sample_paths", "sample shortest paths from the graph", dict([
        *_OUT, *_SCENE,
        _flag("--n", "sampler.n", type=int, help="number of paths to sample"),
        _flag("--seed", "sampler.seed", type=int, help="random seed"),
        _flag("--min-hops", "sampler.min_hops", type=int),
        _flag("--max-hops", "sampler.max_hops", type=int),
        _flag("--min-geodesic", "sampler.min_geodesic", type=float)])),
    "craft": ("_cmd_craft", "write instructions for sampled paths", dict([
        *_OUT, *_SCENE, _flag("--paths", "files.paths", help="sampled paths JSON file")])),
    "supervise": ("_cmd_supervise", "emit per-token object supervision for a dataset", dict([
        *_OUT, *_SCENE, *_DATASET,
        _flag("--n-objects", "aux.n_objects", type=int, help="object labels per token")])),
    "ablate": ("_cmd_ablate", "rewrite dataset instructions with words removed", dict([
        *_OUT, *_DATASET,
        _flag("--mode", required=True, choices=[mode.value for mode in AblationMode]),
        _flag("--lexicon", "files.lexicon", help="word TAB tag lexicon file")])),
    "validate": ("_cmd_validate", "re-execute dataset instructions and score them", dict([
        *_OUT, *_SCENE, *_DATASET,
        _flag("--success-radius", type=float)])),
    "render": ("_cmd_render", "draw the surroundings of one viewpoint as SVG", dict([
        *_OUT, *_SCENE,
        _flag("--viewpoint", required=True),
        _flag("--radius", type=float),
        _flag("--width", type=int),
        _flag("--height", type=int)])),
    "loss-check": ("_cmd_loss_check", "verify loss gradients against finite differences", dict([
        *_OUT,
        _flag("--instances", type=int),
        _flag("--seed", type=int),
        _flag("--max-vocab", type=int)])),
    "stats": ("_cmd_stats", "summarize a dataset file", dict([*_OUT, *_DATASET])),
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # only help and usage errors need it, so a command loads it seldom

    parser = argparse.ArgumentParser(
        prog="navscribe",
        description="Compile indoor scenes and navigation graphs into "
                    "instruction-following training data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for option, kwargs in flags.items():
            p.add_argument(option, **kwargs)
        p.set_defaults(func=globals()[func])
    return parser


def _read_plain(argv: list[str]) -> dict | None:
    """What ``_build_parser().parse_args(argv)`` reads from a plain ``argv``,
    its None values left out; None for any other ``argv``. Plain is a known
    command followed by pairs of an exact flag of that command and a value
    that does not start with ``-``, where each value converts, is among its
    flag's choices, and every required flag is given."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None or len(argv) % 2 == 0:
        return None
    func, _, flags = entry
    given = {}
    for option, value in zip(argv[1::2], argv[2::2]):
        spec = flags.get(option)
        if spec is None or value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[spec["dest"]] = value
    if any(spec.get("required") and spec["dest"] not in given for spec in flags.values()):
        return None
    return {**given, "command": argv[0], "func": globals()[func]}


def main(argv: list[str] | None = None) -> int:
    """Run one command: load the config, lay the flags given over it, compute
    the artifact, then write it to ``--out``, so a command that fails writes
    nothing. A flag left out is not passed on, so its key or the library's
    default applies.

    From after argument parsing through the write, cyclic garbage collection
    is paused: a command's records are acyclic, so reference counting frees
    them all and a collection would only walk them. However the command ends,
    collection is enabled again if it was enabled on entry."""
    if argv is None:
        argv = sys.argv[1:]
    given = _read_plain(argv)
    if given is None:  # help, a usage error, or a spelling only argparse reads
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
