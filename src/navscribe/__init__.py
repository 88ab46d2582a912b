"""Compile indoor scenes and navigation graphs into instruction data.

The package turns scene metadata (.house files) and viewpoint
connectivity graphs into navigation instructions with per-word object
supervision, re-executes those instructions to validate them, and ships
the loss arithmetic used to weigh the extra word-prediction tasks.
"""
from __future__ import annotations

import importlib

from .config import (AuxConfig, ConfigError, FileConfig, RunConfig,
                     SamplerConfig, load_config)
from .instruction_crafter import (AtomicInstruction, CraftedInstruction, Motion,
                                  Turn, classify_turn, classify_vertical,
                                  craft_instruction, make_atom, render_atom)
from .instruction_executor import (DEFAULT_SUCCESS_RADIUS, ExecutionResult,
                                   InstructionParseError, NavMetrics, evaluate,
                                   evaluate_batch, execute, parse_crafted)
from .jsonio import JsonSchemaError
from .nav_graph import (ConnectivityError, NavGraph, PathSpec, SampleResult,
                        Viewpoint, geodesic_distance, parse_connectivity,
                        paths_from_json, paths_to_json, sample_paths,
                        shortest_path)
from .object_saliency import (DEFAULT_BLACKLIST, ObjectRef, Relation,
                              SaliencyConfig, Scan, best_object,
                              filter_candidates, observe, side_of_travel)
from .rng import SplitMix64
from .scene_metadata import (Category, HouseParseError, Panorama, Region,
                             SceneJsonError, SceneModel, SceneObject,
                             category_name, head_noun, parse_house,
                             read_scene_json, write_scene_json)
from .supervision_export import (DatasetRecord, WordObjectSupervision,
                                 align_words_to_nodes, build_supervision,
                                 emit_r2r_json, emit_supervision_json,
                                 read_r2r_json, read_supervision_json,
                                 tokenize, top_n_objects)
from .text_ablation import (AblationMode, LexiconError, ablate,
                            load_default_lexicon, load_lexicon)
from .view_geometry import (FovConfig, ObservedObject, elevation_to,
                            heading_to, in_fov, projected_area,
                            relative_bearing, wrap_angle)

__version__ = "0.1.0"

# Exports of the modules no compile command needs, each imported on first access.
_LAZY = {
    **dict.fromkeys(["LossBreakdown", "WordTargets", "gradient_check", "grad_logits",
                     "log_softmax", "nll", "sequence_loss", "word_loss"], "aux_loss_math"),
    **dict.fromkeys(["RenderSpec", "render_viewpoint"], "render_svg"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "AblationMode", "AtomicInstruction", "AuxConfig", "Category", "ConfigError",
    "ConnectivityError", "CraftedInstruction", "DatasetRecord",
    "DEFAULT_BLACKLIST", "DEFAULT_SUCCESS_RADIUS", "ExecutionResult",
    "FileConfig", "FovConfig", "HouseParseError",
    "InstructionParseError", "JsonSchemaError",
    "LexiconError", "LossBreakdown", "Motion", "NavGraph", "NavMetrics",
    "ObjectRef", "ObservedObject", "Panorama", "PathSpec", "Region", "Relation",
    "RenderSpec", "RunConfig", "SaliencyConfig", "SampleResult", "SamplerConfig",
    "Scan", "SceneJsonError", "SceneModel", "SceneObject", "SplitMix64", "Turn",
    "Viewpoint", "WordObjectSupervision", "WordTargets",
    "ablate", "align_words_to_nodes", "best_object", "build_supervision",
    "category_name", "classify_turn", "classify_vertical", "craft_instruction",
    "elevation_to", "emit_r2r_json", "emit_supervision_json", "evaluate",
    "evaluate_batch", "execute", "filter_candidates", "geodesic_distance",
    "gradient_check", "grad_logits", "head_noun", "heading_to", "in_fov",
    "load_config", "load_default_lexicon", "load_lexicon", "log_softmax",
    "make_atom", "nll", "observe", "parse_connectivity", "parse_crafted",
    "parse_house", "paths_from_json", "paths_to_json", "projected_area",
    "read_r2r_json", "read_scene_json", "read_supervision_json",
    "relative_bearing", "render_atom", "render_viewpoint", "sample_paths",
    "sequence_loss", "shortest_path", "side_of_travel", "tokenize",
    "top_n_objects", "word_loss", "wrap_angle", "write_scene_json",
]
