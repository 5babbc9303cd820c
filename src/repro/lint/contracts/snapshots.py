"""Contract family: engine names, snapshot variants, manifest keys.

A new engine is four edits in four files: ``ENGINE_NAMES`` (the public
surface), a construction arm in ``make_engine``/``validate_engine``, a
``_VARIANTS`` save tag in the serializer, and a ``VARIANT_TO_ENGINE``
entry tying the tag back to the engine that restores it.  Any edit
forgotten leaves a checkpoint that cannot be restored, or a selectable
engine that cannot be built.  This family closes the loop statically:

- every ``ENGINE_NAMES`` entry has a ``VARIANT_TO_ENGINE`` mapping and
  a literal construction arm, and every arm names a real engine;
- every engine has at least one variant with a serializer save tag (a
  variant without one is a restore-only alias that keeps old snapshots
  loading), and every save tag names a real variant;
- where a ``restore_*`` function matches variants literally, every
  variant has an arm and every arm names a real variant;
- per module, checkpoint ``manifest`` dict keys written by the save
  path are exactly the keys the restore path reads back.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.lint.contracts.base import ContractRule
from repro.lint.findings import Finding, Severity
from repro.lint.graph.index import ProjectIndex
from repro.lint.graph.sites import (
    compare_literals,
    own_dict_keys,
    subscript_reads,
    subscript_writes,
)
from repro.lint.registry import register

_ENGINE_CONST = "ENGINE_NAMES"
_MAPPING_CONST = "VARIANT_TO_ENGINE"
_SAVE_TAGS_CONST = "_VARIANTS"
_ENGINE_FUNCS = ("make_engine", "validate_engine")
_MANIFEST_VAR = "manifest"


@register
class SnapshotVariantRule(ContractRule):
    """Engine/variant/manifest inventories must close the loop."""

    id = "snapshot-variants"
    severity = Severity.ERROR
    rationale = (
        "every engine in ENGINE_NAMES needs a construction arm and a "
        "serializer save+restore path (a missing arm is a checkpoint "
        "that cannot be restored), and manifest keys written by a save "
        "path must match the keys its restore path reads"
    )

    def collect(self, index: ProjectIndex) -> Iterator[Finding]:
        yield from self._engine_arms(index)
        yield from self._manifest_symmetry(index)

    # ------------------------------------------------------------------

    def _engine_arms(self, index: ProjectIndex) -> Iterator[Finding]:
        engines = index.find_constant_tuple(_ENGINE_CONST)
        mapping = index.find_constant_dict(_MAPPING_CONST)
        save_tags = index.find_constant_dict(_SAVE_TAGS_CONST)

        engine_arms: List[Tuple[str, object, ast.AST]] = []
        for fname in _ENGINE_FUNCS:
            for info, func in index.functions_named(fname):
                for value, node in compare_literals(func, "engine"):
                    engine_arms.append((value, info, node))
        variant_arms: List[Tuple[str, object, ast.AST]] = []
        for name, info, func in index.iter_functions():
            if name.split(".")[-1].startswith("restore_"):
                for value, node in compare_literals(func, "variant"):
                    variant_arms.append((value, info, node))

        if engines is not None:
            einfo, enode, engine_names = engines
            if mapping is not None:
                mapped_engines = set(mapping[2].string_values())
                for engine in engine_names:
                    if engine not in mapped_engines:
                        yield self.site(
                            einfo,
                            enode,
                            f"engine {engine!r} has no {_MAPPING_CONST} "
                            f"entry mapping a snapshot variant to it",
                        )
                minfo, mnode, mconst = mapping
                for value in sorted(set(mconst.string_values())):
                    if value not in engine_names:
                        yield self.site(
                            minfo,
                            mnode,
                            f"{_MAPPING_CONST} maps a variant to engine "
                            f"{value!r}, which is not in {_ENGINE_CONST}",
                        )
            if engine_arms:
                arm_values = {value for value, _, _ in engine_arms}
                for engine in engine_names:
                    if engine not in arm_values:
                        yield self.site(
                            einfo,
                            enode,
                            f"engine {engine!r} has no construction arm "
                            f"in {'/'.join(_ENGINE_FUNCS)}",
                        )
                for value, info, node in engine_arms:
                    if value not in engine_names:
                        yield self.site(
                            info,
                            node,
                            f"construction arm matches engine {value!r}, "
                            f"which is not in {_ENGINE_CONST} (dead or "
                            f"misspelled arm)",
                        )

        if mapping is not None:
            vinfo, vnode, vconst = mapping
            variants = [key for key in vconst.string_keys()]
            if save_tags is not None:
                sinfo, snode, sconst = save_tags
                tags = set(sconst.string_values())
                variants_of = {}
                for variant, engine in zip(vconst.keys, vconst.values):
                    if variant is not None and engine is not None:
                        variants_of.setdefault(engine, []).append(variant)
                for engine, mapped in sorted(variants_of.items()):
                    if not tags.intersection(mapped):
                        yield self.site(
                            sinfo,
                            snode,
                            f"engine {engine!r} has no variant with a "
                            f"serializer save tag in {_SAVE_TAGS_CONST} "
                            f"(its variants {sorted(mapped)} only restore)",
                        )
                for tag in sorted(tags):
                    if tag not in variants:
                        yield self.site(
                            sinfo,
                            snode,
                            f"serializer save tag {tag!r} is not a "
                            f"{_MAPPING_CONST} variant",
                        )
            if variant_arms:
                arm_values = {value for value, _, _ in variant_arms}
                for variant in variants:
                    if variant not in arm_values:
                        yield self.site(
                            vinfo,
                            vnode,
                            f"variant {variant!r} has no restore_* arm "
                            f"(its checkpoints cannot be restored)",
                        )
                for value, info, node in variant_arms:
                    if value not in variants:
                        yield self.site(
                            info,
                            node,
                            f"restore arm matches variant {value!r}, "
                            f"which is not a {_MAPPING_CONST} key (dead "
                            f"or misspelled arm)",
                        )

    # ------------------------------------------------------------------

    def _manifest_symmetry(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in index.modules.values():
            writes: List[Tuple[str, ast.AST]] = []
            for child in ast.walk(info.tree):
                if (
                    isinstance(child, ast.Assign)
                    and isinstance(child.value, ast.Dict)
                    and any(
                        isinstance(target, ast.Name)
                        and target.id == _MANIFEST_VAR
                        for target in child.targets
                    )
                ):
                    writes.extend(own_dict_keys(child.value))
            writes.extend(subscript_writes(info.tree, (_MANIFEST_VAR,)))
            reads = subscript_reads(info.tree, (_MANIFEST_VAR,))
            if not writes or not reads:
                # a module holding only one side (or neither) of the
                # manifest round-trip has no symmetry to check
                continue
            written = {key for key, _ in writes}
            read = {key for key, _ in reads}
            for key, node in writes:
                if key not in read:
                    yield self.site(
                        info,
                        node,
                        f"manifest key {key!r} is written by the save "
                        f"path but never read (or validated) on restore",
                    )
            for key, node in reads:
                if key not in written:
                    yield self.site(
                        info,
                        node,
                        f"restore path reads manifest key {key!r} that "
                        f"the save path never writes",
                    )
