"""Synthetic workflow generators for benchmarks and stress tests.

Random layered DAGs built from the basic numeric modules, with controllable
size, shape, fan-in and per-module compute cost — the substrate for the
capture-overhead, storage and query benchmarks.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.evolution.actions import (Action, AddConnection, AddModule,
                                     SetParameter)
from repro.evolution.vistrail import Vistrail
from repro.workflow.spec import Module, Workflow

__all__ = ["random_workflow", "chain_workflow", "wide_workflow",
           "random_edit_session"]


def chain_workflow(length: int, *, work: int = 50,
                   name: str = "chain") -> Workflow:
    """A linear pipeline: one source followed by ``length`` compute stages."""
    workflow = Workflow(name)
    source = workflow.add_module(Module("NumberConstant", name="source",
                                        parameters={"value": 1.0}))
    previous = (source.id, "value")
    for index in range(length):
        stage = workflow.add_module(Module(
            "SpinCompute", name=f"stage{index:03d}",
            parameters={"work": work}))
        workflow.connect(previous[0], previous[1], stage.id, "value")
        previous = (stage.id, "value")
    return workflow


def wide_workflow(branches: int = 8, depth: int = 2, *,
                  sleep: float = 0.0, work: int = 50,
                  name: str = "wide") -> Workflow:
    """A wide fan-out DAG: one source feeding ``branches`` parallel chains.

    Each branch is an independent chain of ``depth`` stages hanging off a
    shared source, so a parallel scheduler can overlap all branches.  With
    ``sleep > 0`` the stages are wall-clock-bound ``Sleep`` modules (they
    release the GIL — the substrate for scheduler speedup benchmarks);
    otherwise they are CPU-bound ``SpinCompute`` stages.  Branch parameters
    differ slightly per branch so no two branches share a cache signature.
    """
    workflow = Workflow(name)
    source = workflow.add_module(Module("NumberConstant", name="source",
                                        parameters={"value": 1.0}))
    for branch in range(branches):
        previous = (source.id, "value")
        for stage in range(depth):
            if sleep > 0:
                module = workflow.add_module(Module(
                    "Sleep", name=f"b{branch:02d}s{stage:02d}",
                    parameters={"seconds": sleep + branch * 1e-6}))
            else:
                module = workflow.add_module(Module(
                    "SpinCompute", name=f"b{branch:02d}s{stage:02d}",
                    parameters={"work": work + branch}))
            workflow.connect(previous[0], previous[1], module.id, "value")
            previous = (module.id, "value")
    return workflow


def random_workflow(modules: int = 20, *, width: int = 4, seed: int = 0,
                    work: int = 50, fanin_prob: float = 0.35,
                    name: str = "") -> Workflow:
    """A random layered DAG of numeric modules.

    Layer 0 holds sources (``NumberConstant``); later layers mix ``Scale``
    (one input), ``Add`` (two inputs) and ``SpinCompute`` (one input,
    controllable cost).  Every mandatory input is wired to a module in an
    earlier layer, so the result always validates and runs.

    Args:
        modules: total module count (>= width + 1).
        width: modules per layer.
        seed: RNG seed — equal seeds give identical workflows.
        work: SpinCompute busy-loop units.
        fanin_prob: probability a non-source module is a two-input Add.
    """
    rng = random.Random(seed)
    workflow = Workflow(name or f"random-{modules}-{seed}")
    # every module of the finished layers, in placement order
    upstream_pool: List[Module] = []
    for index in range(width):
        module = workflow.add_module(Module(
            "NumberConstant", name=f"src{index}",
            parameters={"value": float(rng.randint(1, 100))}))
        upstream_pool.append(module)
    placed = width
    layer_index = 0
    while placed < modules:
        layer_index += 1
        layer: List[Module] = []
        for position in range(min(width, modules - placed)):
            if rng.random() < fanin_prob:
                module = workflow.add_module(Module(
                    "Add", name=f"add-{layer_index}-{position}"))
                first, second = rng.sample(
                    upstream_pool, k=min(2, len(upstream_pool)))
                workflow.connect(first.id, _out_port(first), module.id, "a")
                workflow.connect(second.id, _out_port(second),
                                 module.id, "b")
            elif rng.random() < 0.5:
                module = workflow.add_module(Module(
                    "Scale", name=f"scale-{layer_index}-{position}",
                    parameters={"factor": rng.uniform(0.5, 2.0)}))
                upstream = rng.choice(upstream_pool)
                workflow.connect(upstream.id, _out_port(upstream),
                                 module.id, "value")
            else:
                module = workflow.add_module(Module(
                    "SpinCompute", name=f"spin-{layer_index}-{position}",
                    parameters={"work": work}))
                upstream = rng.choice(upstream_pool)
                workflow.connect(upstream.id, _out_port(upstream),
                                 module.id, "value")
            layer.append(module)
            placed += 1
        upstream_pool.extend(layer)
    return workflow


def _out_port(module: Module) -> str:
    if module.type_name in ("NumberConstant",):
        return "value"
    if module.type_name in ("Add", "Scale"):
        return "result"
    return "value"  # SpinCompute


def random_edit_session(actions: int = 50, *, seed: int = 0,
                        name: str = "session") -> Vistrail:
    """A random but always-consistent editing session in a vistrail.

    Starts from a small chain, then applies a random mix of parameter
    tweaks, module additions (wired to an existing module) and renames —
    the workload for version-tree benchmarks and evolution mining.
    """
    rng = random.Random(seed)
    vistrail = Vistrail(name)
    source = AddModule.of("NumberConstant", "seed-source",
                          {"value": 1.0})
    stage = AddModule.of("Scale", "seed-scale", {"factor": 2.0})
    vistrail.add_actions([
        source, stage,
        AddConnection.of(source.module_id, "value",
                         stage.module_id, "value"),
    ], tag="seed")
    known_modules = [(source.module_id, "value"),
                     (stage.module_id, "result")]

    parameter_for = {"NumberConstant": "value", "Scale": "factor",
                     "SpinCompute": "work", "Identity": None}

    for step in range(actions):
        choice = rng.random()
        if choice < 0.4:
            module_id, _ = rng.choice(known_modules)
            workflow = vistrail.materialize(vistrail.current)
            module = workflow.modules[module_id]
            parameter = parameter_for.get(module.type_name)
            if parameter is None:
                from repro.evolution.actions import RenameModule
                vistrail.add_action(RenameModule(
                    module_id=module_id, name=f"touched-{step}"))
            else:
                vistrail.add_action(SetParameter(
                    module_id=module_id, name=parameter,
                    value=round(rng.uniform(0.5, 10.0), 3)))
        elif choice < 0.85:
            kind = rng.choice(["Scale", "SpinCompute", "Identity"])
            module = AddModule.of(kind, f"{kind.lower()}-{step}")
            upstream, port = rng.choice(known_modules)
            vistrail.add_actions([
                module,
                AddConnection.of(upstream, port, module.module_id,
                                 "value"),
            ])
            out = "result" if kind == "Scale" else "value"
            known_modules.append((module.module_id, out))
        else:
            module_id, _ = rng.choice(known_modules)
            from repro.evolution.actions import RenameModule
            vistrail.add_action(RenameModule(
                module_id=module_id, name=f"renamed-{step}"))
        if rng.random() < 0.1:
            # branch: jump back to a random earlier version and rebuild
            # the set of modules that exist there
            version = rng.choice(list(vistrail.nodes))
            workflow = vistrail.checkout(version)
            known_modules = [
                (module.id,
                 "result" if module.type_name in ("Scale", "Add")
                 else "value")
                for module in workflow.modules.values()]
            if not known_modules:
                vistrail.checkout(vistrail.find_tag("seed")
                                  or vistrail.ROOT)
                workflow = vistrail.materialize(vistrail.current)
                known_modules = [
                    (module.id,
                     "result" if module.type_name in ("Scale", "Add")
                     else "value")
                    for module in workflow.modules.values()]
    return vistrail
