"""Static analysis over bytecode: CFG, dominators, natural loops, liveness.

These are the classical compiler analyses that the optimisation passes in
:mod:`repro.optim` build on — in particular allocation hoisting needs
natural-loop detection (to know an allocation sits in a loop) and
liveness (to know the hoisted reference does not clash with a live value).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.jvm.bytecode import (
    CONDITIONAL_BRANCHES,
    Instruction,
    Op,
)


@dataclass
class BasicBlock:
    """Maximal straight-line run of instructions."""

    index: int
    start: int            # first BCI (inclusive)
    end: int              # last BCI (inclusive)
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)

    def bcis(self) -> range:
        return range(self.start, self.end + 1)


class ControlFlowGraph:
    """CFG over one method's bytecode."""

    def __init__(self, code: Sequence[Instruction]) -> None:
        self.code = list(code)
        self.blocks: List[BasicBlock] = []
        self._block_of_bci: Dict[int, int] = {}
        self._build()

    # -- construction ---------------------------------------------------
    def _leaders(self) -> List[int]:
        leaders: Set[int] = {0}
        for bci, ins in enumerate(self.code):
            if ins.op is Op.GOTO:
                leaders.add(ins.target)
                if bci + 1 < len(self.code):
                    leaders.add(bci + 1)
            elif ins.op in CONDITIONAL_BRANCHES:
                leaders.add(ins.target)
                if bci + 1 < len(self.code):
                    leaders.add(bci + 1)
            elif ins.op in (Op.RETURN, Op.IRETURN):
                if bci + 1 < len(self.code):
                    leaders.add(bci + 1)
        return sorted(leaders)

    def _build(self) -> None:
        leaders = self._leaders()
        n = len(self.code)
        for i, start in enumerate(leaders):
            end = (leaders[i + 1] - 1) if i + 1 < len(leaders) else n - 1
            block = BasicBlock(index=i, start=start, end=end)
            self.blocks.append(block)
            for bci in range(start, end + 1):
                self._block_of_bci[bci] = i
        for block in self.blocks:
            last = self.code[block.end]
            succs: List[int] = []
            if last.op is Op.GOTO:
                succs.append(self._block_of_bci[last.target])
            elif last.op in CONDITIONAL_BRANCHES:
                succs.append(self._block_of_bci[last.target])
                if block.end + 1 < n:
                    succs.append(self._block_of_bci[block.end + 1])
            elif last.op in (Op.RETURN, Op.IRETURN):
                pass
            elif block.end + 1 < n:
                succs.append(self._block_of_bci[block.end + 1])
            block.successors = succs
            for s in succs:
                self.blocks[s].predecessors.append(block.index)

    # -- queries ----------------------------------------------------------
    def block_of(self, bci: int) -> BasicBlock:
        return self.blocks[self._block_of_bci[bci]]

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def reachable_blocks(self) -> Set[int]:
        seen: Set[int] = set()
        stack = [0]
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            stack.extend(self.blocks[b].successors)
        return seen


def dominators(cfg: ControlFlowGraph) -> Dict[int, Set[int]]:
    """Classic iterative dominator computation: block → dominator set.

    Unreachable blocks get an empty dominator set.
    """
    reachable = cfg.reachable_blocks()
    all_reachable = set(reachable)
    dom: Dict[int, Set[int]] = {}
    for b in range(len(cfg.blocks)):
        if b not in reachable:
            dom[b] = set()
        elif b == 0:
            dom[b] = {0}
        else:
            dom[b] = set(all_reachable)
    changed = True
    while changed:
        changed = False
        for b in sorted(reachable):
            if b == 0:
                continue
            preds = [p for p in cfg.blocks[b].predecessors if p in reachable]
            if not preds:
                continue
            new = set.intersection(*(dom[p] for p in preds)) | {b}
            if new != dom[b]:
                dom[b] = new
                changed = True
    return dom


@dataclass(frozen=True)
class NaturalLoop:
    """A natural loop found from a back edge ``tail → header``."""

    header: int                 # block index
    tail: int                   # block index of the back-edge source
    body: FrozenSet[int]        # block indices, header included


def natural_loops(cfg: ControlFlowGraph) -> List[NaturalLoop]:
    """All natural loops, one per back edge, sorted by header block."""
    dom = dominators(cfg)
    loops: List[NaturalLoop] = []
    for block in cfg.blocks:
        for succ in block.successors:
            if succ in dom[block.index]:   # back edge block -> succ
                body: Set[int] = {succ}
                stack = [block.index]
                while stack:
                    b = stack.pop()
                    if b in body:
                        continue
                    body.add(b)
                    stack.extend(p for p in cfg.blocks[b].predecessors)
                loops.append(NaturalLoop(header=succ, tail=block.index,
                                         body=frozenset(body)))
    loops.sort(key=lambda l: (l.header, l.tail))
    return loops


def bcis_in_loops(code: Sequence[Instruction]) -> Set[int]:
    """BCIs that sit inside at least one natural loop."""
    cfg = ControlFlowGraph(code)
    inside: Set[int] = set()
    for loop in natural_loops(cfg):
        for b in loop.body:
            inside.update(cfg.blocks[b].bcis())
    return inside


def _uses_defs(ins: Instruction) -> "tuple[Set[int], Set[int]]":
    """Local-variable (uses, defs) of one instruction."""
    if ins.op is Op.LOAD:
        return {ins.args[0]}, set()
    if ins.op is Op.STORE:
        return set(), {ins.args[0]}
    if ins.op is Op.IINC:
        return {ins.args[0]}, {ins.args[0]}
    return set(), set()


def liveness(code: Sequence[Instruction]) -> List[Set[int]]:
    """Per-BCI live-in sets of local variable indices (backward dataflow)."""
    cfg = ControlFlowGraph(code)
    n = len(code)
    live_in: List[Set[int]] = [set() for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for bci in range(n - 1, -1, -1):
            ins = code[bci]
            # successor BCIs
            succs: List[int] = []
            if ins.op is Op.GOTO:
                succs = [ins.target]
            elif ins.op in CONDITIONAL_BRANCHES:
                succs = [ins.target]
                if bci + 1 < n:
                    succs.append(bci + 1)
            elif ins.op in (Op.RETURN, Op.IRETURN):
                succs = []
            elif bci + 1 < n:
                succs = [bci + 1]
            live_out: Set[int] = set()
            for s in succs:
                live_out |= live_in[s]
            uses, defs = _uses_defs(ins)
            new_in = uses | (live_out - defs)
            if new_in != live_in[bci]:
                live_in[bci] = new_in
                changed = True
    return live_in
