"""Compiled bytecode dispatch: per-method tables of handler closures.

At class-load/JIT time, :func:`compile_dispatch` translates a method's
instruction list into a table with one *bound handler closure* per
bytecode — each closure has its opcode's behaviour specialised on the
decoded arguments (constants folded, branch targets resolved, argument
tuples unpacked), so :meth:`repro.jvm.interpreter.Interpreter.run_quantum`
becomes a tight loop over prebuilt callables instead of re-branching on
``ins.op`` for every step.  This is the simulator analogue of a
threaded-code interpreter (and of what HotSpot's template interpreter
does with its per-opcode code stubs).

Handler protocol
----------------
``handler(thread, frame) -> next_pc`` where ``next_pc`` is the bytecode
index to continue at, or ``-1`` when the stretch must end because the
top frame changed or may have changed (INVOKE/RETURN/IRETURN push or pop
frames; NATIVE may park or finish the thread).  The driver re-reads
``thread.frames[-1]`` — and the method's cycles-per-instruction, which a
recursive INVOKE can change by triggering a JIT compile — after every
``-1``.

Equivalence contract (the fast path must be observationally invisible):

* ``frame.pc`` is only read by observers *during* instruction execution
  (PMU overflow unwinds, allocation-hook paths).  Handlers whose body
  can publish an event therefore store their own bci into ``frame.pc``
  before doing the work, exactly matching what the legacy interpreter
  (which keeps ``frame.pc`` current at all times) would expose.  Pure
  stack/arithmetic handlers skip the store — nothing can observe the
  stale value in between.
* One handler table serves every stretch, observed or not; the values
  its memory handlers pass to :meth:`Machine.memory_access` matter
  only while a sampler is armed (they arm watchpoints).  Only the fused
  tables come in an observed and an unobserved variant (see "Guard
  protocol" below); the interpreter re-picks the variant each stretch,
  which is why a mid-run subscribe or ``open_sampler`` takes effect on
  the next stretch (at the latest, the next scheduler quantum).
* INVOKE stores the *return address* before pushing the callee frame,
  as the legacy path does, so async unwinds attribute caller frames to
  the instruction after the call site.
* Errors carry the same messages: TrapErrors raised inside handlers
  propagate untouched; any other exception is wrapped by the driver
  with the legacy ``"<method> bci <pc> (<ins>): <exc>"`` decoration.
  INVOKE wraps its own failures because the legacy path reports them
  against the already-advanced ``frame.pc``.
"""

from __future__ import annotations

import re

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.heap.allocator import Ref
from repro.heap.layout import Kind
from repro.jvm.bytecode import Instruction, Op

#: A compiled instruction: (thread, frame) -> next pc, or -1 on frame switch.
Handler = Callable[[object, object], int]


def compile_dispatch(machine, runtime) -> List[Handler]:
    """Build a handler table for ``runtime``'s method.

    Cached on ``runtime.dispatch_table`` by the interpreter; safe to
    reuse across JIT recompilations because the bytecode is immutable.
    """
    from repro.jvm.interpreter import (
        ArithmeticTrap,
        Frame,
        NullPointerError,
        ThreadState,
        TrapError,
        _int_div,
        _int_rem,
    )

    method = runtime.method
    qname = method.qualified_name
    heap = machine.heap
    method_table = machine.method_table
    finished = ThreadState.FINISHED
    # Bound once per table: every memory-touching handler calls this.
    memory_access = machine.memory_access

    def deref(ref, bci: int, ins: Instruction):
        if not isinstance(ref, Ref):
            raise NullPointerError(
                f"{qname} bci {bci} ({ins!r}): dereferencing {ref!r}")
        return heap.get(ref)

    table: List[Handler] = []
    for bci, ins in enumerate(method.code):
        op = ins.op
        nxt = bci + 1

        if op is Op.LOAD:
            index = ins.args[0]

            def h(thread, frame, index=index, nxt=nxt):
                locals_ = frame.locals
                frame.stack.append(
                    locals_[index] if index < len(locals_) else None)
                return nxt

        elif op is Op.ICONST or op is Op.FCONST:
            value = ins.args[0]

            def h(thread, frame, value=value, nxt=nxt):
                frame.stack.append(value)
                return nxt

        elif op is Op.ALOAD:
            def h(thread, frame, bci=bci, ins=ins, nxt=nxt):
                frame.pc = bci
                stack = frame.stack
                index = stack.pop()
                obj = deref(stack.pop(), bci, ins)
                # element_address bounds-checks; the direct list read
                # replaces get_element's re-check of the same bounds.
                address = obj.element_address(index)
                value = obj.elements[index]
                memory_access(thread, address, obj.elem_size(),
                              is_write=False, value=value)
                stack.append(value)
                return nxt

        elif op is Op.IINC:
            index, delta = ins.args

            def h(thread, frame, index=index, delta=delta, nxt=nxt):
                locals_ = frame.locals
                if index >= len(locals_):
                    locals_.extend([None] * (index + 1 - len(locals_)))
                locals_[index] = locals_[index] + delta
                return nxt

        elif op in _CMP_BRANCHES:
            compare = _CMP_BRANCHES[op]
            target = ins.args[0]

            def h(thread, frame, compare=compare, target=target, nxt=nxt):
                stack = frame.stack
                b = stack.pop()
                return target if compare(stack.pop(), b) else nxt

        elif op in _ZERO_BRANCHES:
            test = _ZERO_BRANCHES[op]
            target = ins.args[0]

            def h(thread, frame, test=test, target=target, nxt=nxt):
                return target if test(frame.stack.pop()) else nxt

        elif op is Op.GOTO:
            target = ins.args[0]

            def h(thread, frame, target=target):
                return target

        elif op is Op.POP:
            def h(thread, frame, nxt=nxt):
                frame.stack.pop()
                return nxt

        elif op is Op.STORE:
            index = ins.args[0]

            def h(thread, frame, index=index, nxt=nxt):
                value = frame.stack.pop()
                locals_ = frame.locals
                if index >= len(locals_):
                    locals_.extend([None] * (index + 1 - len(locals_)))
                locals_[index] = value
                return nxt

        elif op is Op.ASTORE:
            def h(thread, frame, bci=bci, ins=ins, nxt=nxt):
                frame.pc = bci
                stack = frame.stack
                value = stack.pop()
                index = stack.pop()
                obj = deref(stack.pop(), bci, ins)
                # element_address bounds-checks; the direct list write
                # replaces set_element's re-check of the same bounds.
                memory_access(thread, obj.element_address(index),
                              obj.elem_size(), is_write=True,
                              value=value)
                obj.elements[index] = value
                return nxt

        elif op is Op.ACONST_NULL:
            def h(thread, frame, nxt=nxt):
                frame.stack.append(None)
                return nxt

        elif op is Op.DUP:
            def h(thread, frame, nxt=nxt):
                stack = frame.stack
                stack.append(stack[-1])
                return nxt

        elif op is Op.SWAP:
            def h(thread, frame, nxt=nxt):
                stack = frame.stack
                stack[-1], stack[-2] = stack[-2], stack[-1]
                return nxt

        elif op in _BINOPS:
            binop = _BINOPS[op]

            def h(thread, frame, binop=binop, nxt=nxt):
                stack = frame.stack
                b = stack.pop()
                stack.append(binop(stack.pop(), b))
                return nxt

        elif op is Op.DIV:
            def h(thread, frame, nxt=nxt):
                stack = frame.stack
                b = stack.pop()
                a = stack.pop()
                if isinstance(a, float) or isinstance(b, float):
                    if b == 0:
                        raise ArithmeticTrap("float division by zero")
                    stack.append(a / b)
                else:
                    stack.append(_int_div(a, b))
                return nxt

        elif op is Op.REM:
            def h(thread, frame, nxt=nxt):
                stack = frame.stack
                b = stack.pop()
                a = stack.pop()
                stack.append(_int_rem(a, b) if isinstance(a, int)
                             and isinstance(b, int) else a % b)
                return nxt

        elif op is Op.NEG:
            def h(thread, frame, nxt=nxt):
                stack = frame.stack
                stack.append(-stack.pop())
                return nxt

        elif op is Op.I2F:
            def h(thread, frame, nxt=nxt):
                stack = frame.stack
                stack.append(float(stack.pop()))
                return nxt

        elif op is Op.F2I:
            def h(thread, frame, nxt=nxt):
                stack = frame.stack
                stack.append(int(stack.pop()))
                return nxt

        elif op is Op.INVOKE:
            method_name, argc = ins.args

            def h(thread, frame, method_name=method_name, argc=argc,
                  ins=ins, nxt=nxt):
                stack = frame.stack
                if argc:
                    args = stack[-argc:]
                    del stack[-argc:]
                else:
                    args = []
                frame.pc = nxt            # return address
                # The legacy interpreter has already advanced frame.pc
                # when resolution fails, so errors report bci ``nxt``;
                # wrap here rather than in the driver to preserve that.
                try:
                    callee = method_table.runtime(method_name)
                    pause = method_table.on_invoke(callee)
                except TrapError:
                    raise
                except Exception as exc:
                    raise TrapError(
                        f"{qname} bci {nxt} ({ins!r}): {exc}") from exc
                if pause:
                    thread.cycles += pause
                thread.frames.append(Frame(callee, args))
                return -1

        elif op is Op.NATIVE:
            name, argc, has_result = ins.args[0], ins.args[1], ins.args[2]
            consts = ins.args[3:]

            def h(thread, frame, name=name, argc=argc,
                  has_result=has_result, consts=consts, bci=bci, nxt=nxt):
                frame.pc = bci
                stack = frame.stack
                if argc:
                    args = stack[-argc:]
                    del stack[-argc:]
                else:
                    args = []
                result = machine.call_native(name, thread, args, consts)
                if has_result:
                    stack.append(result)
                # A native may have parked or finished the thread; keep
                # pc pointing past the native and let the driver re-read
                # the thread state.
                frame.pc = nxt
                return -1

        elif op is Op.RETURN or op is Op.IRETURN:
            returns_value = op is Op.IRETURN

            def h(thread, frame, returns_value=returns_value):
                value = frame.stack.pop() if returns_value else None
                frames = thread.frames
                frames.pop()
                if frames:
                    frames[-1].stack.append(value)
                else:
                    thread.result = value
                    thread.state = finished
                    machine.on_thread_finished(thread)
                return -1

        elif op is Op.NEW:
            class_name = ins.args[0]
            cell: List = [None]

            def h(thread, frame, class_name=class_name, cell=cell,
                  bci=bci, nxt=nxt):
                frame.pc = bci
                jclass = cell[0]
                if jclass is None:
                    # Resolved on first execution, as the legacy path
                    # does, so unknown classes trap at run time.
                    jclass = machine.program.jclass(class_name)
                    cell[0] = jclass
                frame.stack.append(machine.allocate_instance(jclass, thread))
                return nxt

        elif op is Op.NEWARRAY:
            elem_kind = ins.args[0]

            def h(thread, frame, elem_kind=elem_kind, bci=bci, nxt=nxt):
                frame.pc = bci
                stack = frame.stack
                length = stack.pop()
                stack.append(machine.allocate_array(elem_kind, length, thread))
                return nxt

        elif op is Op.ANEWARRAY:
            def h(thread, frame, bci=bci, nxt=nxt):
                frame.pc = bci
                stack = frame.stack
                length = stack.pop()
                stack.append(machine.allocate_array(Kind.REF, length, thread))
                return nxt

        elif op is Op.MULTIANEWARRAY:
            elem_kind, dims = ins.args

            def h(thread, frame, elem_kind=elem_kind, dims=dims,
                  bci=bci, nxt=nxt):
                frame.pc = bci
                stack = frame.stack
                lengths = [stack.pop() for _ in range(dims)][::-1]
                stack.append(
                    machine.allocate_multi_array(elem_kind, lengths, thread))
                return nxt

        elif op is Op.GETFIELD:
            field_name = ins.args[0]

            def h(thread, frame, field_name=field_name, ins=ins,
                  bci=bci, nxt=nxt):
                frame.pc = bci
                stack = frame.stack
                obj = deref(stack.pop(), bci, ins)
                value = obj.get_field(field_name)
                memory_access(thread, obj.field_address(field_name),
                              8, is_write=False, value=value)
                stack.append(value)
                return nxt

        elif op is Op.PUTFIELD:
            field_name = ins.args[0]

            def h(thread, frame, field_name=field_name, ins=ins,
                  bci=bci, nxt=nxt):
                frame.pc = bci
                stack = frame.stack
                value = stack.pop()
                obj = deref(stack.pop(), bci, ins)
                memory_access(thread, obj.field_address(field_name),
                              8, is_write=True, value=value)
                obj.set_field(field_name, value)
                return nxt

        elif op is Op.GETSTATIC:
            key = ins.args[0]

            def h(thread, frame, key=key, bci=bci, nxt=nxt):
                frame.pc = bci
                address = machine.static_address(key)
                value = machine.get_static(key)
                memory_access(thread, address, 8, is_write=False,
                              value=value)
                frame.stack.append(value)
                return nxt

        elif op is Op.PUTSTATIC:
            key = ins.args[0]

            def h(thread, frame, key=key, bci=bci, nxt=nxt):
                frame.pc = bci
                address = machine.static_address(key)
                value = frame.stack.pop()
                memory_access(thread, address, 8, is_write=True,
                              value=value)
                machine.set_static(key, value)
                return nxt

        elif op is Op.ARRAYLENGTH:
            def h(thread, frame, ins=ins, bci=bci, nxt=nxt):
                frame.pc = bci
                stack = frame.stack
                obj = deref(stack.pop(), bci, ins)
                # length lives in the header's second word
                memory_access(thread, obj.addr + 8, 8, is_write=False,
                              value=obj.length)
                stack.append(obj.length)
                return nxt

        elif op is Op.NOP:
            def h(thread, frame, nxt=nxt):
                return nxt

        else:  # pragma: no cover - exhaustive over Op
            def h(thread, frame, op=op):
                raise TrapError(f"unimplemented opcode {op}")

        table.append(h)
    return table


def _add(a, b):
    return a + b


def _sub(a, b):
    return a - b


def _mul(a, b):
    return a * b


def _shl(a, b):
    return a << b


def _shr(a, b):
    return a >> b


def _and(a, b):
    return a & b


def _or(a, b):
    return a | b


def _xor(a, b):
    return a ^ b


_BINOPS = {
    Op.ADD: _add, Op.SUB: _sub, Op.MUL: _mul,
    Op.SHL: _shl, Op.SHR: _shr,
    Op.AND: _and, Op.OR: _or, Op.XOR: _xor,
}

_CMP_BRANCHES = {
    Op.IF_ICMPEQ: lambda a, b: a == b,
    Op.IF_ICMPNE: lambda a, b: a != b,
    Op.IF_ICMPLT: lambda a, b: a < b,
    Op.IF_ICMPGE: lambda a, b: a >= b,
    Op.IF_ICMPGT: lambda a, b: a > b,
    Op.IF_ICMPLE: lambda a, b: a <= b,
}

_ZERO_BRANCHES = {
    Op.IF_EQ: lambda v: v == 0,
    Op.IF_NE: lambda v: v != 0,
    Op.IF_LT: lambda v: v < 0,
    Op.IF_GE: lambda v: v >= 0,
    Op.IF_GT: lambda v: v > 0,
    Op.IF_LE: lambda v: v <= 0,
    Op.IF_NULL: lambda v: v is None,
    Op.IF_NONNULL: lambda v: v is not None,
}


# ----------------------------------------------------------------------
# Superinstruction fusion
# ----------------------------------------------------------------------
# compile_fused() raises dispatch one level above the per-opcode tables:
# straight-line handler runs (basic blocks, per the verifier's
# block_leaders) are compiled — via Python source generation + exec, the
# simulator's analogue of a template JIT emitting a fused code stub —
# into single *superinstruction* closures that execute the whole block
# with one call.  The driver pays one fused-table lookup and one call
# per block instead of one dict-free but still per-instruction closure
# call each.
#
# Fusion rules
# ------------
# * Blocks start at basic-block leaders and never cross one, so control
#   can only enter a superinstruction at its head (a branch into the
#   interior lands on a ``None`` fused-table slot and runs per-handler).
# * Stretch enders (INVOKE/NATIVE/RETURN/IRETURN) and allocation sites
#   are never fused: they switch frames, may run GC, or publish events
#   that observe ``frame.pc`` mid-instruction.  The instrumented
#   ``alloc; DUP; hook`` triple therefore always runs per-handler.
# * A conditional branch or GOTO may only *terminate* a block; the
#   closure returns the taken target exactly as the handler would.
# * Minimum block size is 2 — fusing a single handler only adds a
#   wrapper.
#
# Guard protocol (observed tables)
# --------------------------------
# A fused block's memory accesses are issued back-to-back without the
# per-access ``frame.pc`` stores and per-access PMU observation the
# observed handlers perform.  That is only invisible when (a) no
# collector records raw accesses, and (b) the whole block provably fits
# inside every armed counter's countdown — i.e. ``bus.bulk_budget(tid,
# wclass) >= n_accesses`` under skip-ahead counting, so no overflow (and
# hence no mid-block async unwind) can occur.  The closure checks that
# guard on entry; on success it runs an inlined fast body that
# histograms per-access outcome combos and applies them in one
# ``observe_bulk_map`` step, and on failure it falls back to calling
# the block's per-handler chain (counting a ``guard_bailouts`` stat),
# which preserves exact per-access observation order.  The fast body
# also checks each address against the thread's watchpoints (``W``, an
# empty dict but for watch samplers) and traps a hit in place: a trap
# unwinds no stack, so it needs no bailout, and no sample can fire in
# the block to arm another.  Unobserved tables need no guard and no
# check: their stretches run with no sampler armed (so no watchpoint)
# and no access collector, which cannot change mid-stretch.
#
# Symbolic-stack compilation
# --------------------------
# Within a block the operand stack is tracked *at compile time*: pure
# pushes (LOAD/ICONST/DUP results, constants) become deferred
# expressions, every value-computing or faultable op materialises into
# a local temp at its own position, operands are popped from the real
# ``frame.stack`` lazily (only when the symbolic stack runs dry, in
# handler order), and whatever survives the block is pushed back in one
# step at the exit.  A LOAD whose slot is written later in the block is
# snapshotted into a temp at its own position; otherwise the (pure)
# read is deferred to its use.  One hoisted bound check replaces the
# per-STORE/IINC ``locals`` extension — growing ``frame.locals`` early
# is invisible because LOAD treats missing and None slots identically.
#
# Fault protocol
# --------------
# Every generated closure tracks the in-block instruction index
# (``ipc``, updated just before each *faultable* statement) and, on any
# exception, stores ``thread.fused_fault = (faulting_bci,
# instructions_charged)`` before re-raising — the fused driver uses it
# to charge partial progress and pin ``frame.pc`` to the faulting bci,
# byte-identically to per-handler execution (including the
# trap-message decoration, which the driver still applies).  Deferred
# expressions are restricted to non-faulting reads, so a fault always
# surfaces at a marked statement.  On a mid-block fault the real
# stack/locals hold the values semantics of per-handler execution
# (same heap, cache, cycle and sample state; completed instructions'
# pushes may still be pending in temps) — the faulted frame never
# resumes, so the difference is unobservable.

#: A fused-table entry: ``(closure, instruction_count)`` at a block
#: leader, ``None`` everywhere else.  Closures never return -1.
FusedEntry = Optional[Tuple[Handler, int]]

#: Ops an interior (non-tail) fused instruction may use.
_FUSABLE_BODY = frozenset({
    Op.LOAD, Op.STORE, Op.IINC, Op.ICONST, Op.FCONST, Op.ACONST_NULL,
    Op.POP, Op.DUP, Op.SWAP, Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM,
    Op.NEG, Op.SHL, Op.SHR, Op.AND, Op.OR, Op.XOR, Op.I2F, Op.F2I,
    Op.ALOAD, Op.ASTORE, Op.GETFIELD, Op.PUTFIELD, Op.GETSTATIC,
    Op.PUTSTATIC, Op.ARRAYLENGTH, Op.NOP,
})

#: Ops that may only terminate a fused block.
_FUSABLE_TAIL = (frozenset(_CMP_BRANCHES) | frozenset(_ZERO_BRANCHES)
                 | {Op.GOTO})

#: Ops that issue a memory access (size 8, 8-aligned by heap layout).
_ACCESS_OPS = frozenset({
    Op.ALOAD, Op.ASTORE, Op.GETFIELD, Op.PUTFIELD, Op.GETSTATIC,
    Op.PUTSTATIC, Op.ARRAYLENGTH,
})

_WRITE_OPS = frozenset({Op.ASTORE, Op.PUTFIELD, Op.PUTSTATIC})

_BINOP_SYMS = {
    Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", Op.SHL: "<<", Op.SHR: ">>",
    Op.AND: "&", Op.OR: "|", Op.XOR: "^",
}

_CMP_SYMS = {
    Op.IF_ICMPEQ: "==", Op.IF_ICMPNE: "!=", Op.IF_ICMPLT: "<",
    Op.IF_ICMPGE: ">=", Op.IF_ICMPGT: ">", Op.IF_ICMPLE: "<=",
}

_ZERO_TESTS = {
    Op.IF_EQ: "v == 0", Op.IF_NE: "v != 0", Op.IF_LT: "v < 0",
    Op.IF_GE: "v >= 0", Op.IF_GT: "v > 0", Op.IF_LE: "v <= 0",
    Op.IF_NULL: "v is None", Op.IF_NONNULL: "v is not None",
}

#: Expressions safe to duplicate / substitute without a pinning temp:
#: bare names (temps, bound constants, None) and integer literals.
_ATOM_RE = re.compile(r"-?\d+|[A-Za-z_]\w*")


def fused_blocks(code) -> List["tuple[int, int]"]:
    """``[start, end)`` ranges of fusable straight-line runs (size >= 2).

    Blocks begin at basic-block leaders, contain only fusable ops, and
    stop before the next leader; a branch may be the final instruction.
    """
    from repro.jvm.verifier import block_leaders

    leaders = block_leaders(code)
    n = len(code)
    blocks: List[tuple] = []
    for start in sorted(leaders):
        if start >= n:
            continue
        end = start
        while end < n:
            if end > start and end in leaders:
                break
            op = code[end].op
            if op in _FUSABLE_TAIL:
                end += 1
                break
            if op not in _FUSABLE_BODY:
                break
            end += 1
        if end - start >= 2:
            blocks.append((start, end))
    return blocks


class _FusedArtifact:
    """Machine-independent half of a fused compilation.

    ``code`` holds one compiled code object per entry of ``blocks``,
    each defining that block's ``_sf_<start>`` (empty when the method
    has no fusable blocks).  Blocks compile separately because
    ``compile()``'s transient memory grows with the module: one
    191 KB module for a 153-block method peaked at 19 MB.
    ``consts`` holds the machine-independent name bindings the code
    needs (Instruction objects, non-inlinable constants),
    ``chain_bcis`` the bytecode indices whose plain handlers the
    observed bailout chain calls — those are bound per machine at
    instantiation time.
    """

    __slots__ = ("code", "consts", "blocks", "chain_bcis")

    def __init__(self, code, consts, blocks, chain_bcis):
        self.code = code
        self.consts = consts
        self.blocks = blocks
        self.chain_bcis = chain_bcis


class FusedCodegenCache:
    """Process-wide warm cache for fused superinstruction codegen.

    Source generation and ``compile()`` are the expensive parts of
    :func:`compile_fused`, and they depend only on the method's
    bytecode and the observation variant — never on the machine.  A
    long-lived shard daemon therefore generates each (method, variant)
    once and replays the per-block code objects for every later job;
    fleet placement pins a program to one shard, so repeat traffic is
    almost all warm hits.
    Bounded LRU: eviction only costs a regeneration.  Arguments are
    keyed by type and ``repr``, not equality: ``0.0`` and ``-0.0``
    bind different constants, and a rebuilt NaN must still hit.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, _FusedArtifact]" = OrderedDict()

    @staticmethod
    def key_for(method, observed: bool) -> tuple:
        code = method.code
        return (method.qualified_name, bool(observed),
                tuple([ins.op for ins in code]),
                tuple([type(a) for ins in code for a in ins.args]),
                repr([ins.args for ins in code]))

    def get(self, method, observed: bool,
            counts: Optional[Dict[str, int]] = None) -> _FusedArtifact:
        """The method's artifact, generated on a miss.  ``counts`` (the
        calling machine's ``warm`` tally) records the lookup too."""
        key = self.key_for(method, observed)
        art = self._entries.get(key)
        if counts is not None:
            counts["hits" if art is not None else "misses"] += 1
        if art is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return art
        self.misses += 1
        art = _generate_fused(method, observed)
        self._entries[key] = art
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return art

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries)}

    def clear(self) -> None:
        self.hits = 0
        self.misses = 0
        self._entries.clear()


_CODEGEN_CACHE = FusedCodegenCache()


def warm_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters for the process-wide codegen cache."""
    return _CODEGEN_CACHE.stats()


def reset_warm_cache() -> None:
    _CODEGEN_CACHE.clear()


def _generate_fused(method, observed: bool) -> _FusedArtifact:
    """Generate and compile a method's superinstructions, block by block.

    Everything here is machine-independent; :func:`compile_fused`
    finishes the job per machine by layering its bound closures (heap
    deref, hierarchy access, event bus, plain-handler chain) on top of
    ``consts`` and exec-ing each block's code object.
    """
    code = method.code
    qname = method.qualified_name

    consts: dict = {}
    chain_bcis: set = set()

    def lit(value, name: str) -> str:
        """Inline int/str/bool constants; bind anything else by name."""
        if type(value) in (int, str, bool):
            return repr(value)
        consts[name] = value
        return name

    def emit_access(out, ind, addr_expr, size_expr, is_write, combo):
        # Guarded bodies bind the address to ``a`` for emit_watch.
        if combo:
            out.append(f"{ind}a = {addr_expr}")
            addr_expr = "a"
        out.append(f"{ind}r = _ah(thread.cpu, {addr_expr}, {size_expr}, "
                   f"{is_write})")
        out.append(f"{ind}thread.cycles += r.latency")
        if combo:
            if is_write:
                out.append(f"{ind}ci = _LB[r.level] "
                           f"+ (4 if r.tlb_misses else 0) "
                           f"+ (3 if r.remote else 2)")
            else:
                out.append(f"{ind}ci = _LB[r.level] "
                           f"+ (4 if r.tlb_misses else 0) "
                           f"+ (1 if r.remote else 0)")
            out.append(f"{ind}combos[ci] = combos.get(ci, 0) + 1")

    def emit_watch(out, ind, is_write, value):
        out.append(f"{ind}if W and a in W: _wt(thread, a, {is_write}, "
                   f"{value})")

    def gen_fast_body(block, start, ind, guarded) -> List[str]:
        """Symbolic-stack compilation of one block's fast body.

        Returns the body's source lines (prologue included), indented
        with ``ind``.  See the section comment above: pure pushes
        defer, faultable ops materialise into temps at their own
        ``ipc`` marker, the real stack is popped lazily (in handler
        order) and repaid in one push at the exit.
        """
        out: List[str] = []
        syms: List[str] = []            # compile-time operand stack
        state = {"t": 0, "ipc": 0, "stack": False, "locals": False}
        store_idx = [ins.args[0] for ins in block
                     if ins.op in (Op.STORE, Op.IINC)]
        maxstore = max(store_idx) if store_idx else -1

        def newt() -> str:
            state["t"] += 1
            return f"t{state['t']}"

        def spop() -> str:
            if syms:
                return syms.pop()
            state["stack"] = True
            t = newt()
            out.append(f"{ind}{t} = stack.pop()")
            return t

        def mat(expr: str) -> str:
            """Pin a pure expression's value into a temp unless it is
            already a bare name or an integer literal."""
            if _ATOM_RE.fullmatch(expr):
                return expr
            t = newt()
            out.append(f"{ind}{t} = {expr}")
            return t

        def marker(j: int) -> None:
            if state["ipc"] != j:
                out.append(f"{ind}ipc = {j}")
                state["ipc"] = j

        def load_expr(i: int) -> str:
            state["locals"] = True
            if i <= maxstore:       # hoisted extend covers the slot
                return f"L[{i}]"
            return f"(L[{i}] if {i} < len(L) else None)"

        def emit_one(j: int, ins) -> None:
            bci = start + j
            op = ins.op
            if op is Op.LOAD:
                i = ins.args[0]
                e = load_expr(i)
                if any(b.op in (Op.STORE, Op.IINC) and b.args[0] == i
                       for b in block[j + 1:]):
                    e = mat(e)      # slot rewritten later: snapshot now
                syms.append(e)
            elif op is Op.ICONST or op is Op.FCONST:
                syms.append(lit(ins.args[0], f"c{bci}"))
            elif op is Op.ACONST_NULL:
                syms.append("None")
            elif op is Op.POP:
                if syms:
                    syms.pop()      # deferred exprs are pure: just drop
                else:
                    state["stack"] = True
                    out.append(f"{ind}stack.pop()")
            elif op is Op.DUP:
                if syms:
                    if not _ATOM_RE.fullmatch(syms[-1]):
                        syms[-1] = mat(syms[-1])
                    syms.append(syms[-1])
                else:
                    state["stack"] = True
                    t = newt()
                    out.append(f"{ind}{t} = stack[-1]")
                    syms.append(t)
            elif op is Op.SWAP:
                a = spop()
                b = spop()
                syms.append(a)
                syms.append(b)
            elif op is Op.IINC:
                i, delta = ins.args
                state["locals"] = True
                marker(j)
                out.append(f"{ind}L[{i}] = L[{i}] "
                           f"+ {lit(delta, f'c{bci}')}")
            elif op is Op.STORE:
                i = ins.args[0]
                v = spop()
                state["locals"] = True
                out.append(f"{ind}L[{i}] = {v}")
            elif op in _BINOP_SYMS:
                b = spop()
                a = spop()
                marker(j)
                t = newt()
                out.append(f"{ind}{t} = {a} {_BINOP_SYMS[op]} {b}")
                syms.append(t)
            elif op is Op.DIV:
                b = mat(spop())
                a = mat(spop())
                marker(j)
                t = newt()
                out.append(f"{ind}if isinstance({a}, float) "
                           f"or isinstance({b}, float):")
                out.append(f"{ind}    if {b} == 0:")
                out.append(f"{ind}        raise _AT('float division "
                           f"by zero')")
                out.append(f"{ind}    {t} = {a} / {b}")
                out.append(f"{ind}else:")
                out.append(f"{ind}    {t} = _idiv({a}, {b})")
                syms.append(t)
            elif op is Op.REM:
                b = mat(spop())
                a = mat(spop())
                marker(j)
                t = newt()
                out.append(f"{ind}{t} = _irem({a}, {b}) "
                           f"if isinstance({a}, int) "
                           f"and isinstance({b}, int) else {a} % {b}")
                syms.append(t)
            elif op is Op.NEG:
                v = spop()
                marker(j)
                t = newt()
                out.append(f"{ind}{t} = -({v})")
                syms.append(t)
            elif op is Op.I2F:
                v = spop()
                marker(j)
                t = newt()
                out.append(f"{ind}{t} = float({v})")
                syms.append(t)
            elif op is Op.F2I:
                v = spop()
                marker(j)
                t = newt()
                out.append(f"{ind}{t} = int({v})")
                syms.append(t)
            elif op is Op.ALOAD:
                idx = spop()
                ref = spop()
                marker(j)
                idx = mat(idx)
                consts[f"i{bci}"] = ins
                obj = newt()
                out.append(f"{ind}{obj} = _deref({ref}, {bci}, i{bci})")
                emit_access(out, ind, f"{obj}.element_address({idx})",
                            f"{obj}.elem_size()", False, guarded)
                t = newt()
                out.append(f"{ind}{t} = {obj}.elements[{idx}]")
                if guarded:
                    emit_watch(out, ind, False, t)
                syms.append(t)
            elif op is Op.ASTORE:
                v = spop()
                idx = spop()
                ref = spop()
                marker(j)
                idx = mat(idx)
                consts[f"i{bci}"] = ins
                obj = newt()
                out.append(f"{ind}{obj} = _deref({ref}, {bci}, i{bci})")
                emit_access(out, ind, f"{obj}.element_address({idx})",
                            f"{obj}.elem_size()", True, guarded)
                if guarded:
                    v = mat(v)
                    emit_watch(out, ind, True, v)
                out.append(f"{ind}{obj}.elements[{idx}] = {v}")
            elif op is Op.GETFIELD:
                ref = spop()
                marker(j)
                consts[f"i{bci}"] = ins
                name = lit(ins.args[0], f"c{bci}")
                obj = newt()
                out.append(f"{ind}{obj} = _deref({ref}, {bci}, i{bci})")
                emit_access(out, ind, f"{obj}.field_address({name})",
                            "8", False, guarded)
                t = newt()
                out.append(f"{ind}{t} = {obj}.get_field({name})")
                if guarded:
                    emit_watch(out, ind, False, t)
                syms.append(t)
            elif op is Op.PUTFIELD:
                v = spop()
                ref = spop()
                marker(j)
                consts[f"i{bci}"] = ins
                name = lit(ins.args[0], f"c{bci}")
                obj = newt()
                out.append(f"{ind}{obj} = _deref({ref}, {bci}, i{bci})")
                emit_access(out, ind, f"{obj}.field_address({name})",
                            "8", True, guarded)
                if guarded:
                    v = mat(v)
                    emit_watch(out, ind, True, v)
                out.append(f"{ind}{obj}.set_field({name}, {v})")
            elif op is Op.GETSTATIC:
                marker(j)
                key = lit(ins.args[0], f"c{bci}")
                emit_access(out, ind, f"_sa({key})", "8", False, guarded)
                t = newt()
                out.append(f"{ind}{t} = _gs({key})")
                if guarded:
                    emit_watch(out, ind, False, t)
                syms.append(t)
            elif op is Op.PUTSTATIC:
                v = spop()
                marker(j)
                key = lit(ins.args[0], f"c{bci}")
                emit_access(out, ind, f"_sa({key})", "8", True, guarded)
                if guarded:
                    v = mat(v)
                    emit_watch(out, ind, True, v)
                out.append(f"{ind}_ss({key}, {v})")
            elif op is Op.ARRAYLENGTH:
                ref = spop()
                marker(j)
                consts[f"i{bci}"] = ins
                obj = newt()
                out.append(f"{ind}{obj} = _deref({ref}, {bci}, i{bci})")
                emit_access(out, ind, f"{obj}.addr + 8", "8", False,
                            guarded)
                if guarded:
                    emit_watch(out, ind, False, f"{obj}.length")
                syms.append(f"{obj}.length")    # immutable: defer
            elif op is Op.NOP:
                pass
            else:  # pragma: no cover - fused_blocks admits only these
                raise AssertionError(
                    f"unfusable op {op} reached the emitter")

        def finish() -> None:
            """Repay deferred pushes; flush the combo histogram."""
            if syms:
                state["stack"] = True
                if len(syms) == 1:
                    out.append(f"{ind}stack.append({syms[0]})")
                else:
                    out.append(f"{ind}stack += ({', '.join(syms)},)")
                syms.clear()
            if guarded:
                out.append(f"{ind}_obm(thread.tid, combos)")
                out.append(f"{ind}combos = None")

        for j, ins in enumerate(block[:-1]):
            emit_one(j, ins)
        j = len(block) - 1
        tail = block[-1]
        op = tail.op
        nxt = start + j + 1
        if op in _CMP_SYMS:
            b = spop()
            a = spop()
            marker(j)
            finish()
            out.append(f"{ind}return {tail.args[0]} "
                       f"if {a} {_CMP_SYMS[op]} {b} else {nxt}")
        elif op in _ZERO_TESTS:
            v = spop()
            marker(j)
            finish()
            out.append(f"{ind}return {tail.args[0]} "
                       f"if {v}{_ZERO_TESTS[op][1:]} else {nxt}")
        elif op is Op.GOTO:
            finish()
            out.append(f"{ind}return {tail.args[0]}")
        else:
            emit_one(j, tail)
            finish()
            out.append(f"{ind}return {nxt}")

        pro: List[str] = []
        if state["stack"]:
            pro.append(f"{ind}stack = frame.stack")
        if state["locals"]:
            pro.append(f"{ind}L = frame.locals")
        if maxstore >= 0:
            pro.append(f"{ind}if {maxstore} >= len(L): "
                       f"L.extend([None] * ({maxstore} + 1 - len(L)))")
        if guarded:
            pro.append(f"{ind}combos = {{}}")
            pro.append(f"{ind}W = thread.watch")
        return pro + out

    blocks = fused_blocks(code)
    codes = []
    for start, end in blocks:
        src: List[str] = []
        block = code[start:end]
        accesses = [ins.op in _WRITE_OPS for ins in block
                    if ins.op in _ACCESS_OPS]
        if accesses:
            if all(accesses):
                wclass = "True"
            elif not any(accesses):
                wclass = "False"
            else:
                wclass = "None"
        guarded = observed and accesses

        src.append(f"def _sf_{start}(thread, frame):")
        src.append("    ipc = 0")
        if guarded:
            src.append("    combos = None")
        src.append("    try:")
        if guarded:
            src.append(f"        if (not _bus._accesses_wanted "
                       f"and _bus.skip_ahead "
                       f"and _bb(thread.tid, {wclass}) "
                       f">= {len(accesses)}):")
            body_ind = "            "
        else:
            body_ind = "        "
        src.extend(gen_fast_body(block, start, body_ind, guarded))
        if guarded:
            src.append("        _fusion.guard_bailouts += 1")
            src.append("        ipc = 0")
            for j in range(len(block) - 1):
                if j:
                    src.append(f"        ipc = {j}")
                src.append(f"        _h{start + j}(thread, frame)")
                chain_bcis.add(start + j)
            src.append(f"        ipc = {len(block) - 1}")
            src.append(f"        return _h{end - 1}(thread, frame)")
            chain_bcis.add(end - 1)
        src.append("    except Exception:")
        if guarded:
            src.append("        if combos:")
            src.append("            _obm(thread.tid, combos)")
        src.append(f"        thread.fused_fault = "
                   f"({start} + ipc, ipc + 1)")
        src.append("        raise")
        codes.append(compile("\n".join(src), f"<fused:{qname}>", "exec"))

    return _FusedArtifact(tuple(codes), consts, blocks,
                          tuple(sorted(chain_bcis)))


def compile_fused(machine, runtime, table: List[Handler],
                  observed: bool = True) -> List[FusedEntry]:
    """Compile ``runtime``'s superinstruction table.

    ``table`` is the method's plain dispatch table; observed blocks
    call back into it when the bulk-budget guard fails.  Cached on ``runtime.fused_table_observed`` /
    ``runtime.fused_table`` by the fused driver; like the plain tables
    it survives JIT recompiles because bytecode is immutable.

    The expensive codegen half is machine-independent and served from
    the process-wide :class:`FusedCodegenCache`; this function only
    builds the per-machine namespace (heap/bus/hierarchy closures plus
    the plain-handler chain bindings) and execs the cached per-block
    code objects into it — which is why a warm shard daemon skips
    recompilation for repeat programs.
    """
    from repro.jvm.interpreter import (
        ArithmeticTrap,
        NullPointerError,
        _int_div,
        _int_rem,
    )
    from repro.obs.bus import _LEVEL_BASE

    method = runtime.method
    qname = method.qualified_name
    heap = machine.heap
    bus = machine.bus

    fused: List[FusedEntry] = [None] * len(method.code)
    art = _CODEGEN_CACHE.get(method, observed, machine.warm)
    if not art.code:
        return fused

    def deref(ref, bci: int, ins: Instruction):
        if not isinstance(ref, Ref):
            raise NullPointerError(
                f"{qname} bci {bci} ({ins!r}): dereferencing {ref!r}")
        return heap.get(ref)

    ns: dict = {
        "_deref": deref,
        "_ah": machine.hierarchy.access_hot,
        "_sa": machine.static_address,
        "_gs": machine.get_static,
        "_ss": machine.set_static,
        "_idiv": _int_div,
        "_irem": _int_rem,
        "_AT": ArithmeticTrap,
        "_bus": bus,
        "_bb": bus.bulk_budget,
        "_obm": bus.observe_bulk_map,
        "_wt": bus.watch_trap,
        "_LB": _LEVEL_BASE,
        "_fusion": machine.fusion,
    }
    ns.update(art.consts)
    for bci in art.chain_bcis:
        ns[f"_h{bci}"] = table[bci]

    for block_code in art.code:
        exec(block_code, ns)
    for start, end in art.blocks:
        fused[start] = (ns[f"_sf_{start}"], end - start)
    machine.fusion.blocks_fused += len(art.blocks)
    return fused
