"""The bytecode interpreter: frames, threads, and instruction execution.

Every field/array/static access goes through the owning
:class:`~repro.jvm.machine.Machine`'s memory path, so the cache hierarchy
sees the exact effective-address stream a real CPU would, and the
machine's observation bus (:mod:`repro.obs.bus`) can count it against
armed PMU samplers.  Observation is pull-free on the interpreter side:
the interpreter never calls profiler code directly; events it causes
(samples, allocations via the instrumentation hook's native call) are
ring-buffered on the bus and batch-delivered at the quantum boundaries
of :meth:`~repro.jvm.machine.Machine.run`.  Thread call stacks are plain
Python lists of :class:`Frame`, which is what makes an
``AsyncGetCallTrace``-style asynchronous unwind trivially safe at any
instruction boundary — including at PMU overflow time, when the bus
snapshots the path into the SampleEvent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.heap.allocator import Ref
from repro.heap.layout import Kind
from repro.jvm.bytecode import Instruction, Op
from repro.jvm.dispatch import compile_dispatch, compile_fused
from repro.jvm.jit import MethodRuntime


class TrapError(Exception):
    """Runtime fault in simulated code; message carries the code location."""


class NullPointerError(TrapError):
    pass


class ArithmeticTrap(TrapError):
    pass


class ThreadState(enum.Enum):
    NEW = "new"
    RUNNABLE = "runnable"
    WAITING = "waiting"
    FINISHED = "finished"


class Frame:
    """One activation record."""

    __slots__ = ("runtime", "pc", "locals", "stack")

    def __init__(self, runtime: MethodRuntime, args: Sequence = ()) -> None:
        self.runtime = runtime
        self.pc = 0
        method = runtime.method
        nlocals = max(method.max_locals, method.num_args, len(args))
        self.locals: List = list(args) + [None] * (nlocals - len(args))
        self.stack: List = []

    @property
    def method(self):
        return self.runtime.method

    def local(self, index: int):
        if index >= len(self.locals):
            self.locals.extend([None] * (index + 1 - len(self.locals)))
        return self.locals[index]

    def set_local(self, index: int, value) -> None:
        if index >= len(self.locals):
            self.locals.extend([None] * (index + 1 - len(self.locals)))
        self.locals[index] = value

    def __repr__(self) -> str:
        return (f"Frame({self.method.qualified_name} pc={self.pc} "
                f"stack={len(self.stack)})")


class JavaThread:
    """A simulated Java thread pinned to one CPU."""

    def __init__(self, tid: int, cpu: int, name: str = "") -> None:
        self.tid = tid
        self.cpu = cpu
        self.name = name or f"thread-{tid}"
        self.state = ThreadState.NEW
        self.frames: List[Frame] = []
        self.cycles = 0
        self.instructions = 0
        self.result = None
        #: When WAITING, re-checked by the scheduler each round.
        self.wait_predicate: Optional[Callable[[], bool]] = None
        #: Set by a faulting superinstruction closure before re-raising:
        #: ``(faulting_bci, instructions_charged)``.  The fused driver
        #: reads and clears it to charge partial block progress and pin
        #: ``frame.pc`` exactly as per-handler execution would.
        self.fused_fault: Optional["tuple[int, int]"] = None
        #: Armed watchpoints, address → (sampler_id, armed_write,
        #: armed_value, armed_at); see :mod:`repro.obs.bus`.  Mutated
        #: in place only, so fused blocks may bind it once.
        self.watch: Dict[int, tuple] = {}

    @property
    def current_frame(self) -> Frame:
        return self.frames[-1]

    @property
    def alive(self) -> bool:
        return self.state not in (ThreadState.FINISHED,)

    def call_stack(self) -> List["tuple[int, int]"]:
        """(method_id, bci) per frame, leaf last — the raw material of
        ``AsyncGetCallTrace``."""
        return [(f.runtime.method_id, f.pc) for f in self.frames]

    def __repr__(self) -> str:
        return (f"JavaThread({self.name} cpu={self.cpu} {self.state.value} "
                f"cycles={self.cycles})")


def _int_div(a: int, b: int) -> int:
    """Java-style truncated integer division."""
    if b == 0:
        raise ArithmeticTrap("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_rem(a: int, b: int) -> int:
    if b == 0:
        raise ArithmeticTrap("integer remainder by zero")
    return a - _int_div(a, b) * b


class Interpreter:
    """Executes bytecode for one :class:`~repro.jvm.machine.Machine`.

    Two execution engines share the exact observable semantics:

    * the **production engine** (default) drives each uninterrupted
      stretch through the method's fused superinstruction table
      (:func:`repro.jvm.dispatch.compile_fused`), running whole basic
      blocks as single closures and falling back to the per-handler
      compiled dispatch table (:func:`repro.jvm.dispatch.
      compile_dispatch`) off block leaders and on guard bailouts;
    * the **legacy engine** (``MachineConfig.fastpath=False``) decodes
      each method once into ``(handler, instruction)`` pairs, one plain
      per-opcode function from :data:`LEGACY_HANDLERS` per bytecode, and
      calls one handler per instruction, keeping ``frame.pc`` and the
      cycle counters current at every instruction boundary.  It shares
      no code with the compiled tables and is the semantic oracle.

    The differential-equivalence suite runs every workload through both
    and asserts byte-identical event traces.
    """

    def __init__(self, machine, fastpath: bool = True) -> None:
        self.machine = machine
        self.fastpath = fastpath

    # ------------------------------------------------------------------
    def run_quantum(self, thread: JavaThread, budget: int) -> int:
        """Run up to ``budget`` instructions; returns the number executed.

        Stops early when the thread finishes or blocks.

        At each pc the driver first consults the method's fused table: a
        ``(closure, count)`` entry means a whole basic block can run as
        one call, charging ``count`` instructions.  Entries are ``None``
        off block leaders (including jumps into block interiors), and a
        block bigger than the remaining budget falls back to per-handler
        execution so quantum boundaries land on the exact instruction.
        Fault accounting inside a block arrives via ``thread.fused_fault``
        (see :func:`repro.jvm.dispatch.compile_fused`).
        """
        if not self.fastpath:
            return self._run_quantum_legacy(thread, budget)
        executed = 0
        runnable = ThreadState.RUNNABLE
        frames = thread.frames
        machine = self.machine
        bus = machine.bus
        fusion = machine.fusion
        while executed < budget and thread.state is runnable:
            frame = frames[-1]
            runtime = frame.runtime
            # Fused-table choice is per stretch: the observed variant
            # guards its blocks whenever a sampler is armed or accesses
            # are recorded.  Observation state only changes through
            # subscribe/open_sampler, which take effect here on the
            # next stretch.
            table = runtime.dispatch_table
            if table is None:
                table = compile_dispatch(machine, runtime)
                runtime.dispatch_table = table
            if bus.sampling or bus._accesses_wanted:
                fused = runtime.fused_table_observed
                if fused is None:
                    fused = compile_fused(machine, runtime, table,
                                          observed=True)
                    runtime.fused_table_observed = fused
            else:
                fused = runtime.fused_table
                if fused is None:
                    fused = compile_fused(machine, runtime, table,
                                          observed=False)
                    runtime.fused_table = fused
            # cpi is constant within a stretch: it only changes when a
            # JIT compile fires, which requires an INVOKE — and INVOKE
            # always ends the stretch.
            cpi = runtime.cycles_per_instruction_cached
            code_len = len(table)
            pc = frame.pc
            limit = budget - executed
            done = 0
            fb = 0
            trap: Optional[TrapError] = None
            try:
                while done < limit:
                    if pc >= code_len:
                        # Raised below, after charging the instructions
                        # that did execute — the legacy path charges
                        # nothing for the missing instruction either.
                        trap = TrapError(
                            f"{runtime.method.qualified_name}: pc {pc} "
                            f"past end (missing return?)")
                        break
                    entry = fused[pc]
                    if entry is not None:
                        k = entry[1]
                        if k <= limit - done:
                            pc = entry[0](thread, frame)
                            done += k
                            fb += 1
                            continue
                    done += 1
                    nxt = table[pc](thread, frame)
                    if nxt == -1:
                        pc = -1
                        break
                    pc = nxt
            except TrapError:
                ff = thread.fused_fault
                if ff is not None:
                    thread.fused_fault = None
                    pc = ff[0]
                    done += ff[1]
                thread.cycles += cpi * done
                thread.instructions += done
                fusion.fused_executions += fb
                # INVOKE manages frame.pc itself (legacy reports against
                # the already-stored return address); everywhere else
                # the legacy interpreter leaves pc at the faulting bci.
                if runtime.method.code[pc].op is not Op.INVOKE:
                    frame.pc = pc
                raise
            except Exception as exc:
                ff = thread.fused_fault
                if ff is not None:
                    thread.fused_fault = None
                    pc = ff[0]
                    done += ff[1]
                thread.cycles += cpi * done
                thread.instructions += done
                fusion.fused_executions += fb
                frame.pc = pc
                ins = runtime.method.code[pc]
                raise TrapError(
                    f"{runtime.method.qualified_name} bci {pc} "
                    f"({ins!r}): {exc}") from exc
            thread.cycles += cpi * done
            thread.instructions += done
            fusion.fused_executions += fb
            executed += done
            if trap is not None:
                frame.pc = pc
                raise trap
            if pc >= 0:
                # Budget exhausted mid-method: persist the resume point.
                # On frame switches (-1) the handler already stored it.
                frame.pc = pc
        return executed

    def _run_quantum_legacy(self, thread: JavaThread, budget: int) -> int:
        """Reference engine: one :data:`LEGACY_HANDLERS` call per
        instruction over the method's decoded table.

        Each stretch runs one frame.  The frame, its decoded table and
        its cycles-per-instruction are re-read after every INVOKE,
        RETURN, IRETURN and NATIVE (the handlers that return ``-1``):
        only those push or pop frames, park or finish the thread, or
        (through a JIT compile) change the cycle cost.
        """
        executed = 0
        runnable = ThreadState.RUNNABLE
        frames = thread.frames
        machine = self.machine
        while executed < budget and thread.state is runnable:
            frame = frames[-1]
            runtime = frame.runtime
            decoded = runtime.legacy_table
            if decoded is None:
                decoded = [(LEGACY_HANDLERS[ins.op], ins)
                           for ins in runtime.method.code]
                runtime.legacy_table = decoded
            cpi = runtime.cycles_per_instruction_cached
            code_len = len(decoded)
            pc = frame.pc
            try:
                while executed < budget:
                    if pc >= code_len:
                        raise TrapError(
                            f"{runtime.method.qualified_name}: pc {pc} "
                            f"past end (missing return?)")
                    handler, ins = decoded[pc]
                    thread.cycles += cpi
                    thread.instructions += 1
                    executed += 1
                    # frame.pc holds the executing bci while the handler
                    # runs: async unwinds read it mid-instruction.
                    pc = handler(machine, thread, frame, ins, pc)
                    if pc < 0:
                        break
                    frame.pc = pc
            except TrapError:
                raise
            except Exception as exc:  # decorate with location
                raise TrapError(
                    f"{runtime.method.qualified_name} bci {frame.pc} "
                    f"({ins!r}): {exc}") from exc
        return executed


# ----------------------------------------------------------------------
# Legacy-engine handlers: ``handler(machine, thread, frame, ins, pc)``
# returns the next bci, or -1 when the stretch must end (the handler has
# then stored ``frame.pc`` itself if the frame lives on).  They share no
# code with :mod:`repro.jvm.dispatch`, which they are the oracle for.
# ----------------------------------------------------------------------

def _deref(machine, ref, frame: Frame, ins: Instruction):
    if not isinstance(ref, Ref):
        raise NullPointerError(
            f"{frame.method.qualified_name} bci {frame.pc} "
            f"({ins!r}): dereferencing {ref!r}")
    return machine.heap.get(ref)


def _op_load(machine, thread, frame, ins, pc):
    locals_ = frame.locals
    index = ins.args[0]
    frame.stack.append(locals_[index] if index < len(locals_) else None)
    return pc + 1


def _op_const(machine, thread, frame, ins, pc):
    frame.stack.append(ins.args[0])
    return pc + 1


def _op_store(machine, thread, frame, ins, pc):
    frame.set_local(ins.args[0], frame.stack.pop())
    return pc + 1


def _op_iinc(machine, thread, frame, ins, pc):
    index, delta = ins.args
    frame.set_local(index, frame.local(index) + delta)
    return pc + 1


def _op_aconst_null(machine, thread, frame, ins, pc):
    frame.stack.append(None)
    return pc + 1


def _op_pop(machine, thread, frame, ins, pc):
    frame.stack.pop()
    return pc + 1


def _op_dup(machine, thread, frame, ins, pc):
    stack = frame.stack
    stack.append(stack[-1])
    return pc + 1


def _op_swap(machine, thread, frame, ins, pc):
    stack = frame.stack
    stack[-1], stack[-2] = stack[-2], stack[-1]
    return pc + 1


def _op_nop(machine, thread, frame, ins, pc):
    return pc + 1


def _op_add(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    stack.append(a + b)
    return pc + 1


def _op_sub(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    stack.append(a - b)
    return pc + 1


def _op_mul(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    stack.append(a * b)
    return pc + 1


def _op_div(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    if isinstance(a, float) or isinstance(b, float):
        if b == 0:
            raise ArithmeticTrap("float division by zero")
        stack.append(a / b)
    else:
        stack.append(_int_div(a, b))
    return pc + 1


def _op_rem(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    stack.append(_int_rem(a, b) if isinstance(a, int)
                 and isinstance(b, int) else a % b)
    return pc + 1


def _op_neg(machine, thread, frame, ins, pc):
    stack = frame.stack
    stack.append(-stack.pop())
    return pc + 1


def _op_shl(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    stack.append(a << b)
    return pc + 1


def _op_shr(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    stack.append(a >> b)
    return pc + 1


def _op_and(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    stack.append(a & b)
    return pc + 1


def _op_or(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    stack.append(a | b)
    return pc + 1


def _op_xor(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    stack.append(a ^ b)
    return pc + 1


def _op_i2f(machine, thread, frame, ins, pc):
    stack = frame.stack
    stack.append(float(stack.pop()))
    return pc + 1


def _op_f2i(machine, thread, frame, ins, pc):
    stack = frame.stack
    stack.append(int(stack.pop()))
    return pc + 1


def _op_goto(machine, thread, frame, ins, pc):
    return ins.args[0]


def _op_if_icmpge(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    return ins.args[0] if a >= b else pc + 1


def _op_if_icmplt(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    return ins.args[0] if a < b else pc + 1


def _op_if_icmpeq(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    return ins.args[0] if a == b else pc + 1


def _op_if_icmpne(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    return ins.args[0] if a != b else pc + 1


def _op_if_icmpgt(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    return ins.args[0] if a > b else pc + 1


def _op_if_icmple(machine, thread, frame, ins, pc):
    stack = frame.stack
    b, a = stack.pop(), stack.pop()
    return ins.args[0] if a <= b else pc + 1


def _op_if_eq(machine, thread, frame, ins, pc):
    return ins.args[0] if frame.stack.pop() == 0 else pc + 1


def _op_if_ne(machine, thread, frame, ins, pc):
    return ins.args[0] if frame.stack.pop() != 0 else pc + 1


def _op_if_lt(machine, thread, frame, ins, pc):
    return ins.args[0] if frame.stack.pop() < 0 else pc + 1


def _op_if_ge(machine, thread, frame, ins, pc):
    return ins.args[0] if frame.stack.pop() >= 0 else pc + 1


def _op_if_gt(machine, thread, frame, ins, pc):
    return ins.args[0] if frame.stack.pop() > 0 else pc + 1


def _op_if_le(machine, thread, frame, ins, pc):
    return ins.args[0] if frame.stack.pop() <= 0 else pc + 1


def _op_if_null(machine, thread, frame, ins, pc):
    return ins.args[0] if frame.stack.pop() is None else pc + 1


def _op_if_nonnull(machine, thread, frame, ins, pc):
    return ins.args[0] if frame.stack.pop() is not None else pc + 1


def _op_invoke(machine, thread, frame, ins, pc):
    method_name, argc = ins.args
    args = _pop_args(frame.stack, argc)
    frame.pc = pc + 1             # return address
    runtime = machine.method_table.runtime(method_name)
    pause = machine.method_table.on_invoke(runtime)
    if pause:
        thread.cycles += pause
    thread.frames.append(Frame(runtime, args))
    return -1


def _op_native(machine, thread, frame, ins, pc):
    name, argc, has_result = ins.args[0], ins.args[1], ins.args[2]
    consts = ins.args[3:]
    stack = frame.stack
    args = _pop_args(stack, argc)
    result = machine.call_native(name, thread, args, consts)
    if has_result:
        stack.append(result)
    # A native may have parked the thread (await_static): keep pc
    # pointing past the native either way; the value is pushed.
    frame.pc = pc + 1
    return -1


def _op_return(machine, thread, frame, ins, pc):
    _pop_frame(machine, thread, None)
    return -1


def _op_ireturn(machine, thread, frame, ins, pc):
    _pop_frame(machine, thread, frame.stack.pop())
    return -1


def _op_new(machine, thread, frame, ins, pc):
    jclass = machine.program.jclass(ins.args[0])
    frame.stack.append(machine.allocate_instance(jclass, thread))
    return pc + 1


def _op_newarray(machine, thread, frame, ins, pc):
    stack = frame.stack
    length = stack.pop()
    stack.append(machine.allocate_array(ins.args[0], length, thread))
    return pc + 1


def _op_anewarray(machine, thread, frame, ins, pc):
    stack = frame.stack
    length = stack.pop()
    stack.append(machine.allocate_array(Kind.REF, length, thread))
    return pc + 1


def _op_multianewarray(machine, thread, frame, ins, pc):
    elem_kind, dims = ins.args
    stack = frame.stack
    lengths = [stack.pop() for _ in range(dims)][::-1]
    stack.append(machine.allocate_multi_array(elem_kind, lengths, thread))
    return pc + 1


def _op_aload(machine, thread, frame, ins, pc):
    stack = frame.stack
    index = stack.pop()
    ref = stack.pop()
    obj = _deref(machine, ref, frame, ins)
    address = obj.element_address(index)
    value = obj.get_element(index)
    machine.memory_access(thread, address, obj.elem_size(),
                          is_write=False, value=value)
    stack.append(value)
    return pc + 1


def _op_astore(machine, thread, frame, ins, pc):
    stack = frame.stack
    value = stack.pop()
    index = stack.pop()
    ref = stack.pop()
    obj = _deref(machine, ref, frame, ins)
    machine.memory_access(thread, obj.element_address(index),
                          obj.elem_size(), is_write=True, value=value)
    obj.set_element(index, value)
    return pc + 1


def _op_getfield(machine, thread, frame, ins, pc):
    stack = frame.stack
    obj = _deref(machine, stack.pop(), frame, ins)
    value = obj.get_field(ins.args[0])
    machine.memory_access(thread, obj.field_address(ins.args[0]), 8,
                          is_write=False, value=value)
    stack.append(value)
    return pc + 1


def _op_putfield(machine, thread, frame, ins, pc):
    stack = frame.stack
    value, ref = stack.pop(), stack.pop()
    obj = _deref(machine, ref, frame, ins)
    machine.memory_access(thread, obj.field_address(ins.args[0]), 8,
                          is_write=True, value=value)
    obj.set_field(ins.args[0], value)
    return pc + 1


def _op_getstatic(machine, thread, frame, ins, pc):
    address = machine.static_address(ins.args[0])
    value = machine.get_static(ins.args[0])
    machine.memory_access(thread, address, 8, is_write=False, value=value)
    frame.stack.append(value)
    return pc + 1


def _op_putstatic(machine, thread, frame, ins, pc):
    address = machine.static_address(ins.args[0])
    value = frame.stack.pop()
    machine.memory_access(thread, address, 8, is_write=True, value=value)
    machine.set_static(ins.args[0], value)
    return pc + 1


def _op_arraylength(machine, thread, frame, ins, pc):
    stack = frame.stack
    obj = _deref(machine, stack.pop(), frame, ins)
    # length lives in the header's second word
    machine.memory_access(thread, obj.addr + 8, 8, is_write=False,
                          value=obj.length)
    stack.append(obj.length)
    return pc + 1


#: The legacy engine's decoder: one handler per opcode.  Every method is
#: decoded once into ``MethodRuntime.legacy_table``, a per-bci list of
#: ``(handler, instruction)`` pairs.
LEGACY_HANDLERS: Dict[Op, Callable] = {
    Op.LOAD: _op_load, Op.STORE: _op_store, Op.IINC: _op_iinc,
    Op.ICONST: _op_const, Op.FCONST: _op_const,
    Op.ACONST_NULL: _op_aconst_null,
    Op.POP: _op_pop, Op.DUP: _op_dup, Op.SWAP: _op_swap, Op.NOP: _op_nop,
    Op.ADD: _op_add, Op.SUB: _op_sub, Op.MUL: _op_mul, Op.DIV: _op_div,
    Op.REM: _op_rem, Op.NEG: _op_neg, Op.SHL: _op_shl, Op.SHR: _op_shr,
    Op.AND: _op_and, Op.OR: _op_or, Op.XOR: _op_xor,
    Op.I2F: _op_i2f, Op.F2I: _op_f2i,
    Op.GOTO: _op_goto,
    Op.IF_ICMPGE: _op_if_icmpge, Op.IF_ICMPLT: _op_if_icmplt,
    Op.IF_ICMPEQ: _op_if_icmpeq, Op.IF_ICMPNE: _op_if_icmpne,
    Op.IF_ICMPGT: _op_if_icmpgt, Op.IF_ICMPLE: _op_if_icmple,
    Op.IF_EQ: _op_if_eq, Op.IF_NE: _op_if_ne, Op.IF_LT: _op_if_lt,
    Op.IF_GE: _op_if_ge, Op.IF_GT: _op_if_gt, Op.IF_LE: _op_if_le,
    Op.IF_NULL: _op_if_null, Op.IF_NONNULL: _op_if_nonnull,
    Op.INVOKE: _op_invoke, Op.NATIVE: _op_native,
    Op.RETURN: _op_return, Op.IRETURN: _op_ireturn,
    Op.NEW: _op_new, Op.NEWARRAY: _op_newarray,
    Op.ANEWARRAY: _op_anewarray, Op.MULTIANEWARRAY: _op_multianewarray,
    Op.ALOAD: _op_aload, Op.ASTORE: _op_astore,
    Op.GETFIELD: _op_getfield, Op.PUTFIELD: _op_putfield,
    Op.GETSTATIC: _op_getstatic, Op.PUTSTATIC: _op_putstatic,
    Op.ARRAYLENGTH: _op_arraylength,
}


def _pop_frame(machine, thread: JavaThread, value) -> None:
    thread.frames.pop()
    if thread.frames:
        # INVOKE always expects one pushed result (None for void).
        thread.frames[-1].stack.append(value)
    else:
        thread.result = value
        thread.state = ThreadState.FINISHED
        machine.on_thread_finished(thread)


def _pop_args(stack: List, argc: int) -> List:
    if argc == 0:
        return []
    args = stack[-argc:]
    del stack[-argc:]
    return args
