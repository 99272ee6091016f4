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
from typing import Callable, List, Optional, Sequence

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
      every instruction through :meth:`step`'s if/elif chain, one at a
      time.  It is the semantic oracle.

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
            # Table choice is per stretch: the observed variants keep
            # frame.pc current for async unwinds whenever a sampler is
            # armed or accesses are recorded; otherwise the unobserved
            # variants skip those dead stores.  Observation state only
            # changes through subscribe/open_sampler, which take effect
            # here on the next stretch.
            if bus.sampling or bus._accesses_wanted:
                table = runtime.dispatch_table_observed
                if table is None:
                    table = compile_dispatch(machine, runtime,
                                             observed=True)
                    runtime.dispatch_table_observed = table
                fused = runtime.fused_table_observed
                if fused is None:
                    fused = compile_fused(machine, runtime, table,
                                          observed=True)
                    runtime.fused_table_observed = fused
            else:
                table = runtime.dispatch_table
                if table is None:
                    table = compile_dispatch(machine, runtime,
                                             observed=False)
                    runtime.dispatch_table = table
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
        """Reference engine: one :meth:`step` per instruction."""
        executed = 0
        runnable = ThreadState.RUNNABLE
        step = self.step
        while executed < budget and thread.state is runnable:
            step(thread)
            executed += 1
        return executed

    def step(self, thread: JavaThread) -> None:
        """Execute exactly one instruction of ``thread``."""
        frame = thread.frames[-1]
        runtime = frame.runtime
        code = runtime.method.code
        if frame.pc >= len(code):
            raise TrapError(
                f"{runtime.method.qualified_name}: pc {frame.pc} past end "
                f"(missing return?)")
        ins = code[frame.pc]
        thread.cycles += runtime.cycles_per_instruction_cached
        thread.instructions += 1
        try:
            self._execute(thread, frame, ins)
        except TrapError:
            raise
        except Exception as exc:  # decorate with location for debuggability
            raise TrapError(
                f"{runtime.method.qualified_name} bci {frame.pc} "
                f"({ins!r}): {exc}") from exc

    # ------------------------------------------------------------------
    def _execute(self, thread: JavaThread, frame: Frame,
                 ins: Instruction) -> None:
        op = ins.op
        stack = frame.stack
        machine = self.machine
        next_pc = frame.pc + 1

        # Dispatch is ordered hottest-first (measured on the workload
        # suite): locals, array access, loop bookkeeping, then the rest.
        if op is Op.LOAD:
            locals_ = frame.locals
            index = ins.args[0]
            stack.append(locals_[index] if index < len(locals_) else None)
        elif op is Op.ICONST or op is Op.FCONST:
            stack.append(ins.args[0])
        elif op is Op.ALOAD:
            index = stack.pop()
            ref = stack.pop()
            obj = self._deref(ref, frame, ins)
            address = obj.element_address(index)
            value = obj.get_element(index)
            machine.memory_access(thread, address, obj.elem_size(),
                                  is_write=False, value=value)
            stack.append(value)
        elif op is Op.IINC:
            index, delta = ins.args
            frame.set_local(index, frame.local(index) + delta)
        elif op is Op.IF_ICMPGE:
            b, a = stack.pop(), stack.pop()
            if a >= b:
                next_pc = ins.args[0]
        elif op is Op.GOTO:
            next_pc = ins.args[0]
        elif op is Op.POP:
            stack.pop()
        elif op is Op.STORE:
            frame.set_local(ins.args[0], stack.pop())
        elif op is Op.ASTORE:
            value = stack.pop()
            index = stack.pop()
            ref = stack.pop()
            obj = self._deref(ref, frame, ins)
            machine.memory_access(thread, obj.element_address(index),
                                  obj.elem_size(), is_write=True,
                                  value=value)
            obj.set_element(index, value)
        elif op is Op.ACONST_NULL:
            stack.append(None)
        elif op is Op.DUP:
            stack.append(stack[-1])
        elif op is Op.SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]

        elif op is Op.ADD:
            b, a = stack.pop(), stack.pop()
            stack.append(a + b)
        elif op is Op.SUB:
            b, a = stack.pop(), stack.pop()
            stack.append(a - b)
        elif op is Op.MUL:
            b, a = stack.pop(), stack.pop()
            stack.append(a * b)
        elif op is Op.DIV:
            b, a = stack.pop(), stack.pop()
            if isinstance(a, float) or isinstance(b, float):
                if b == 0:
                    raise ArithmeticTrap("float division by zero")
                stack.append(a / b)
            else:
                stack.append(_int_div(a, b))
        elif op is Op.REM:
            b, a = stack.pop(), stack.pop()
            stack.append(_int_rem(a, b) if isinstance(a, int)
                         and isinstance(b, int) else a % b)
        elif op is Op.NEG:
            stack.append(-stack.pop())
        elif op is Op.SHL:
            b, a = stack.pop(), stack.pop()
            stack.append(a << b)
        elif op is Op.SHR:
            b, a = stack.pop(), stack.pop()
            stack.append(a >> b)
        elif op is Op.AND:
            b, a = stack.pop(), stack.pop()
            stack.append(a & b)
        elif op is Op.OR:
            b, a = stack.pop(), stack.pop()
            stack.append(a | b)
        elif op is Op.XOR:
            b, a = stack.pop(), stack.pop()
            stack.append(a ^ b)
        elif op is Op.I2F:
            stack.append(float(stack.pop()))
        elif op is Op.F2I:
            stack.append(int(stack.pop()))

        elif op is Op.IF_ICMPLT:
            b, a = stack.pop(), stack.pop()
            if a < b:
                next_pc = ins.args[0]
        elif op is Op.IF_ICMPEQ:
            b, a = stack.pop(), stack.pop()
            if a == b:
                next_pc = ins.args[0]
        elif op is Op.IF_ICMPNE:
            b, a = stack.pop(), stack.pop()
            if a != b:
                next_pc = ins.args[0]
        elif op is Op.IF_ICMPGT:
            b, a = stack.pop(), stack.pop()
            if a > b:
                next_pc = ins.args[0]
        elif op is Op.IF_ICMPLE:
            b, a = stack.pop(), stack.pop()
            if a <= b:
                next_pc = ins.args[0]
        elif op is Op.IF_EQ:
            if stack.pop() == 0:
                next_pc = ins.args[0]
        elif op is Op.IF_NE:
            if stack.pop() != 0:
                next_pc = ins.args[0]
        elif op is Op.IF_LT:
            if stack.pop() < 0:
                next_pc = ins.args[0]
        elif op is Op.IF_GE:
            if stack.pop() >= 0:
                next_pc = ins.args[0]
        elif op is Op.IF_GT:
            if stack.pop() > 0:
                next_pc = ins.args[0]
        elif op is Op.IF_LE:
            if stack.pop() <= 0:
                next_pc = ins.args[0]
        elif op is Op.IF_NULL:
            if stack.pop() is None:
                next_pc = ins.args[0]
        elif op is Op.IF_NONNULL:
            if stack.pop() is not None:
                next_pc = ins.args[0]

        elif op is Op.INVOKE:
            method_name, argc = ins.args
            args = _pop_args(stack, argc)
            frame.pc = next_pc            # return address
            self._push_frame(thread, method_name, args)
            return
        elif op is Op.NATIVE:
            name, argc, has_result = ins.args[0], ins.args[1], ins.args[2]
            consts = ins.args[3:]
            args = _pop_args(stack, argc)
            result = machine.call_native(name, thread, args, consts)
            if has_result:
                stack.append(result)
            # A native may have parked the thread (await_static): keep pc
            # pointing past the native either way; the value is pushed.
        elif op is Op.RETURN:
            self._pop_frame(thread, None)
            return
        elif op is Op.IRETURN:
            self._pop_frame(thread, stack.pop())
            return

        elif op is Op.NEW:
            jclass = machine.program.jclass(ins.args[0])
            ref = machine.allocate_instance(jclass, thread)
            stack.append(ref)
        elif op is Op.NEWARRAY:
            length = stack.pop()
            ref = machine.allocate_array(ins.args[0], length, thread)
            stack.append(ref)
        elif op is Op.ANEWARRAY:
            length = stack.pop()
            ref = machine.allocate_array(Kind.REF, length, thread)
            stack.append(ref)
        elif op is Op.MULTIANEWARRAY:
            elem_kind, dims = ins.args
            lengths = [stack.pop() for _ in range(dims)][::-1]
            ref = machine.allocate_multi_array(elem_kind, lengths, thread)
            stack.append(ref)

        elif op is Op.GETFIELD:
            ref = stack.pop()
            obj = self._deref(ref, frame, ins)
            value = obj.get_field(ins.args[0])
            machine.memory_access(thread, obj.field_address(ins.args[0]), 8,
                                  is_write=False, value=value)
            stack.append(value)
        elif op is Op.PUTFIELD:
            value, ref = stack.pop(), stack.pop()
            obj = self._deref(ref, frame, ins)
            machine.memory_access(thread, obj.field_address(ins.args[0]), 8,
                                  is_write=True, value=value)
            obj.set_field(ins.args[0], value)
        elif op is Op.GETSTATIC:
            address = machine.static_address(ins.args[0])
            value = machine.get_static(ins.args[0])
            machine.memory_access(thread, address, 8, is_write=False,
                                  value=value)
            stack.append(value)
        elif op is Op.PUTSTATIC:
            address = machine.static_address(ins.args[0])
            value = stack.pop()
            machine.memory_access(thread, address, 8, is_write=True,
                                  value=value)
            machine.set_static(ins.args[0], value)
        elif op is Op.ARRAYLENGTH:
            ref = stack.pop()
            obj = self._deref(ref, frame, ins)
            # length lives in the header's second word
            machine.memory_access(thread, obj.addr + 8, 8, is_write=False,
                                  value=obj.length)
            stack.append(obj.length)
        elif op is Op.NOP:
            pass
        else:  # pragma: no cover - exhaustive over Op
            raise TrapError(f"unimplemented opcode {op}")

        frame.pc = next_pc

    # ------------------------------------------------------------------
    def _deref(self, ref, frame: Frame, ins: Instruction):
        if not isinstance(ref, Ref):
            raise NullPointerError(
                f"{frame.method.qualified_name} bci {frame.pc} "
                f"({ins!r}): dereferencing {ref!r}")
        return self.machine.heap.get(ref)

    def _push_frame(self, thread: JavaThread, method_name: str,
                    args: List) -> None:
        machine = self.machine
        runtime = machine.method_table.runtime(method_name)
        pause = machine.method_table.on_invoke(runtime)
        if pause:
            thread.cycles += pause
        thread.frames.append(Frame(runtime, args))

    def _pop_frame(self, thread: JavaThread, value) -> None:
        thread.frames.pop()
        if thread.frames:
            # INVOKE always expects one pushed result (None for void).
            thread.current_frame.stack.append(value)
        else:
            thread.result = value
            thread.state = ThreadState.FINISHED
            self.machine.on_thread_finished(thread)


def _pop_args(stack: List, argc: int) -> List:
    if argc == 0:
        return []
    args = stack[-argc:]
    del stack[-argc:]
    return args


