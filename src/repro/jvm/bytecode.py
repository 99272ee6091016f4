"""Bytecode instruction set and assembler for the simulated JVM.

The instruction set is a compact JVM-flavoured stack machine.  It keeps
the four object-allocation opcodes the paper's Java agent instruments
(``NEW``, ``NEWARRAY``, ``ANEWARRAY``, ``MULTIANEWARRAY``) as distinct
opcodes so the instrumentation pass can target exactly those, and each
instruction carries a source line so profiles can be reported against
source locations, as DJXPerf's GUI does.

Programs are built with :class:`MethodBuilder`, a tiny assembler with
labels and line-number tracking.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union


class Op(enum.Enum):
    """Opcodes of the simulated instruction set."""

    # Constants & stack
    ICONST = "iconst"          # (value,) push int
    FCONST = "fconst"          # (value,) push float
    ACONST_NULL = "aconst_null"
    POP = "pop"
    DUP = "dup"
    SWAP = "swap"

    # Locals
    LOAD = "load"              # (index,)
    STORE = "store"            # (index,)
    IINC = "iinc"              # (index, delta)

    # Arithmetic / logic (dynamic over int & float operands)
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    NEG = "neg"
    SHL = "shl"
    SHR = "shr"
    AND = "and"
    OR = "or"
    XOR = "xor"
    I2F = "i2f"
    F2I = "f2i"

    # Control flow.  IF_* pop one value and compare against zero;
    # IF_ICMP* pop two values and compare them.
    GOTO = "goto"              # (target,)
    IF_EQ = "ifeq"
    IF_NE = "ifne"
    IF_LT = "iflt"
    IF_GE = "ifge"
    IF_GT = "ifgt"
    IF_LE = "ifle"
    IF_ICMPEQ = "if_icmpeq"
    IF_ICMPNE = "if_icmpne"
    IF_ICMPLT = "if_icmplt"
    IF_ICMPGE = "if_icmpge"
    IF_ICMPGT = "if_icmpgt"
    IF_ICMPLE = "if_icmple"
    IF_NULL = "ifnull"
    IF_NONNULL = "ifnonnull"

    # Calls
    INVOKE = "invoke"          # (method_name, argc)
    NATIVE = "native"          # (native_name, argc, has_result)
    RETURN = "return"
    IRETURN = "ireturn"        # return top of stack

    # Objects — the four allocation opcodes DJXPerf instruments.
    NEW = "new"                # (class_name,)
    NEWARRAY = "newarray"      # (elem_kind,) pops length
    ANEWARRAY = "anewarray"    # (class_name,) pops length; ref array
    MULTIANEWARRAY = "multianewarray"  # (elem_kind, dims) pops dims lengths

    GETFIELD = "getfield"      # (field_name,) pops ref
    PUTFIELD = "putfield"      # (field_name,) pops value, ref
    GETSTATIC = "getstatic"    # (key,)
    PUTSTATIC = "putstatic"    # (key,)
    ALOAD = "aload"            # pops index, arrayref; pushes element
    ASTORE = "astore"          # pops value, index, arrayref
    ARRAYLENGTH = "arraylength"

    NOP = "nop"


#: Opcodes that allocate (the Java agent's instrumentation targets).
ALLOCATION_OPS = frozenset({Op.NEW, Op.NEWARRAY, Op.ANEWARRAY,
                            Op.MULTIANEWARRAY})

#: Conditional branches (one target argument, may fall through).
CONDITIONAL_BRANCHES = frozenset({
    Op.IF_EQ, Op.IF_NE, Op.IF_LT, Op.IF_GE, Op.IF_GT, Op.IF_LE,
    Op.IF_ICMPEQ, Op.IF_ICMPNE, Op.IF_ICMPLT, Op.IF_ICMPGE,
    Op.IF_ICMPGT, Op.IF_ICMPLE, Op.IF_NULL, Op.IF_NONNULL})

#: Opcodes that transfer control unconditionally.
UNCONDITIONAL_EXITS = frozenset({Op.GOTO, Op.RETURN, Op.IRETURN})

#: All opcodes with a branch target as their first argument.
BRANCH_OPS = CONDITIONAL_BRANCHES | {Op.GOTO}

#: Stack effect (pops, pushes) for fixed-arity opcodes; variable-arity
#: opcodes (INVOKE/NATIVE/MULTIANEWARRAY) are handled specially by the
#: verifier.
STACK_EFFECTS: Dict[Op, Tuple[int, int]] = {
    Op.ICONST: (0, 1), Op.FCONST: (0, 1), Op.ACONST_NULL: (0, 1),
    Op.POP: (1, 0), Op.DUP: (1, 2), Op.SWAP: (2, 2),
    Op.LOAD: (0, 1), Op.STORE: (1, 0), Op.IINC: (0, 0),
    Op.ADD: (2, 1), Op.SUB: (2, 1), Op.MUL: (2, 1), Op.DIV: (2, 1),
    Op.REM: (2, 1), Op.NEG: (1, 1), Op.SHL: (2, 1), Op.SHR: (2, 1),
    Op.AND: (2, 1), Op.OR: (2, 1), Op.XOR: (2, 1),
    Op.I2F: (1, 1), Op.F2I: (1, 1),
    Op.GOTO: (0, 0),
    Op.IF_EQ: (1, 0), Op.IF_NE: (1, 0), Op.IF_LT: (1, 0),
    Op.IF_GE: (1, 0), Op.IF_GT: (1, 0), Op.IF_LE: (1, 0),
    Op.IF_ICMPEQ: (2, 0), Op.IF_ICMPNE: (2, 0), Op.IF_ICMPLT: (2, 0),
    Op.IF_ICMPGE: (2, 0), Op.IF_ICMPGT: (2, 0), Op.IF_ICMPLE: (2, 0),
    Op.IF_NULL: (1, 0), Op.IF_NONNULL: (1, 0),
    Op.RETURN: (0, 0), Op.IRETURN: (1, 0),
    Op.NEW: (0, 1), Op.NEWARRAY: (1, 1), Op.ANEWARRAY: (1, 1),
    Op.GETFIELD: (1, 1), Op.PUTFIELD: (2, 0),
    Op.GETSTATIC: (0, 1), Op.PUTSTATIC: (1, 0),
    Op.ALOAD: (2, 1), Op.ASTORE: (3, 0), Op.ARRAYLENGTH: (1, 1),
    Op.NOP: (0, 0),
}


@dataclass(frozen=True)
class Instruction:
    """One bytecode instruction; its index in the method is its BCI."""

    op: Op
    args: Tuple = ()
    line: int = 0

    def with_target(self, target: int) -> "Instruction":
        """Copy with the branch target (first arg) replaced."""
        if self.op not in BRANCH_OPS:
            raise ValueError(f"{self.op} has no branch target")
        return Instruction(self.op, (target,) + self.args[1:], self.line)

    @property
    def target(self) -> int:
        if self.op not in BRANCH_OPS:
            raise ValueError(f"{self.op} has no branch target")
        return self.args[0]

    def __repr__(self) -> str:
        parts = " ".join(str(a) for a in self.args)
        return f"{self.op.value} {parts}".strip()


class Label:
    """Forward-referencable position in a method under construction."""

    __slots__ = ("name", "bci")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.bci: Optional[int] = None

    def __repr__(self) -> str:
        where = self.bci if self.bci is not None else "?"
        return f"Label({self.name or id(self)}@{where})"


class AssemblyError(Exception):
    """Malformed method under construction (unplaced labels, ...)."""


class MethodBuilder:
    """Assembler for one method: emits instructions, resolves labels.

    Example::

        b = MethodBuilder("Foo", "sum", num_args=1, first_line=10)
        b.iconst(0).store(1)
        top = b.place(b.new_label("top"))
        b.load(1).load(0).if_icmpge(end := b.new_label("end"))
        ...
    """

    def __init__(self, class_name: str, method_name: str, num_args: int = 0,
                 source_file: str = "", first_line: int = 1) -> None:
        self.class_name = class_name
        self.method_name = method_name
        self.num_args = num_args
        self.source_file = source_file or f"{class_name}.java"
        self._line = first_line
        self._code: List[Instruction] = []
        self._labels: List[Label] = []
        self._fixups: List[Tuple[int, Label]] = []
        self._max_local = num_args - 1

    # -- plumbing ------------------------------------------------------
    def line(self, line_number: int) -> "MethodBuilder":
        """Set the source line attached to subsequent instructions."""
        self._line = line_number
        return self

    def new_label(self, name: str = "") -> Label:
        label = Label(name)
        self._labels.append(label)
        return label

    def place(self, label: Label) -> Label:
        if label.bci is not None:
            raise AssemblyError(f"label {label!r} placed twice")
        label.bci = len(self._code)
        return label

    def emit(self, op: Op, *args) -> "MethodBuilder":
        self._code.append(Instruction(op, tuple(args), self._line))
        return self

    def _emit_branch(self, op: Op, label: Label) -> "MethodBuilder":
        self._fixups.append((len(self._code), label))
        return self.emit(op, label)

    # -- constants & stack ----------------------------------------------
    def iconst(self, value: int) -> "MethodBuilder":
        return self.emit(Op.ICONST, int(value))

    def fconst(self, value: float) -> "MethodBuilder":
        return self.emit(Op.FCONST, float(value))

    def null(self) -> "MethodBuilder":
        return self.emit(Op.ACONST_NULL)

    def pop(self) -> "MethodBuilder":
        return self.emit(Op.POP)

    def dup(self) -> "MethodBuilder":
        return self.emit(Op.DUP)

    def swap(self) -> "MethodBuilder":
        return self.emit(Op.SWAP)

    # -- locals ----------------------------------------------------------
    def load(self, index: int) -> "MethodBuilder":
        self._max_local = max(self._max_local, index)
        return self.emit(Op.LOAD, index)

    def store(self, index: int) -> "MethodBuilder":
        self._max_local = max(self._max_local, index)
        return self.emit(Op.STORE, index)

    def iinc(self, index: int, delta: int = 1) -> "MethodBuilder":
        self._max_local = max(self._max_local, index)
        return self.emit(Op.IINC, index, delta)

    # -- arithmetic -------------------------------------------------------
    def add(self) -> "MethodBuilder":
        return self.emit(Op.ADD)

    def sub(self) -> "MethodBuilder":
        return self.emit(Op.SUB)

    def mul(self) -> "MethodBuilder":
        return self.emit(Op.MUL)

    def div(self) -> "MethodBuilder":
        return self.emit(Op.DIV)

    def rem(self) -> "MethodBuilder":
        return self.emit(Op.REM)

    def neg(self) -> "MethodBuilder":
        return self.emit(Op.NEG)

    def shl(self) -> "MethodBuilder":
        return self.emit(Op.SHL)

    def shr(self) -> "MethodBuilder":
        return self.emit(Op.SHR)

    def band(self) -> "MethodBuilder":
        return self.emit(Op.AND)

    def bor(self) -> "MethodBuilder":
        return self.emit(Op.OR)

    def bxor(self) -> "MethodBuilder":
        return self.emit(Op.XOR)

    def i2f(self) -> "MethodBuilder":
        return self.emit(Op.I2F)

    def f2i(self) -> "MethodBuilder":
        return self.emit(Op.F2I)

    # -- control flow ------------------------------------------------------
    def goto(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.GOTO, label)

    def if_eq(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_EQ, label)

    def if_ne(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_NE, label)

    def if_lt(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_LT, label)

    def if_ge(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_GE, label)

    def if_gt(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_GT, label)

    def if_le(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_LE, label)

    def if_icmpeq(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_ICMPEQ, label)

    def if_icmpne(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_ICMPNE, label)

    def if_icmplt(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_ICMPLT, label)

    def if_icmpge(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_ICMPGE, label)

    def if_icmpgt(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_ICMPGT, label)

    def if_icmple(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_ICMPLE, label)

    def if_null(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_NULL, label)

    def if_nonnull(self, label: Label) -> "MethodBuilder":
        return self._emit_branch(Op.IF_NONNULL, label)

    # -- calls --------------------------------------------------------------
    def invoke(self, method_name: str, argc: int = 0) -> "MethodBuilder":
        return self.emit(Op.INVOKE, method_name, argc)

    def native(self, native_name: str, argc: int = 0,
               has_result: bool = False, *consts) -> "MethodBuilder":
        """Call a native method.  ``consts`` are compile-time operands
        passed to the implementation alongside the popped arguments
        (e.g. a static key for ``await_static``)."""
        return self.emit(Op.NATIVE, native_name, argc, has_result, *consts)

    def ret(self) -> "MethodBuilder":
        return self.emit(Op.RETURN)

    def iret(self) -> "MethodBuilder":
        return self.emit(Op.IRETURN)

    # -- objects ---------------------------------------------------------
    def new(self, class_name: str) -> "MethodBuilder":
        return self.emit(Op.NEW, class_name)

    def newarray(self, elem_kind) -> "MethodBuilder":
        return self.emit(Op.NEWARRAY, elem_kind)

    def anewarray(self, class_name: str = "java.lang.Object") -> "MethodBuilder":
        return self.emit(Op.ANEWARRAY, class_name)

    def multianewarray(self, elem_kind, dims: int) -> "MethodBuilder":
        if dims < 1:
            raise AssemblyError(f"multianewarray needs dims >= 1, got {dims}")
        return self.emit(Op.MULTIANEWARRAY, elem_kind, dims)

    def getfield(self, name: str) -> "MethodBuilder":
        return self.emit(Op.GETFIELD, name)

    def putfield(self, name: str) -> "MethodBuilder":
        return self.emit(Op.PUTFIELD, name)

    def getstatic(self, key: str) -> "MethodBuilder":
        return self.emit(Op.GETSTATIC, key)

    def putstatic(self, key: str) -> "MethodBuilder":
        return self.emit(Op.PUTSTATIC, key)

    def aload(self) -> "MethodBuilder":
        return self.emit(Op.ALOAD)

    def astore(self) -> "MethodBuilder":
        return self.emit(Op.ASTORE)

    def arraylength(self) -> "MethodBuilder":
        return self.emit(Op.ARRAYLENGTH)

    def nop(self) -> "MethodBuilder":
        return self.emit(Op.NOP)

    # -- finalisation -----------------------------------------------------
    def build(self):
        """Resolve labels and return a :class:`repro.jvm.classfile.JMethod`."""
        from repro.jvm.classfile import JMethod

        for label in self._labels:
            pass  # placement is validated per fixup below
        code = list(self._code)
        for bci, label in self._fixups:
            if label.bci is None:
                raise AssemblyError(
                    f"branch at bci {bci} targets unplaced label {label!r}")
            code[bci] = code[bci].with_target(label.bci)
        for bci, ins in enumerate(code):
            if ins.op in BRANCH_OPS and isinstance(ins.target, Label):
                raise AssemblyError(
                    f"unresolved label operand at bci {bci}")
        return JMethod(
            class_name=self.class_name,
            name=self.method_name,
            num_args=self.num_args,
            code=code,
            source_file=self.source_file,
            max_locals=self._max_local + 1)


def disassemble(code: Sequence[Instruction]) -> str:
    """Human-readable listing with BCIs and source lines."""
    rows = []
    for bci, ins in enumerate(code):
        rows.append(f"{bci:4d}  (line {ins.line:4d})  {ins!r}")
    return "\n".join(rows)
