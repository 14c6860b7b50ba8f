"""Built-in functions: the tiny libc and the CHERI intrinsics.

The paper's test environment provides libc (CheriBSD or newlib) and the
``cheriintrin.h`` intrinsics; here they are interpreter built-ins so that
their semantics (notably ``memcpy``'s capability preservation, S3.5, and
the intrinsics' ghost-state behaviour, S3.5/S4.5) are exactly the memory
model's.

``print_cap(label, value)`` is this dialect's rendering of the appendix's
``capprint.h`` helper: it prints a line ``label <capability>`` in the
Appendix-A format appropriate to the implementation (abstract or
hardware).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.capability.abstract import Capability
from repro.ctypes.types import (
    BOOL, CType, IKind, INT, Integer, Pointer, PTRADDR, SIZE_T, VOID,
)
from repro.errors import (
    AssertionFailure, CTypeError, UB, UndefinedBehaviour,
)
from repro.memory.intrinsics import SIGNATURES, UNSPECIFIED
from repro.memory.provenance import Provenance, ProvKind
from repro.memory.values import (
    IntegerValue, MemoryValue, MVInteger, MVPointer, MVUnspecified,
    PointerValue,
)
from repro.reporting.capprint import format_capability

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.coreeval import CoreEvaluator


class ExitSignal(Exception):
    """``exit(status)``: unwinds to the evaluator's outcome mapping."""

    def __init__(self, status: int) -> None:
        self.status = status


class AbortSignal(Exception):
    """``abort()``: unwinds to the evaluator's outcome mapping."""

    def __init__(self, detail: str) -> None:
        self.detail = detail


#: Runtime-provided (not header-intrinsic) CHERI helpers.
CHERI_RUNTIME_NAMES = frozenset({
    "cheri_sealcap_get",
})

LIBC_NAMES = frozenset({
    "malloc", "calloc", "free", "realloc",
    "memcpy", "memmove", "memset", "memcmp",
    "strlen", "strcmp", "strcpy", "strncmp",
    "strcat", "strncpy", "strchr", "memchr",
    "printf", "fprintf", "puts", "putchar", "sptr",
    "assert", "abort", "exit",
    "print_cap", "print_int",
})

BUILTIN_NAMES = LIBC_NAMES | CHERI_RUNTIME_NAMES | frozenset(SIGNATURES)


def dispatch(interp: "CoreEvaluator", name: str, args: list[MemoryValue],
             line: int) -> MemoryValue | None:
    if name in SIGNATURES:
        result = _intrinsic(interp, name, args, line)
        bus = interp.model.bus
        if bus is not None:
            _emit_intrinsic_call(interp, bus, name, args, result)
        return result
    handler = _HANDLERS[name]
    return handler(interp, args, line)


def _trace_render(interp: "CoreEvaluator", value: MemoryValue) -> str:
    """Render a value for the ``intrinsic.call`` trace payload in the
    Appendix-A capprint style (provenance-free under hardware)."""
    hardware = interp.model.hardware
    if isinstance(value, MVPointer):
        return format_capability(value.ptr.cap,
                                 None if hardware else value.ptr.prov,
                                 hardware=hardware)
    if isinstance(value, MVInteger):
        ival = value.ival
        if ival.cap is not None:
            return format_capability(ival.cap,
                                     None if hardware else ival.prov,
                                     hardware=hardware)
        return str(ival.value())
    if isinstance(value, MVUnspecified):
        return "?"
    return str(value)


def _emit_intrinsic_call(interp: "CoreEvaluator", bus, name: str,
                         args: list[MemoryValue],
                         result: MemoryValue) -> None:
    ctx = {}
    arg0 = args[0] if args else None
    prov = None
    if isinstance(arg0, MVPointer):
        prov = arg0.ptr.prov
    elif isinstance(arg0, MVInteger):
        prov = arg0.ival.prov
    if prov is not None:
        if prov.kind is ProvKind.ALLOC:
            ctx["alloc"] = prov.ident
        elif prov.is_symbolic:
            ctx["iota"] = prov.ident
    rendered = [_trace_render(interp, a) for a in args]
    bus.emit("intrinsic.call", name=name, args=rendered,
             result=_trace_render(interp, result), **ctx,
             what=f"{name}({', '.join(rendered)}) = "
                  f"{_trace_render(interp, result)}")


# ---------------------------------------------------------------------------
# Intrinsics plumbing
# ---------------------------------------------------------------------------


def _value_capability(interp: "CoreEvaluator",
                      value: MemoryValue) -> tuple[Capability, Provenance,
                                                   CType]:
    """Extract the capability view of any capability-carrying argument
    (the S4.5 polymorphism)."""
    if isinstance(value, MVPointer):
        return value.ptr.cap, value.ptr.prov, value.ctype
    if isinstance(value, MVInteger):
        ival = value.ival
        if ival.cap is not None:
            return ival.cap, ival.prov, value.ctype
        # A plain integer used as a capability: NULL-derived.
        addr = ival.value() & interp.arch.address_mask
        return interp.arch.null_capability(addr), Provenance.empty(), \
            value.ctype
    raise CTypeError(f"intrinsic needs a capability argument, got "
                     f"{value.ctype}")


def _rebuild(interp: "CoreEvaluator", ctype: CType, cap: Capability,
             prov: Provenance) -> MemoryValue:
    """Package an intrinsic's capability result at the argument's type
    (the SAME_AS_ARG0 return-type derivation)."""
    if isinstance(ctype, Pointer):
        return MVPointer(ctype, PointerValue(prov, cap))
    if isinstance(ctype, Integer) and ctype.kind.is_capability_carrying:
        return MVInteger(ctype, IntegerValue.of_cap(cap, ctype.is_signed,
                                                    prov))
    # Plain-integer argument: results stay plain.
    return MVInteger(ctype, IntegerValue.of_int(
        interp.layout.wrap(ctype.kind, cap.address)
        if isinstance(ctype, Integer) else cap.address))


def _int_result(ctype: CType, value,
                interp: "CoreEvaluator") -> MemoryValue:
    if value is UNSPECIFIED:
        return MVUnspecified(ctype)
    if isinstance(value, bool):
        return MVInteger(ctype, IntegerValue.of_int(int(value)))
    assert isinstance(ctype, Integer)
    return MVInteger(ctype, IntegerValue.of_int(
        interp.layout.wrap(ctype.kind, value)))


def _intrinsic(interp: "CoreEvaluator", name: str, args: list[MemoryValue],
               line: int) -> MemoryValue:
    sig = SIGNATURES[name]
    if len(args) != len(sig.params):
        raise CTypeError(f"{name} expects {len(sig.params)} arguments")
    intr = interp.intrinsics
    if name == "cheri_representable_length":
        return _int_result(SIZE_T, intr.representable_length(
            _length(interp, args[0], name)), interp)
    if name == "cheri_representable_alignment_mask":
        return _int_result(SIZE_T, intr.representable_alignment_mask(
            _length(interp, args[0], name)), interp)

    cap, prov, arg_type = _value_capability(interp, args[0])

    getters = {
        "cheri_address_get": (intr.address_get, PTRADDR),
        "cheri_base_get": (intr.base_get, PTRADDR),
        "cheri_length_get": (intr.length_get, SIZE_T),
        "cheri_offset_get": (intr.offset_get, SIZE_T),
        "cheri_tag_get": (intr.tag_get, BOOL),
        "cheri_perms_get": (intr.perms_get, SIZE_T),
        "cheri_type_get": (intr.type_get, Integer(IKind.LONG)),
        "cheri_is_sealed": (intr.is_sealed, BOOL),
        "cheri_is_sentry": (intr.is_sentry, BOOL),
        "cheri_is_valid": (intr.is_valid, BOOL),
    }
    if name in getters:
        fn, ret = getters[name]
        return _int_result(ret, fn(cap), interp)

    if name == "cheri_top_get":
        return _int_result(PTRADDR, intr.top_get(cap), interp)
    if name in ("cheri_seal", "cheri_unseal"):
        authority, _aprov, _atype = _value_capability(interp, args[1])
        fn = intr.seal if name == "cheri_seal" else intr.unseal
        return _rebuild(interp, arg_type, fn(cap, authority), prov)
    if name == "cheri_sentry_create":
        return _rebuild(interp, arg_type, intr.sentry_create(cap), prov)

    if name in ("cheri_is_equal_exact", "cheri_is_subset"):
        cap2, _prov2, _t2 = _value_capability(interp, args[1])
        fn = (intr.is_equal_exact if name == "cheri_is_equal_exact"
              else intr.is_subset)
        return _int_result(BOOL, fn(cap, cap2), interp)

    if name in ("cheri_bounds_set", "cheri_bounds_set_exact"):
        fn = (intr.bounds_set if name == "cheri_bounds_set"
              else intr.bounds_set_exact)
        new_cap = fn(cap, _length(interp, args[1], name))
        return _rebuild(interp, arg_type, new_cap, prov)
    mutators = {
        "cheri_address_set": intr.address_set,
        "cheri_offset_set": intr.offset_set,
        "cheri_perms_and": intr.perms_and,
    }
    if name in mutators:
        operand = _plain_int(args[1], name)
        new_cap = mutators[name](cap, operand)
        return _rebuild(interp, arg_type, new_cap, prov)
    if name == "cheri_tag_clear":
        return _rebuild(interp, arg_type, intr.tag_clear(cap), prov)
    raise CTypeError(f"unhandled intrinsic {name}")


def _length(interp: "CoreEvaluator", value: MemoryValue, name: str) -> int:
    """A length argument converted to ``size_t`` as the intrinsic's
    prototype (:data:`~repro.memory.intrinsics.SIGNATURES`) declares,
    so a negative length wraps to a huge one."""
    return interp.layout.wrap(IKind.SIZE, _plain_int(value, name))


def _plain_int(value: MemoryValue, name: str) -> int:
    if isinstance(value, MVInteger):
        return value.ival.value()
    if isinstance(value, MVUnspecified):
        raise UndefinedBehaviour(UB.READ_UNINITIALISED,
                                 f"unspecified argument to {name}")
    raise CTypeError(f"{name} expects an integer argument")


# ---------------------------------------------------------------------------
# libc
# ---------------------------------------------------------------------------


def _need_ptr(value: MemoryValue, name: str) -> PointerValue:
    if isinstance(value, MVPointer):
        return value.ptr
    if isinstance(value, MVInteger) and value.ival.cap is not None:
        return PointerValue(value.ival.prov, value.ival.cap)
    raise CTypeError(f"{name} expects a pointer argument, got {value.ctype}")


def _bi_malloc(interp, args, line):
    size = _plain_int(args[0], "malloc")
    ptr = interp.model.allocate_region(size)
    return MVPointer(Pointer(VOID), ptr)


def _bi_calloc(interp, args, line):
    count = _plain_int(args[0], "calloc")
    size = _plain_int(args[1], "calloc")
    total = count * size
    ptr = interp.model.allocate_region(total)
    if total:
        interp.model.memset(ptr, 0, total)
    return MVPointer(Pointer(VOID), ptr)


def _bi_free(interp, args, line):
    interp.model.free(_need_ptr(args[0], "free"))
    return None


def _bi_realloc(interp, args, line):
    old = args[0]
    size = _plain_int(args[1], "realloc")
    if isinstance(old, MVPointer) and old.ptr.is_null():
        return MVPointer(Pointer(VOID),
                         interp.model.allocate_region(size, name="realloc"))
    new_ptr = interp.model.realloc(_need_ptr(old, "realloc"), size)
    return MVPointer(Pointer(VOID), new_ptr)


def _bi_memcpy(interp, args, line):
    dest = _need_ptr(args[0], "memcpy")
    src = _need_ptr(args[1], "memcpy")
    n = _plain_int(args[2], "memcpy")
    interp.model.memcpy(dest, src, n)
    return MVPointer(Pointer(VOID), dest)


def _bi_memset(interp, args, line):
    dest = _need_ptr(args[0], "memset")
    byte = _plain_int(args[1], "memset")
    n = _plain_int(args[2], "memset")
    interp.model.memset(dest, byte, n)
    return MVPointer(Pointer(VOID), dest)


def _bi_memcmp(interp, args, line):
    a = _need_ptr(args[0], "memcmp")
    b = _need_ptr(args[1], "memcmp")
    n = _plain_int(args[2], "memcmp")
    return MVInteger(INT, IntegerValue.of_int(interp.model.memcmp(a, b, n)))


def _read_cstring(interp, ptr: PointerValue, name: str) -> str:
    from repro.ctypes.types import UCHAR
    out = []
    cursor = ptr
    for _ in range(1 << 16):
        value = interp.model.load(UCHAR, cursor)
        if isinstance(value, MVUnspecified):
            raise UndefinedBehaviour(UB.READ_UNINITIALISED,
                                     f"{name} over uninitialised bytes")
        byte = value.ival.value()
        if byte == 0:
            return "".join(out)
        out.append(chr(byte))
        cursor = interp.model.array_shift(cursor, UCHAR, 1)
    raise CTypeError(f"unterminated string passed to {name}")


def _bi_strlen(interp, args, line):
    text = _read_cstring(interp, _need_ptr(args[0], "strlen"), "strlen")
    return MVInteger(SIZE_T, IntegerValue.of_int(len(text)))


def _bi_strcmp(interp, args, line):
    a = _read_cstring(interp, _need_ptr(args[0], "strcmp"), "strcmp")
    b = _read_cstring(interp, _need_ptr(args[1], "strcmp"), "strcmp")
    result = 0 if a == b else (-1 if a < b else 1)
    return MVInteger(INT, IntegerValue.of_int(result))


def _bi_strncmp(interp, args, line):
    a = _read_cstring(interp, _need_ptr(args[0], "strncmp"), "strncmp")
    b = _read_cstring(interp, _need_ptr(args[1], "strncmp"), "strncmp")
    n = _plain_int(args[2], "strncmp")
    a, b = a[:n], b[:n]
    result = 0 if a == b else (-1 if a < b else 1)
    return MVInteger(INT, IntegerValue.of_int(result))


def _bi_strcpy(interp, args, line):
    from repro.ctypes.types import UCHAR
    dest = _need_ptr(args[0], "strcpy")
    text = _read_cstring(interp, _need_ptr(args[1], "strcpy"), "strcpy")
    cursor = dest
    for ch in text + "\x00":
        interp.model.store(UCHAR, cursor,
                           MVInteger(UCHAR, IntegerValue.of_int(ord(ch))))
        cursor = interp.model.array_shift(cursor, UCHAR, 1)
    return MVPointer(Pointer(VOID), dest)


def _format_value(interp, spec: str, value: MemoryValue) -> str:
    if isinstance(value, MVUnspecified):
        return "?"
    conv = spec[-1]
    if conv == "p":
        if isinstance(value, MVPointer) or \
                (isinstance(value, MVInteger) and value.ival.cap is not None):
            return _trace_render(interp, value)
        return hex(_plain_int(value, "printf"))
    if conv == "s":
        return _read_cstring(interp, _need_ptr(value, "printf"), "printf")
    if conv == "c":
        return chr(_plain_int(value, "printf") & 0xFF)
    num = _plain_int(value, "printf")
    if conv in "dis":
        return str(num)
    if conv == "u":
        return str(num & ((1 << 64) - 1)) if num < 0 else str(num)
    if conv == "x":
        return format(num & ((1 << 64) - 1), "x")
    if conv == "X":
        return format(num & ((1 << 64) - 1), "X")
    if conv == "o":
        return format(num & ((1 << 64) - 1), "o")
    raise CTypeError(f"unsupported printf conversion %{conv}")


def _do_printf(interp, fmt: str, values: list[MemoryValue]) -> str:
    out = []
    i = 0
    argi = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        i += 1
        if i < len(fmt) and fmt[i] == "%":
            out.append("%")
            i += 1
            continue
        spec = "%"
        while i < len(fmt) and fmt[i] in "0123456789.#-+ lzhjt":
            spec += fmt[i]
            i += 1
        if i >= len(fmt):
            raise CTypeError("dangling % in printf format")
        spec += fmt[i]
        i += 1
        if argi >= len(values):
            raise CTypeError("printf: not enough arguments")
        out.append(_format_value(interp, spec, values[argi]))
        argi += 1
    return "".join(out)


def _bi_strcat(interp, args, line):
    from repro.ctypes.types import UCHAR
    dest = _need_ptr(args[0], "strcat")
    head = _read_cstring(interp, dest, "strcat")
    tail = _read_cstring(interp, _need_ptr(args[1], "strcat"), "strcat")
    cursor = interp.model.array_shift(dest, UCHAR, len(head))
    for ch in tail + "\x00":
        interp.model.store(UCHAR, cursor,
                           MVInteger(UCHAR, IntegerValue.of_int(ord(ch))))
        cursor = interp.model.array_shift(cursor, UCHAR, 1)
    return MVPointer(Pointer(VOID), dest)


def _bi_strncpy(interp, args, line):
    from repro.ctypes.types import UCHAR
    dest = _need_ptr(args[0], "strncpy")
    text = _read_cstring(interp, _need_ptr(args[1], "strncpy"), "strncpy")
    n = _plain_int(args[2], "strncpy")
    cursor = dest
    for i in range(n):
        byte = ord(text[i]) if i < len(text) else 0
        interp.model.store(UCHAR, cursor,
                           MVInteger(UCHAR, IntegerValue.of_int(byte)))
        cursor = interp.model.array_shift(cursor, UCHAR, 1)
    return MVPointer(Pointer(VOID), dest)


def _bi_strchr(interp, args, line):
    from repro.ctypes.types import CHAR, UCHAR
    base = _need_ptr(args[0], "strchr")
    wanted = _plain_int(args[1], "strchr") & 0xFF
    cursor = base
    for _ in range(1 << 16):
        value = interp.model.load(UCHAR, cursor)
        byte = _plain_int(value, "strchr")
        if byte == wanted:
            return MVPointer(Pointer(CHAR), cursor)
        if byte == 0:
            return MVPointer(Pointer(CHAR), interp.model.null_pointer())
        cursor = interp.model.array_shift(cursor, UCHAR, 1)
    raise CTypeError("unterminated string passed to strchr")


def _bi_memchr(interp, args, line):
    from repro.ctypes.types import UCHAR, VOID as _VOID
    base = _need_ptr(args[0], "memchr")
    wanted = _plain_int(args[1], "memchr") & 0xFF
    n = _plain_int(args[2], "memchr")
    cursor = base
    for i in range(n):
        value = interp.model.load(UCHAR, cursor)
        if _plain_int(value, "memchr") == wanted:
            return MVPointer(Pointer(_VOID), cursor)
        if i + 1 < n:
            cursor = interp.model.array_shift(cursor, UCHAR, 1)
    return MVPointer(Pointer(_VOID), interp.model.null_pointer())


def _bi_printf(interp, args, line):
    fmt = _read_cstring(interp, _need_ptr(args[0], "printf"), "printf")
    text = _do_printf(interp, fmt, args[1:])
    interp.out.write(text)
    return MVInteger(INT, IntegerValue.of_int(len(text)))


def _bi_fprintf(interp, args, line):
    fmt = _read_cstring(interp, _need_ptr(args[1], "fprintf"), "fprintf")
    text = _do_printf(interp, fmt, args[2:])
    interp.out.write(text)
    return MVInteger(INT, IntegerValue.of_int(len(text)))


def _bi_puts(interp, args, line):
    text = _read_cstring(interp, _need_ptr(args[0], "puts"), "puts")
    interp.out.write(text + "\n")
    return MVInteger(INT, IntegerValue.of_int(len(text) + 1))


def _bi_putchar(interp, args, line):
    ch = _plain_int(args[0], "putchar")
    interp.out.write(chr(ch & 0xFF))
    return MVInteger(INT, IntegerValue.of_int(ch))


def _bi_assert(interp, args, line):
    if not interp.truthy(args[0]):
        raise AssertionFailure(f"line {line}")
    return None


def _bi_abort(interp, args, line):
    raise AbortSignal("abort() called")


def _bi_exit(interp, args, line):
    raise ExitSignal(_plain_int(args[0], "exit") & 0xFF)


def _bi_sptr(interp, args, line):
    """The appendix's capprint.h helper: format a capability as a
    string (printed with the PTR_FMT macro, which expands to "s")."""
    value = args[0]
    if isinstance(value, MVUnspecified):
        text = "<unspecified>"
    else:
        cap, prov, _t = _value_capability(interp, value)
        hardware = interp.model.hardware
        text = format_capability(cap, None if hardware else prov,
                                 hardware=hardware)
    from repro.ctypes.types import CHAR
    ptr = interp.model.allocate_string(text.encode("latin-1"),
                                       name="sptr")
    return MVPointer(Pointer(CHAR), ptr)


def _bi_sealcap_get(interp, args, line):
    """The CheriBSD-style sealing root: a capability with Seal/Unseal
    permission whose address range spans the software object types."""
    from repro.capability.otype import OType
    from repro.capability.permissions import Permission, PermissionSet
    root = interp.arch.root_capability()
    auth = root.with_perms_masked(PermissionSet.of(
        Permission.GLOBAL, Permission.SEAL, Permission.UNSEAL))
    auth, _ = auth.set_bounds(OType.FIRST_USER,
                              (1 << interp.arch.otype_width)
                              - OType.FIRST_USER)
    return MVPointer(Pointer(VOID), PointerValue(Provenance.empty(), auth))


def _bi_print_cap(interp, args, line):
    """``print_cap(label, value)``: the Appendix-A trace line."""
    label = _read_cstring(interp, _need_ptr(args[0], "print_cap"),
                          "print_cap")
    value = args[1]
    if isinstance(value, MVUnspecified):
        interp.out.write(f"{label} <unspecified>\n")
        return None
    cap, prov, _t = _value_capability(interp, value)
    hardware = interp.model.hardware
    text = format_capability(cap, None if hardware else prov,
                             hardware=hardware)
    interp.out.write(f"{label} {text}\n")
    return None


def _bi_print_int(interp, args, line):
    """``print_int(label, n)``: labelled decimal trace line."""
    label = _read_cstring(interp, _need_ptr(args[0], "print_int"),
                          "print_int")
    if isinstance(args[1], MVUnspecified):
        interp.out.write(f"{label} ?\n")
        return None
    interp.out.write(f"{label} {_plain_int(args[1], 'print_int')}\n")
    return None


_HANDLERS = {
    "malloc": _bi_malloc,
    "calloc": _bi_calloc,
    "free": _bi_free,
    "realloc": _bi_realloc,
    "memcpy": _bi_memcpy,
    "memmove": _bi_memcpy,
    "memset": _bi_memset,
    "memcmp": _bi_memcmp,
    "strlen": _bi_strlen,
    "strcmp": _bi_strcmp,
    "strncmp": _bi_strncmp,
    "strcpy": _bi_strcpy,
    "strcat": _bi_strcat,
    "strncpy": _bi_strncpy,
    "strchr": _bi_strchr,
    "memchr": _bi_memchr,
    "printf": _bi_printf,
    "fprintf": _bi_fprintf,
    "puts": _bi_puts,
    "putchar": _bi_putchar,
    "assert": _bi_assert,
    "abort": _bi_abort,
    "exit": _bi_exit,
    "sptr": _bi_sptr,
    "cheri_sealcap_get": _bi_sealcap_get,
    "print_cap": _bi_print_cap,
    "print_int": _bi_print_int,
}
