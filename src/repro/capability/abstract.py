"""Abstract capabilities: the architecture-neutral capability API.

S4.1: "We defined abstract capabilities as a Coq module type which
defines an opaque capability type and operations on it."  This module is
the Python analogue: :class:`Capability` is the opaque type the memory
object model manipulates, and :class:`Architecture` packages every
implementation-defined aspect (S3.10) -- field widths, permission bit
positions, object-type width, compression parameters -- so the same
semantics runs over Morello-style and CHERIoT-style capability formats.

Capability values are immutable.  All mutating operations return new
values and respect the CHERI monotonicity property: normal operations can
narrow bounds and drop permissions but never widen or add them, and any
operation that would forge authority instead clears the tag (S2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

from repro.capability.concentrate import (
    CompressedBounds,
    CompressionParams,
    DecodedBounds,
)
from repro.capability.ghost import GhostState
from repro.capability.otype import OType
from repro.capability.permissions import Permission, PermissionSet


#: Bound on the per-architecture decode memo, and on each shared
#: root's derivation memos, before it is dropped.
_DECODE_MEMO_LIMIT = 4096


@dataclass(frozen=True)
class Architecture:
    """Implementation-defined capability parameters for one CHERI ISA.

    The paper (S3.10) restricts the scope of compression to address,
    flags, and the two bounds; permissions and object type are represented
    exactly.  Accordingly the byte encoding produced here stores the
    compressed B/T/IE fields plus exact perms/otype fields.
    """

    name: str
    compression: CompressionParams
    otype_width: int
    perm_order: tuple[Permission, ...]

    def __post_init__(self) -> None:
        p = self.compression
        used = (p.address_width + p.mantissa_width + p.top_width + 1
                + self.otype_width + len(self.perm_order))
        if used % 8 != 0:
            raise ValueError(
                f"capability fields of {self.name} total {used} bits, "
                "not a whole number of bytes")

    def __getstate__(self) -> dict:
        """Pickle the defining fields only.  The memos kept in the
        instance dictionary (sizes, roots, permission sets, the decode
        memo with up to thousands of capabilities) rebuild on demand, so
        shipping an implementation to a worker stays cheap."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- sizes ----------------------------------------------------------
    # Sizes are fixed per (frozen) architecture and consulted on every
    # load, store, and layout query, so they are cached per instance.

    @cached_property
    def address_width(self) -> int:
        return self.compression.address_width

    @cached_property
    def address_mask(self) -> int:
        return self.compression.address_mask

    @cached_property
    def capability_size(self) -> int:
        """Size in bytes of the in-memory capability representation."""
        p = self.compression
        bits = (p.address_width + p.mantissa_width + p.top_width + 1
                + self.otype_width + len(self.perm_order))
        return bits // 8

    @cached_property
    def ptraddr_size(self) -> int:
        """Size in bytes of the ``ptraddr_t`` integer type (S3.10)."""
        return self.address_width // 8

    # -- construction ---------------------------------------------------

    def root_permissions(self) -> PermissionSet:
        memo = self.__dict__.get("_root_perms")
        if memo is None:
            memo = PermissionSet.from_iterable(self.perm_order)
            self.__dict__["_root_perms"] = memo
        return memo

    def root_capability(self) -> "Capability":
        """The maximal ("almighty") capability covering all of memory.

        Capabilities are immutable, so the one root value is shared: the
        allocator derives every allocation's capability from it.
        """
        memo = self.__dict__.get("_root_cap")
        if memo is None:
            memo = Capability(
                arch=self,
                address=0,
                bounds_fields=CompressedBounds.maximal(self.compression),
                perms=self.root_permissions(),
                otype=OType.unsealed(),
                tag=True,
            )
            self.__dict__["_root_cap"] = memo
        return memo

    def derived_root(self, mask: PermissionSet) -> "Capability":
        """The root capability with its permissions narrowed to ``mask``.

        Allocation capabilities (data, const, code) start from one of a
        handful of such roots; each is derived once per mask and shared.
        """
        memo = self.__dict__.setdefault("_derived_roots", {})
        cap = memo.get(mask)
        if cap is None:
            cap = self.root_capability().with_perms_masked(mask)
            memo[mask] = cap
        return cap

    def null_capability(self, address: int = 0) -> "Capability":
        """The NULL-derived capability: untagged, permissionless.

        Its bounds fields decode to the whole address space so that
        casting integers through ``(u)intptr_t`` keeps the address exact;
        authority is conveyed by the (absent) tag and (empty) perms.
        """
        bounds = CompressedBounds.maximal(self.compression)
        return _make_cap(self, address & self.address_mask, bounds,
                         PermissionSet.empty(), OType.unsealed(), False,
                         GhostState.clean())

    # -- representation bytes --------------------------------------------

    def encode(self, cap: "Capability") -> bytes:
        """The in-memory representation, excluding the out-of-band tag.

        A pure function of the frozen capability, so it is memoised on
        the instance: a pointer stored again and again encodes once.
        A decoded capability is seeded with the bytes it came from (the
        fields fill the representation exactly, so the two agree).
        """
        data = cap.__dict__.get("_encoded_memo")
        if data is None or cap.arch is not self:
            data = self._encode(cap)
            if cap.arch is self:
                cap.__dict__["_encoded_memo"] = data
        return data

    def _encode(self, cap: "Capability") -> bytes:
        p = self.compression
        word = cap.address & p.address_mask
        pos = p.address_width
        word |= cap.bounds_fields.b_field << pos
        pos += p.mantissa_width
        word |= cap.bounds_fields.t_field << pos
        pos += p.top_width
        word |= (1 if cap.bounds_fields.internal_exponent else 0) << pos
        pos += 1
        word |= (cap.otype.value & ((1 << self.otype_width) - 1)) << pos
        pos += self.otype_width
        for i, perm in enumerate(self.perm_order):
            if perm in cap.perms:
                word |= 1 << (pos + i)
        return word.to_bytes(self.capability_size, "little")

    def decode(self, data: bytes, tag: bool,
               ghost: GhostState = GhostState()) -> "Capability":
        """Rebuild a capability from representation bytes plus its tag.

        Capabilities are immutable and a decode is a pure function of
        its three inputs, so one value is shared per distinct input: a
        pointer loaded again and again is one instance, which keeps its
        decoded bounds and passed access checks.  The memo is bounded
        like the layout memos (fuzzing makes fresh values forever).
        """
        memo = self.__dict__.setdefault("_decode_memo", {})
        key = (data, tag, ghost)
        cap = memo.get(key)
        if cap is None:
            cap = self._decode(data, tag, ghost)
            if len(memo) >= _DECODE_MEMO_LIMIT:
                memo.clear()
            memo[key] = cap
        return cap

    def _decode(self, data: bytes, tag: bool,
                ghost: GhostState) -> "Capability":
        if len(data) != self.capability_size:
            raise ValueError(
                f"capability representation must be {self.capability_size}"
                f" bytes, got {len(data)}")
        p = self.compression
        word = int.from_bytes(data, "little")
        address = word & p.address_mask
        pos = p.address_width
        b_field = (word >> pos) & ((1 << p.mantissa_width) - 1)
        pos += p.mantissa_width
        t_field = (word >> pos) & ((1 << p.top_width) - 1)
        pos += p.top_width
        internal = bool((word >> pos) & 1)
        pos += 1
        otype = OType((word >> pos) & ((1 << self.otype_width) - 1))
        pos += self.otype_width
        perm_bits = word >> pos
        # Permission sets are immutable and drawn from a small universe,
        # so decode shares one PermissionSet per distinct bit pattern.
        memo = self.__dict__.setdefault("_permset_memo", {})
        perms = memo.get(perm_bits)
        if perms is None:
            perms = PermissionSet.from_iterable(
                perm for i, perm in enumerate(self.perm_order)
                if (perm_bits >> i) & 1)
            memo[perm_bits] = perms
        cap = _make_cap(self, address,
                        CompressedBounds(p, b_field, t_field, internal),
                        perms, otype, tag, ghost)
        cap.__dict__["_encoded_memo"] = data
        return cap

    # -- portability envelope ---------------------------------------------

    def portable_representable_limits(self, base: int,
                                      length: int) -> tuple[int, int]:
        """The conservative cross-architecture envelope of [45, S4.3.5].

        "pointers are guaranteed representable if within the greater of
        1KiB and 1/8 of the object size below the lower bound, and the
        greater of 2KiB and 1/4 of the object size above the upper bound."
        This is representability option (i) of S3.3; the architectural
        notion (option (ii), the default) is
        :meth:`Capability.representable_limits`.
        """
        below = max(1024, length // 8)
        above = max(2048, length // 4)
        lo = max(0, base - below)
        hi = min(1 << self.address_width, base + length + above)
        return lo, hi


@dataclass(frozen=True)
class Capability:
    """An abstract CHERI capability value.

    Bounds are stored compressed and re-derived from the current address,
    exactly as in hardware; ``ghost`` carries the abstract machine's
    per-value ghost bits (S3.3, S3.5) and is ignored in hardware mode.
    """

    arch: Architecture
    address: int
    bounds_fields: CompressedBounds
    perms: PermissionSet
    otype: OType
    tag: bool
    ghost: GhostState = field(default_factory=GhostState)

    # -- derived views -----------------------------------------------------

    def decoded(self) -> DecodedBounds:
        """Decode the bounds relative to the current address.

        Both inputs are frozen, so the result is memoised per instance.
        A clone inherits the memo only when its decode is known to be
        equal: clones that keep the address and bounds fields (tag,
        perms, otype, ghost), and address moves inside the
        representable window, where decoding yields the same bounds by
        construction.  Any other clone re-derives its own bounds,
        exactly as hardware does.
        """
        memo = self.__dict__.get("_decoded_memo")
        if memo is None:
            memo = self.bounds_fields.decode(self.address)
            self.__dict__["_decoded_memo"] = memo
        return memo

    @property
    def base(self) -> int:
        return self.decoded().base

    @property
    def top(self) -> int:
        return self.decoded().top

    @property
    def length(self) -> int:
        return self.decoded().length

    @property
    def is_sealed(self) -> bool:
        return self.otype.is_sealed

    @property
    def is_null_derived(self) -> bool:
        """True for values derived from NULL (no tag, no authority)."""
        return not self.tag and len(self.perms) == 0

    def is_null(self) -> bool:
        """The NULL capability itself (untagged, authority-free, addr 0)."""
        return self.is_null_derived and self.address == 0

    def in_bounds(self, address: int | None = None, size: int = 1) -> bool:
        """Footprint check ``base <= a && a + size <= top`` (S4.3 (1e))."""
        addr = self.address if address is None else address
        return self.decoded().contains(addr, size)

    def has_perm(self, *perms: Permission) -> bool:
        return self.perms.has(*perms)

    def passed_checks(self) -> set:
        """Access-check keys this capability is known to pass.

        The memory model's capability checks (ghost, tag, seal,
        permission, bounds) read only the capability's own frozen
        fields plus the access's shape, so a pass is a fact about this
        instance.  The model records the shape of each passing access
        here and skips those checks on a repeat; failures are never
        recorded, and clones start with an empty set.
        """
        memo = self.__dict__.get("_passed_memo")
        if memo is None:
            memo = self.__dict__["_passed_memo"] = set()
        return memo

    # -- address movement ---------------------------------------------------

    def representable_limits(self) -> tuple[int, int]:
        return self.bounds_fields.representable_limits(self.address)

    def with_address(self, new_address: int) -> "Capability":
        """Hardware semantics of moving the address (pointer arithmetic).

        If the new address is outside the representable window, "the
        resulting address will be as expected, but the tag will be
        cleared and the bounds may have been changed" (S3.2).  Modifying
        a sealed capability likewise clears the tag.
        """
        new_address &= self.arch.address_mask
        if new_address == self.address and not self.is_sealed:
            return self
        representable = self.bounds_fields.is_representable(
            self.address, new_address)
        tag = self.tag and representable and not self.is_sealed
        return _make_cap(self.arch, new_address, self.bounds_fields,
                         self.perms, self.otype, tag, self.ghost,
                         self._shared_decode(representable))

    def with_address_ghost(self, new_address: int) -> "Capability":
        """Abstract-machine semantics of S3.3 option (c).

        The address always takes the requested value; a non-representable
        excursion is recorded in ghost state (both bits: the tag and the
        bounds become unspecified), making later memory access UB but
        keeping the integer value defined.  The ghost bits are sticky so
        that optimisations may eliminate the excursion.
        """
        new_address &= self.arch.address_mask
        if new_address == self.address and not self.is_sealed:
            return self
        representable = self.bounds_fields.is_representable(
            self.address, new_address)
        ghost = self.ghost
        if not representable:
            ghost = ghost.with_tag_unspecified().with_bounds_unspecified()
        tag = self.tag and not self.is_sealed
        return _make_cap(self.arch, new_address, self.bounds_fields,
                         self.perms, self.otype, tag, ghost,
                         self._shared_decode(representable))

    def _shared_decode(self, representable: bool) -> DecodedBounds | None:
        """The bounds memo an address-moved clone may inherit: only
        inside the representable window does the new address decode to
        the same bounds."""
        if representable:
            return self.__dict__.get("_decoded_memo")
        return None

    # -- monotonic narrowing ------------------------------------------------

    def set_bounds(self, base: int, length: int) -> tuple["Capability", bool]:
        """``CSetBounds``: narrow bounds to ``[base, base+length)``.

        Returns the new capability and whether the requested bounds were
        exactly representable.  Requesting bounds outside the current
        bounds is not an authority the capability conveys, so the result's
        tag is cleared (the CHERI-RISC-V v9 behaviour the paper's S5.2
        notes the ISA is converging on, rather than trapping).  A
        region reaching past the top of the address space is out of
        bounds of every capability: the tag is cleared and the bounds
        are left as they were.
        """
        if base + length > 1 << self.arch.address_width:
            return self.with_tag(False), False
        fields_, exact = CompressedBounds.encode(
            self.arch.compression, base, length)
        monotonic = (self.decoded().contains(base, length)
                     if length > 0 else
                     self.decoded().contains(base, 0) or base == self.top)
        tag = self.tag and monotonic and not self.is_sealed
        cap = _make_cap(self.arch, base, fields_, self.perms, self.otype,
                        tag, self.ghost)
        return cap, exact

    def bounded(self, base: int, length: int) -> "Capability":
        """``set_bounds(base, length)[0]``, memoised on this capability.

        For the shared allocation roots, which derive one capability per
        allocation: the derivation (Concentrate encode, monotonicity
        check) runs once per ``(base, length)``, and every later call
        builds a fresh capability from the memoised bounds fields, so
        per-capability memos such as :meth:`passed_checks` stay per
        capability.
        """
        return self._derive("_bounded_memo", base, length, None)

    def sentry(self, base: int, length: int) -> "Capability":
        """``set_bounds(base, length)[0].sealed_with(OType.sentry())``,
        memoised on this capability like :meth:`bounded` (the code root's
        function designators)."""
        return self._derive("_sentry_memo", base, length, OType.sentry())

    def _derive(self, name: str, base: int, length: int,
                seal: OType | None) -> "Capability":
        """The memoised derivation behind :meth:`bounded`/:meth:`sentry`.

        The first derivation of a ``(base, length)`` is returned as is
        and kept, so a shape seen once costs no more than
        :meth:`set_bounds`.  On its second use it is compacted: a tagged
        result differs from this capability only in address, bounds
        fields and, when sealed, otype, so the memo keeps just the packed
        bounds fields, the decoded bounds and the encoding under one
        integer key (a root holds a few hundred on the S5 grid).
        """
        memo = self.__dict__.get(name)
        if memo is None:
            memo = self.__dict__[name] = {}
        key = base << 65 | length   # length <= 2**64 < 2**65
        hit = memo.get(key)
        if hit is None:
            cap, _exact = self.set_bounds(base, length)
            if seal is not None:
                cap = cap.sealed_with(seal)
            if cap.tag:
                if len(memo) >= _DECODE_MEMO_LIMIT:
                    memo.clear()
                memo[key] = cap
            return cap
        if type(hit) is Capability:
            hit = memo[key] = (hit.bounds_fields.pack(), hit.decoded(),
                               self.arch.encode(hit))
        packed, decoded, encoded = hit
        cap = _make_cap(
            self.arch, base,
            CompressedBounds.unpack(self.arch.compression, packed),
            self.perms, self.otype if seal is None else seal, True,
            self.ghost, decoded)
        cap.__dict__["_encoded_memo"] = encoded
        return cap

    def without_perms(self, *perms: Permission) -> "Capability":
        return self._clone(perms=self.perms.without(*perms))

    def with_perms_masked(self, mask: PermissionSet) -> "Capability":
        return self._clone(perms=self.perms.intersect(mask))

    # -- sealing --------------------------------------------------------

    def sealed_with(self, otype: OType) -> "Capability":
        """Seal with the given object type (authority checked by caller)."""
        if self.is_sealed:
            return self._clone(tag=False)
        return self._clone(otype=otype)

    def unsealed(self) -> "Capability":
        return self._clone(otype=OType.unsealed())

    # -- comparisons ----------------------------------------------------

    def equal_exact(self, other: "Capability") -> bool:
        """Bitwise equality of representations, including the tag (S3.6).

        Ghost-state handling (unspecified results when either side has
        unspecified fields) is the memory model's job; this is the raw
        architectural comparison.
        """
        return (self.tag == other.tag
                and self.arch.encode(self) == other.arch.encode(other))

    # -- ghost plumbing ----------------------------------------------------

    def with_ghost(self, ghost: GhostState) -> "Capability":
        return self._clone(ghost=ghost)

    def merge_ghost(self, ghost: GhostState) -> "Capability":
        return self._clone(ghost=self.ghost.merge(ghost))

    def with_tag(self, tag: bool) -> "Capability":
        return self._clone(tag=tag)

    def _clone(self, *, perms: PermissionSet | None = None,
               otype: OType | None = None, tag: bool | None = None,
               ghost: GhostState | None = None) -> "Capability":
        """A copy differing only in metadata; address and bounds fields
        are unchanged, so the clone shares the decoded-bounds memo."""
        return _make_cap(
            self.arch, self.address, self.bounds_fields,
            self.perms if perms is None else perms,
            self.otype if otype is None else otype,
            self.tag if tag is None else tag,
            self.ghost if ghost is None else ghost,
            self.__dict__.get("_decoded_memo"))

    # -- display ------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        d = self.decoded()
        state = "" if self.tag else " (notag)"
        ghost = "" if self.ghost.is_clean else f" ghost[{self.ghost.describe()}]"
        return (f"<cap {self.address:#x} [{self.perms.describe()},"
                f"{d.base:#x}-{d.top:#x}]{state}{ghost}>")


_new = object.__new__


def _make_cap(arch: Architecture, address: int,
              bounds_fields: CompressedBounds, perms: PermissionSet,
              otype: OType, tag: bool, ghost: GhostState,
              decoded: DecodedBounds | None = None) -> Capability:
    """The one internal constructor for derived capabilities.

    It fills the instance dictionary directly instead of going through
    the frozen dataclass ``__init__`` (one ``object.__setattr__`` per
    field); the fields are the same, so equality, hashing and pickling
    are unchanged.  ``decoded`` seeds the bounds memo and must equal
    ``bounds_fields.decode(address)``.
    """
    cap = _new(Capability)
    state = cap.__dict__
    state["arch"] = arch
    state["address"] = address
    state["bounds_fields"] = bounds_fields
    state["perms"] = perms
    state["otype"] = otype
    state["tag"] = tag
    state["ghost"] = ghost
    if decoded is not None:
        state["_decoded_memo"] = decoded
    return cap
