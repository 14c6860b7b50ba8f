"""Capability permissions.

S2.1: "The permission bits control whether a capability can be used for
loading or storing non-capability data, loading or storing capabilities,
and fetching instructions, among other things."

S3.10: "The list of permissions encoded in capability can vary between
architectures, but there is a common basic set which is always present."

We model permissions as a frozen set over :class:`Permission`, with the
*portable base set* (:data:`BASE_PERMISSIONS`) common to Morello,
CHERI-RISC-V, and CHERIoT, plus architecture-specific members.  Each
architecture assigns its own bit positions (see the ``perm_bits`` mapping
on :class:`~repro.capability.abstract.Architecture`), so a
:class:`PermissionSet` itself is architecture-neutral, as required for
portable CHERI C (S3.10).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator


class Permission(enum.Enum):
    """Individual capability permissions.

    The first block is the portable base set; the second block contains
    permissions present on some architectures only (Morello names used).
    """

    # --- portable base set ------------------------------------------------
    GLOBAL = "G"
    LOAD = "r"
    STORE = "w"
    EXECUTE = "x"
    LOAD_CAP = "R"
    STORE_CAP = "W"
    STORE_LOCAL_CAP = "L"
    SEAL = "S"
    UNSEAL = "U"
    SYSTEM = "Y"

    # --- architecture-specific --------------------------------------------
    EXECUTIVE = "E"            # Morello banking of system registers
    BRANCH_SEALED_PAIR = "B"   # Morello BranchSealedPair
    COMPARTMENT_ID = "C"       # Morello CompartmentID
    MUTABLE_LOAD = "M"         # Morello MutableLoad
    USER0 = "0"
    USER1 = "1"
    USER2 = "2"
    USER3 = "3"
    RECURSIVE_MUTABLE_LOAD = "m"  # CHERIoT-style deep immutability

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    # Members are singletons; identity hashing keeps frozenset
    # membership checks (every access check) at C speed.
    __hash__ = object.__hash__


BASE_PERMISSIONS: frozenset[Permission] = frozenset({
    Permission.GLOBAL,
    Permission.LOAD,
    Permission.STORE,
    Permission.EXECUTE,
    Permission.LOAD_CAP,
    Permission.STORE_CAP,
    Permission.STORE_LOCAL_CAP,
    Permission.SEAL,
    Permission.UNSEAL,
    Permission.SYSTEM,
})
"""Portable base set present on every CHERI architecture (S3.10)."""


@dataclass(frozen=True)
class PermissionSet:
    """An immutable set of permissions supporting monotonic narrowing.

    The CHERI design guarantee (S2.1) is that normal code execution can
    *shrink* capabilities but never grow them; accordingly the public API
    offers intersection and removal but no union with new permissions --
    adding permissions is only possible by constructing a fresh set, which
    the memory model does only when *creating* capabilities for new
    allocations.
    """

    perms: frozenset[Permission]

    @classmethod
    def of(cls, *perms: Permission) -> "PermissionSet":
        return cls(frozenset(perms))

    @classmethod
    def from_iterable(cls, perms: Iterable[Permission]) -> "PermissionSet":
        return cls(frozenset(perms))

    @classmethod
    def empty(cls) -> "PermissionSet":
        return cls(frozenset())

    def __contains__(self, perm: Permission) -> bool:
        return perm in self.perms

    def __iter__(self) -> Iterator[Permission]:
        return iter(sorted(self.perms, key=lambda p: p.name))

    def __len__(self) -> int:
        return len(self.perms)

    def has(self, *perms: Permission) -> bool:
        """True if every one of ``perms`` is granted."""
        return self.perms.issuperset(perms)

    def without(self, *perms: Permission) -> "PermissionSet":
        """Monotonically remove permissions (used by intrinsics, S4.5)."""
        return PermissionSet(self.perms - frozenset(perms))

    def intersect(self, other: "PermissionSet") -> "PermissionSet":
        """Monotonic narrowing against a permission mask."""
        return PermissionSet(self.perms & other.perms)

    def is_subset_of(self, other: "PermissionSet") -> bool:
        return self.perms <= other.perms

    def describe(self) -> str:
        """Short string in the Appendix-A style, e.g. ``rwRW``.

        The appendix prints load/store/load-cap/store-cap as ``rwRW``; we
        print those four first and any further permissions after.
        """
        order = [Permission.LOAD, Permission.STORE, Permission.LOAD_CAP,
                 Permission.STORE_CAP, Permission.EXECUTE]
        head = "".join(str(p) for p in order if p in self.perms)
        rest = "".join(str(p) for p in self
                       if p not in order)
        return head + rest
