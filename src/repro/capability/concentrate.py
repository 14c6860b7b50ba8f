"""CHERI Concentrate bounds compression, parametric in field widths.

S2.1 of the paper: "A sophisticated compression scheme allows a
capability to include 64-bit lower and upper bounds ... Small regions can
be described precisely, with an arbitrary size in bytes, while for larger
regions, only certain combinations of bounds and size are representable."

This module implements the published CHERI Concentrate algorithm
(Woodruff et al., IEEE ToC 2019 -- reference [47] of the paper), which is
the scheme behind the Morello and CHERI-RISC-V capability formats.  It is
parametric in the address width and mantissa width so that one code path
serves both the 128+1-bit Morello-style format (64-bit addresses) and a
64+1-bit CHERIoT-style format (32-bit addresses); see
:mod:`repro.capability.morello` and :mod:`repro.capability.cheriot`.

The three operations the CHERI C semantics depends on are:

* :meth:`CompressedBounds.encode` -- the ``SetBounds`` operation: given a
  requested ``[base, base+length)`` region, produce the (possibly
  rounded) encodable bounds and report whether they are exact;
* :meth:`CompressedBounds.decode` -- reconstruct ``(base, top)`` from the
  stored fields and the current address;
* :meth:`CompressedBounds.representable_limits` -- the range of addresses
  the capability's address field may take without changing the decoded
  bounds (S3.2: "they have been designed to allow at least some ranges
  below and above the object").  Going outside this range during pointer
  arithmetic clears the tag in hardware and sets the bounds-unspecified
  ghost bit in the abstract machine (S3.3 option (c)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class CompressionParams:
    """Field widths of a CHERI Concentrate format.

    Attributes:
        name: human-readable format name.
        address_width: width of the address field (AW), 64 or 32.
        mantissa_width: width of the bottom-bound field B (MW).  The top
            field T stores MW-2 bits; its top two bits are inferred.
        exponent_low_bits: number of exponent bits stored in the low bits
            of each of B and T when the internal-exponent flag is set
            (3 for the 64-bit formats, giving a 6-bit exponent).
    """

    name: str
    address_width: int
    mantissa_width: int
    exponent_low_bits: int = 3

    def __post_init__(self) -> None:
        if self.mantissa_width < self.exponent_low_bits + 3:
            raise ValueError("mantissa too narrow for exponent encoding")
        if self.address_width < self.mantissa_width:
            raise ValueError("address width must exceed mantissa width")

    # Derived widths are cached per instance: params are frozen and the
    # memory model consults these on every capability decode/encode.

    @cached_property
    def top_width(self) -> int:
        """Stored width of the T field (two top bits are inferred)."""
        return self.mantissa_width - 2

    @cached_property
    def exponent_width(self) -> int:
        return 2 * self.exponent_low_bits

    @cached_property
    def reset_exponent(self) -> int:
        """The exponent of the maximal (whole-address-space) capability."""
        return self.address_width - self.mantissa_width + 2

    @cached_property
    def address_mask(self) -> int:
        return (1 << self.address_width) - 1

    @cached_property
    def max_exact_length(self) -> int:
        """Largest length representable byte-exactly at any alignment.

        With the internal exponent clear (E = 0) the full mantissas are
        available, covering lengths up to ``2**(MW-2) - 1`` bytes.
        """
        return (1 << (self.mantissa_width - 2)) - 1


@dataclass(frozen=True)
class DecodedBounds:
    """The result of decoding a compressed capability's bounds."""

    base: int
    top: int        # may equal 2**address_width for the maximal capability
    exponent: int

    @property
    def length(self) -> int:
        return self.top - self.base

    def contains(self, addr: int, size: int = 1) -> bool:
        """Footprint check: is ``[addr, addr+size)`` within the bounds?"""
        return self.base <= addr and addr + size <= self.top


@dataclass(frozen=True)
class CompressedBounds:
    """The stored B/T/IE fields of a CHERI Concentrate capability.

    Instances are immutable; bounds are (re)derived from the current
    address via :meth:`decode`, exactly as hardware does.
    """

    params: CompressionParams
    b_field: int
    t_field: int
    internal_exponent: bool

    def __post_init__(self) -> None:
        p = self.params
        if not 0 <= self.b_field < (1 << p.mantissa_width):
            raise ValueError(f"B field out of range: {self.b_field:#x}")
        if not 0 <= self.t_field < (1 << p.top_width):
            raise ValueError(f"T field out of range: {self.t_field:#x}")

    # ------------------------------------------------------------------
    # Decoding (the hardware GetBounds function)
    # ------------------------------------------------------------------

    def _fields(self) -> tuple[int, int, int]:
        """Split stored fields into (E, B, T_full), with T_full MW bits.

        The split depends only on the (frozen) stored fields, so it is
        computed once and memoised on the instance -- ``decode`` and the
        representability checks call this on every bounds check.
        """
        memo = self.__dict__.get("_fields_memo")
        if memo is not None:
            return memo
        p = self.params
        mw, tw, eb = p.mantissa_width, p.top_width, p.exponent_low_bits
        emask = (1 << eb) - 1
        if self.internal_exponent:
            exponent = ((self.t_field & emask) << eb) | (self.b_field & emask)
            exponent = min(exponent, p.reset_exponent)
            b_val = self.b_field & ~emask
            t_val = self.t_field & ~emask
            length_msb = 1
        else:
            exponent = 0
            b_val = self.b_field
            t_val = self.t_field
            length_msb = 0
        # Reconstruct the top two bits of T from B, the borrow between the
        # stored low bits, and the length MSB implied by IE.
        length_carry = 1 if t_val < (b_val & ((1 << tw) - 1)) else 0
        t_top2 = ((b_val >> tw) + length_carry + length_msb) & 0x3
        t_full = (t_top2 << tw) | t_val
        memo = (exponent, b_val, t_full)
        self.__dict__["_fields_memo"] = memo
        return memo

    def decode(self, address: int) -> DecodedBounds:
        """Reconstruct (base, top) relative to ``address``.

        Implements the correction-term scheme of CHERI Concentrate: the
        address's middle bits are compared against the representable-region
        boundary R to decide whether B and T belong to the address's own
        2^(E+MW) block, the one below, or the one above.
        """
        p = self.params
        mw = p.mantissa_width
        exponent, b_val, t_full = self._fields()
        mw_mask = (1 << mw) - 1

        a = address & p.address_mask
        a_mid = (a >> exponent) & mw_mask
        a_top = a >> (exponent + mw)
        boundary = (b_val - (1 << (mw - 2))) & mw_mask  # R

        # Correction terms (inlined -- this is the hottest arithmetic in
        # the memory model): compare each field against the
        # representable-region boundary R relative to the address.
        a_in_lower = a_mid < boundary
        if (b_val < boundary) == a_in_lower:
            c_b = 0
        else:
            c_b = 1 if b_val < boundary else -1
        t_mid = t_full & mw_mask
        if (t_mid < boundary) == a_in_lower:
            c_t = 0
        else:
            c_t = 1 if t_mid < boundary else -1

        block = exponent + mw
        base = ((a_top + c_b) << block) | (b_val << exponent)
        base &= p.address_mask
        top = ((a_top + c_t) << block) | (t_full << exponent)
        top &= (1 << (p.address_width + 1)) - 1

        # Published fixup: when base and top land more than an address
        # space apart, the MSB of top must be inverted.
        if exponent < p.reset_exponent - 1:
            top_2 = (top >> (p.address_width - 1)) & 0x3
            base_1 = (base >> (p.address_width - 1)) & 0x1
            if ((top_2 - base_1) & 0x3) > 1:
                top ^= 1 << p.address_width
        return DecodedBounds(base=base, top=top, exponent=exponent)

    # ------------------------------------------------------------------
    # Encoding (the hardware SetBounds function)
    # ------------------------------------------------------------------

    @classmethod
    def encode(cls, params: CompressionParams, base: int,
               length: int) -> tuple["CompressedBounds", bool]:
        """Encode the requested ``[base, base+length)`` region.

        Returns the compressed fields plus a flag reporting whether the
        encoding is *exact*.  When inexact, the encoded region is the
        smallest representable superset: base rounded down and top rounded
        up to the encoding granularity ``2^(E + exponent_low_bits)``.
        """
        if length < 0:
            raise ValueError("negative length")
        if base < 0 or base + length > (1 << params.address_width):
            raise ValueError("region outside the address space")
        mw, tw, eb = (params.mantissa_width, params.top_width,
                      params.exponent_low_bits)
        top = base + length

        exponent = (length >> (mw - 1)).bit_length()
        internal = exponent != 0 or bool((length >> (mw - 2)) & 1)
        if not internal:
            b_field = base & ((1 << mw) - 1)
            t_field = top & ((1 << tw) - 1)
            return cls(params, b_field, t_field, False), True

        exponent = min(exponent, params.reset_exponent)
        mantissa = mw - eb  # bits kept for each bound when IE is set
        shift = exponent + eb
        low_mask = (1 << shift) - 1
        b_ie = (base >> shift) & ((1 << mantissa) - 1)
        t_ie = (top >> shift) & ((1 << mantissa) - 1)
        lost_base = (base & low_mask) != 0
        lost_top = (top & low_mask) != 0
        if lost_top:
            t_ie = (t_ie + 1) & ((1 << mantissa) - 1)
        # If rounding pushed the encoded length past the mantissa window,
        # bump the exponent and re-derive at the coarser granularity.
        if ((t_ie - b_ie) >> (mantissa - 1)) & 1:
            exponent += 1
            exponent = min(exponent, params.reset_exponent)
            shift = exponent + eb
            low_mask = (1 << shift) - 1
            lost_base = (base & low_mask) != 0
            lost_top = (top & low_mask) != 0
            b_ie = (base >> shift) & ((1 << mantissa) - 1)
            t_ie = (top >> shift) & ((1 << mantissa) - 1)
            if lost_top:
                t_ie = (t_ie + 1) & ((1 << mantissa) - 1)

        emask = (1 << eb) - 1
        b_field = (b_ie << eb) | (exponent & emask)
        t_low = t_ie & ((1 << (tw - eb)) - 1)
        t_field = (t_low << eb) | ((exponent >> eb) & emask)
        exact = not (lost_base or lost_top)
        return cls(params, b_field, t_field, True), exact

    def pack(self) -> int:
        """The B, T and IE fields as one integer: a compact memo value
        (a shared root keeps one per allocation shape)."""
        p = self.params
        return (self.b_field | self.t_field << p.mantissa_width
                | self.internal_exponent << (p.mantissa_width + p.top_width))

    @classmethod
    def unpack(cls, params: CompressionParams,
               word: int) -> "CompressedBounds":
        """The inverse of :meth:`pack`.  The fields were range-checked
        when the packed value was built, so they go straight into the
        instance dictionary."""
        mw, tw = params.mantissa_width, params.top_width
        bounds = _new(cls)
        state = bounds.__dict__
        state["params"] = params
        state["b_field"] = word & ((1 << mw) - 1)
        state["t_field"] = (word >> mw) & ((1 << tw) - 1)
        state["internal_exponent"] = bool(word >> (mw + tw))
        return bounds

    @classmethod
    def maximal(cls, params: CompressionParams) -> "CompressedBounds":
        """The bounds of the "almighty" capability covering all memory.

        One immutable value per format; cached on the params instance
        (root and NULL capability construction both start here).
        """
        memo = params.__dict__.get("_maximal_memo")
        if memo is not None:
            return memo
        bounds, exact = cls.encode(params, 0, 1 << params.address_width)
        assert exact, "maximal capability must be exactly encodable"
        params.__dict__["_maximal_memo"] = bounds
        return bounds

    # ------------------------------------------------------------------
    # Representability
    # ------------------------------------------------------------------

    def representable_limits(self, address: int) -> tuple[int, int]:
        """The half-open address window within which bounds are stable.

        Any new address inside ``[lo, hi)`` decodes to the same bounds as
        ``address`` does; addresses outside would change the decoded
        bounds, so hardware clears the tag when capability arithmetic
        produces them (S3.2).

        The decode function is modular in the address, so the window is
        too: ``hi`` may exceed the address-space size, meaning the window
        wraps around (interpret addresses modulo ``2**address_width``).
        """
        p = self.params
        mw = p.mantissa_width
        exponent, b_val, _ = self._fields()
        if exponent + mw >= p.address_width:
            return 0, 1 << p.address_width
        boundary = (b_val - (1 << (mw - 2))) & ((1 << mw) - 1)
        scaled = address >> exponent
        window_lo = scaled - ((scaled - boundary) % (1 << mw))
        lo = (window_lo << exponent) % (1 << p.address_width)
        hi = lo + (1 << (exponent + mw))
        return lo, hi

    def is_representable(self, current_address: int,
                         new_address: int) -> bool:
        """Would moving the address to ``new_address`` preserve bounds?"""
        space = 1 << self.params.address_width
        if not 0 <= new_address < space:
            return False
        lo, hi = self.representable_limits(current_address)
        return ((new_address - lo) % space) < (hi - lo)


_new = object.__new__
