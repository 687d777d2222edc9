"""Small bit-manipulation helpers shared by encoders, decoders and ALUs.

All FlexiCore datapaths are narrow (4 or 8 bits), so these helpers work on
plain Python integers and masks rather than bit vectors.
"""


def mask(width):
    """Return an all-ones mask of ``width`` bits."""
    return (1 << width) - 1


def truncate(value, width):
    """Truncate ``value`` to ``width`` bits (two's-complement wraparound)."""
    return value & mask(width)


def sign_extend(value, width):
    """Interpret the low ``width`` bits of ``value`` as two's complement."""
    value = truncate(value, width)
    sign_bit = 1 << (width - 1)
    return (value ^ sign_bit) - sign_bit


def msb(value, width):
    """Return the most-significant bit of a ``width``-bit value."""
    return (value >> (width - 1)) & 1


def bit(value, index):
    """Return bit ``index`` of ``value``."""
    return (value >> index) & 1


def get_field(word, hi, lo):
    """Extract bits ``hi:lo`` (inclusive) of ``word``."""
    return (word >> lo) & mask(hi - lo + 1)


def set_field(word, hi, lo, value):
    """Return ``word`` with bits ``hi:lo`` replaced by ``value``."""
    field_mask = mask(hi - lo + 1)
    if value & ~field_mask:
        raise ValueError(
            f"value {value} does not fit in bits {hi}:{lo}"
        )
    return (word & ~(field_mask << lo)) | (value << lo)


def popcount(value):
    """Number of set bits in ``value``."""
    return bin(value).count("1")


def parity(value):
    """Even-parity bit of ``value`` (1 if an odd number of bits are set)."""
    return popcount(value) & 1


def reverse_bits(value, width):
    """Reverse the bit order of a ``width``-bit value."""
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def add_with_carry(a, b, carry_in, width):
    """Add two ``width``-bit values plus a carry, returning (sum, carry_out).

    This mirrors the ripple-carry adder at the heart of the FlexiCore ALU
    (Figure 3b): the carry-out is the bit above the top of the datapath.
    """
    total = truncate(a, width) + truncate(b, width) + (carry_in & 1)
    return truncate(total, width), (total >> width) & 1


def sub_with_borrow(a, b, borrow_in, width):
    """Subtract with borrow, returning (difference, borrow_out).

    Implemented, as in hardware, as ``a + ~b + ~borrow_in`` on the same
    ripple-carry adder; ``borrow_out`` is 1 when the subtraction underflows.
    """
    value, carry_out = add_with_carry(
        a, truncate(~b, width), 1 - (borrow_in & 1), width
    )
    return value, 1 - carry_out
