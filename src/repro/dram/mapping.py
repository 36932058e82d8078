"""Physical-address to DRAM-coordinate mapping.

The default scheme interleaves consecutive cache lines across channels,
then sub-channels, then bank groups/banks (a "RoRaBaChCo"-style mapping with
line-granularity channel interleaving), which maximizes channel- and
bank-level parallelism for the streaming and random access patterns the
paper evaluates. An XOR fold of row bits into the bank index reduces
pathological bank conflicts for power-of-two strides.
"""

from __future__ import annotations

from typing import NamedTuple

LINE_BYTES = 64
LINE_SHIFT = 6


class DramCoord(NamedTuple):
    """Decoded DRAM coordinates for one line address.

    A named tuple: :meth:`AddressMapping.decode` builds one per request.
    """

    channel: int
    subchannel: int
    rank: int
    bank: int        # flat bank index (group * banks_per_group + bank)
    row: int
    col: int = 0     # line index within the row (column / lines_per_row)


class AddressMapping:
    """Maps line-aligned physical addresses onto a set of DDR channels.

    Parameters
    ----------
    channels:
        Number of DDR channels visible at this mapping level.
    subchannels:
        Sub-channels per channel (DDR5: 2).
    ranks, banks:
        Organization per sub-channel; ``banks`` is the flat per-rank count.
    rows:
        Rows per bank (wraps beyond).
    xor_fold:
        If true, XOR the low row bits into the bank index.
    """

    def __init__(
        self,
        channels: int,
        subchannels: int = 2,
        ranks: int = 1,
        banks: int = 32,
        rows: int = 65536,
        xor_fold: bool = True,
    ) -> None:
        if channels < 1 or subchannels < 1 or ranks < 1 or banks < 1:
            raise ValueError("all organization counts must be >= 1")
        self.channels = channels
        self.subchannels = subchannels
        self.ranks = ranks
        self.banks = banks
        self.rows = rows
        self.xor_fold = xor_fold
        # Lines per row: a DDR5 row is 8 KB across the sub-channel -> 128 lines.
        self.lines_per_row = 128

    def decode(self, addr: int) -> DramCoord:
        """Decode byte address ``addr`` into DRAM coordinates."""
        line = addr >> LINE_SHIFT
        channel = line % self.channels
        line //= self.channels
        sub = line % self.subchannels
        line //= self.subchannels
        col = line % self.lines_per_row
        line //= self.lines_per_row
        bank = line % self.banks
        line //= self.banks
        rank = line % self.ranks
        line //= self.ranks
        row = line % self.rows
        if self.xor_fold:
            bank = (bank ^ (row & (self.banks - 1))) % self.banks
        return DramCoord(channel, sub, rank, bank, row, col)

    def encode(self, coord: DramCoord) -> int:
        """Inverse of :meth:`decode`: coordinates back to a byte address.

        Exact for any address below :meth:`capacity_bytes` (beyond that the
        row index wraps and decode is no longer injective). With
        ``xor_fold`` the fold is only invertible for a power-of-two bank
        count, so encode rejects other organizations.
        """
        bank = coord.bank
        if self.xor_fold:
            if self.banks & (self.banks - 1):
                raise ValueError(
                    "encode() with xor_fold needs a power-of-two bank count")
            bank = coord.bank ^ (coord.row & (self.banks - 1))
        line = coord.row
        line = line * self.ranks + coord.rank
        line = line * self.banks + bank
        line = line * self.lines_per_row + coord.col
        line = line * self.subchannels + coord.subchannel
        line = line * self.channels + coord.channel
        return line << LINE_SHIFT

    def capacity_bytes(self) -> int:
        """Bytes addressable before the row index wraps."""
        return (self.channels * self.subchannels * self.lines_per_row
                * self.banks * self.ranks * self.rows) << LINE_SHIFT

    def channel_of(self, addr: int) -> int:
        """Fast path: which channel serves this address."""
        return (addr >> LINE_SHIFT) % self.channels
