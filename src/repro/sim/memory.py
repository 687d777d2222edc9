"""Program memory for FlexiCore systems.

FlexiCores store programs off-chip (Section 3.5): instructions arrive over
a dedicated instruction bus, and the 7-bit PC addresses one 128-byte page.
:class:`ProgramMemory` models the external memory chip; when paired with
an :class:`~repro.sim.mmu.Mmu` it serves multi-page programs.
"""

from repro.asm.assembler import MAX_PAGES, PAGE_SIZE

#: What a fetch from a page the image never wrote returns: zero-filled
#: ROM, long enough for the longest instruction.
_WINDOW_BYTES = 4
_ZERO_WINDOW = bytes(_WINDOW_BYTES)


class ProgramMemory:
    """External program memory, optionally behind an MMU page register."""

    def __init__(self, image, mmu=None):
        """``image`` is a flat bytes object; page p occupies
        ``image[p*128:(p+1)*128]``."""
        if len(image) > MAX_PAGES * PAGE_SIZE:
            raise ValueError(
                f"image of {len(image)} bytes exceeds the "
                f"{MAX_PAGES}-page address space"
            )
        self._image = bytes(image)
        self.mmu = mmu
        self._windows = None

    def _build_windows(self):
        """Precompute every per-page wrap-around fetch window.

        One slice per page offset, built lazily on the first fetch, so
        :meth:`fetch_window` never assembles a window byte-by-byte on
        the per-instruction path -- and the predecoded dispatch, which
        never fetches, pays nothing at all.
        """
        windows = []
        for page in range(self.pages):
            blob = self._image[page * PAGE_SIZE:(page + 1) * PAGE_SIZE]
            blob = blob + bytes(PAGE_SIZE - len(blob))
            wrapped = blob + blob[:_WINDOW_BYTES - 1]
            windows.append([
                wrapped[offset:offset + _WINDOW_BYTES]
                for offset in range(PAGE_SIZE)
            ])
        return windows

    @property
    def image(self):
        return self._image

    @property
    def pages(self):
        return (len(self._image) + PAGE_SIZE - 1) // PAGE_SIZE

    def current_page(self):
        return self.mmu.page if self.mmu is not None else 0

    def fetch_window(self, pc):
        """Return (flat_base_address, bytes) for one instruction fetch.

        Called once per instruction; advances the MMU's page-switch delay
        counter.  The returned window is long enough for the longest
        instruction and wraps within the page, like the hardware PC does.
        Windows are precomputed per page, so this is two lookups; a page
        the image never wrote reads as zero-filled ROM.
        """
        page = self.mmu.on_fetch() if self.mmu is not None else 0
        offset = pc & (PAGE_SIZE - 1)
        windows = self._windows
        if windows is None:
            windows = self._windows = self._build_windows()
        window = windows[page][offset] if page < len(windows) \
            else _ZERO_WINDOW
        return page * PAGE_SIZE + offset, window
