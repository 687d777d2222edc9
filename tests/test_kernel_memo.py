"""The per-process kernel memo (:func:`repro.kernels.kernel.kernel_binary`).

Cached ≡ fresh: a memoized :class:`Binary` carries the image, static
instruction count, byte size and page count of a fresh
``kernel.program(target)``, on the miss and on the hit.  The memo stays
compact (no ``Program`` listings), and a DSE sweep assembles each
(ISA, kernel) once.
"""

import dataclasses
import gc
import random
import tracemalloc
from collections import Counter

import pytest

from repro.asm import Assembler, AsmError
from repro.dse.designs import ALL_DESIGNS
from repro.dse.evaluate import evaluate_all
from repro.dse.features import FEATURE_LABELS
from repro.dse.space import DesignSpace
from repro.engine import Engine
from repro.isa import available_isas
from repro.isa.errors import IsaError
from repro.kernels import kernel as kernel_module
from repro.kernels import xorshift
from repro.kernels.kernel import Binary, Target
from repro.kernels.suite import SUITE

#: The ISAs of Figures 9 and 10: base, one per extension, the revised set.
REPORT_ISAS = (
    ["extacc[base]"]
    + [f"extacc[{feature}]" for feature, _ in FEATURE_LABELS]
    + ["extacc"]
)


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for the test; the process's own comes back after."""
    binaries = {}
    monkeypatch.setattr(kernel_module, "_BINARIES", binaries)
    return binaries


@pytest.fixture
def assembled(monkeypatch):
    """Every ``Assembler.assemble`` call, as (ISA name, source name)."""
    calls = []
    original = Assembler.assemble

    def counted(self, source, source_name="<source>"):
        calls.append((self.isa.name, source_name))
        return original(self, source, source_name)

    monkeypatch.setattr(Assembler, "assemble", counted)
    return calls


def _outcome(fn):
    """``fn()``, or the type and message of the assembly error it raised."""
    try:
        return fn()
    except (AsmError, IsaError) as error:
        return type(error), str(error)


def _assert_cached_is_fresh(target, kernel, assembled):
    miss = _outcome(lambda: kernel.binary(target))
    after_miss = len(assembled)
    hit = _outcome(lambda: kernel.binary(target))
    fresh = _outcome(lambda: kernel.program(target))
    if isinstance(fresh, tuple):
        # The kernel does not assemble for this ISA: same error.
        assert miss == hit == fresh
        return
    assert hit is miss
    # The hit assembled nothing, ``program()`` once.
    assert len(assembled) == after_miss + 1
    assert type(miss.image) is bytes
    assert (miss.isa, miss.image, miss.static_instructions,
            miss.size_bytes, miss.pages, miss.size_bits) == (
        fresh.isa, fresh.image(), fresh.static_instructions,
        fresh.size_bytes, len(fresh.pages), fresh.size_bits)


class TestCachedIsFresh:
    @pytest.mark.parametrize("isa_name", available_isas())
    def test_suite_on_available_isas(self, memo, assembled, isa_name):
        target = Target.named(isa_name)
        for kernel in SUITE:
            _assert_cached_is_fresh(target, kernel, assembled)

    def test_dse_space_sample_both_sides_of_xorshift_fit(self, memo,
                                                         assembled):
        names = sorted({genome.isa_name
                        for genome in DesignSpace().enumerate()})
        random.Random(2022).shuffle(names)
        sides = {True: [], False: []}
        for name in names:
            target = Target.named(name)
            for kernel in SUITE:
                _assert_cached_is_fresh(target, kernel, assembled)
            sides[xorshift.KERNEL.binary(target).pages == 1].append(name)
            if min(len(side) for side in sides.values()) >= 3:
                break
        assert min(len(side) for side in sides.values()) >= 3, sides

    def test_binary_is_a_frozen_summary(self, memo):
        assert [field.name for field in dataclasses.fields(Binary)] == [
            "isa", "image", "static_instructions", "size_bytes", "pages"]
        binary = SUITE[0].binary(Target.named("flexicore4"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            binary.image = b""


class TestXorShiftProbe:
    """The one-page probe goes through the memo: decided once per ISA."""

    def test_fitting_probe_is_the_kernel_binary(self, memo, assembled):
        target = Target.named("extacc")
        for _ in range(3):
            assert xorshift.KERNEL.binary(target).pages == 1
        assert assembled == [("extacc[full]", "xorshift-probe")]
        assert len(memo) == 1

    def test_failing_probe_is_remembered(self, memo, assembled):
        target = Target.named("extacc[base]")
        for _ in range(3):
            assert xorshift.KERNEL.binary(target).pages == 3
        assert assembled == [("extacc[base]", "xorshift-probe"),
                             ("extacc[base]", "XorShift8")]
        failures = [entry for entry in memo.values()
                    if not isinstance(entry, Binary)]
        assert len(failures) == 1 and "overflows" in failures[0]


class TestMemoBudget:
    def test_report_isas_retain_little(self, memo):
        # A memo of whole Programs retains about 2.7 MB here.
        targets = [Target.named(name) for name in REPORT_ISAS]

        def fill():
            for target in targets:
                for kernel in SUITE:
                    kernel.binary(target)

        fill()  # lazy imports, ISA tables, parser caches
        memo.clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fill()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(memo) >= len(targets) * len(SUITE)
        assert retained < 256 * 1024, retained

    def test_dse_sweep_assembles_each_kernel_once(self, memo, assembled):
        evaluate_all(ALL_DESIGNS, engine=Engine(jobs=1))
        isas = {design.isa_name for design in ALL_DESIGNS}
        per_source = Counter(assembled)
        assert max(per_source.values()) == 1, per_source
        # Seven kernels per ISA, plus at most one failing XorShift8 probe.
        assert len(assembled) <= len(isas) * (len(SUITE) + 1)
        assembled.clear()
        evaluate_all(ALL_DESIGNS, engine=Engine(jobs=1), bus_bits=8)
        assert assembled == []
