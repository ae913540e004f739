"""The tests' traced-memory helpers measure what they say."""

import types

from memory_guard import phase_peaks

MIB = 2**20
SLACK = 64 * 1024  # the helpers' and the interpreter's own small allocations


def test_phase_peaks_go_to_the_innermost_phase():
    mod = types.ModuleType("pkg.probe")

    def inner():
        return len(bytearray(MIB))

    def outer():
        held = bytearray(2 * MIB)
        return mod.inner() + len(held)

    def gen():
        buf = bytearray(3 * MIB)
        yield len(buf)

    mod.inner, mod.outer, mod.gen = inner, outer, gen

    def run():
        mod.outer()
        return list(mod.gen())

    peaks = phase_peaks([(mod, "inner"), (mod, "outer"), (mod, "gen")], run)
    assert set(peaks) == {"probe.inner", "probe.outer", "probe.gen", "total"}
    # inner runs while outer holds 2 MiB; outer's own peak is that 2 MiB alone
    assert 3 * MIB <= peaks["probe.inner"] <= 3 * MIB + SLACK
    assert 2 * MIB <= peaks["probe.outer"] <= 2 * MIB + SLACK
    assert 3 * MIB <= peaks["probe.gen"] <= 3 * MIB + SLACK
    top = max(peaks["probe.inner"], peaks["probe.gen"])
    assert top <= peaks["total"] <= top + SLACK
