import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclab.ofdm import (
    QAM_ORDERS,
    RsMode,
    bits_per_symbol,
    build_grid,
    ofdm_demodulate,
    ofdm_modulate,
    payload,
    payload_bit_count,
    qam_decide,
    qam_map,
    rs_subcarriers,
)

from qam_reference import pack, unpack


def per_axis_decide(symbols, order):
    """The per-axis hard decision: each axis's rounded level index, Gray-coded, packed into a ``uint8``."""
    s = np.asarray(symbols, dtype=np.complex128).ravel()
    k = bits_per_symbol(order)
    m = int(np.sqrt(order))
    scale = np.sqrt(3.0 / (2.0 * (order - 1)))

    def axis_bits(vals):
        idx = np.clip(np.round((vals / scale + (m - 1)) / 2.0).astype(np.int64), 0, m - 1)
        gray = idx ^ (idx >> 1)
        return (gray[:, None] >> np.arange(k // 2 - 1, -1, -1)) & 1

    bits = np.empty((s.size, k), dtype=np.int64)
    bits[:, 0::2] = axis_bits(s.real)
    bits[:, 1::2] = axis_bits(s.imag)
    return pack(bits, k)


def bitwise_map(bits, order):
    """QAM symbols from bits, axis by axis: each axis's Gray value decoded to its level."""
    k = bits_per_symbol(order)
    m = int(np.sqrt(order))
    scale = np.sqrt(3.0 / (2.0 * (order - 1)))
    groups = np.asarray(bits, dtype=np.int64).reshape(-1, k)

    def axis_levels(axis_bits):
        idx = axis_bits @ (1 << np.arange(k // 2 - 1, -1, -1))  # the Gray value
        shift = idx >> 1
        while np.any(shift):  # Gray to binary: XOR of every right shift
            idx, shift = idx ^ shift, shift >> 1
        return (2 * idx - (m - 1)).astype(np.float64)

    return scale * (axis_levels(groups[:, 0::2]) + 1j * axis_levels(groups[:, 1::2]))


def make_grid(n_sc=64, n_tx=1, n_sym=4, spacing=4, mode=RsMode.LEARNING, order=16, seed=0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, payload_bit_count(n_sc, n_sym, n_tx, order))
    grid = build_grid(n_sc, n_tx, spacing, mode, pack(bits, bits_per_symbol(order)), rng, order=order)
    return grid, bits


class TestQam:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_roundtrip_exhaustive(self, order):
        decisions = qam_decide(qam_map(np.arange(order), order), order)
        assert decisions.dtype == np.uint8
        np.testing.assert_array_equal(decisions, np.arange(order))

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_map_is_the_bitwise_gray_mapping(self, order):
        # the table lookup gives the bits of mapping each symbol's bits axis by axis
        k = bits_per_symbol(order)
        bits = np.random.default_rng(order).integers(0, 2, 3000 * k)
        assert qam_map(pack(bits, k), order).tobytes() == bitwise_map(bits, order).tobytes()
        patterns = pack(bits, k).reshape(30, 100)
        assert qam_map(patterns, order).shape == (30, 100)

    @settings(max_examples=60, deadline=None)
    @given(order=st.sampled_from(QAM_ORDERS), n=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
    def test_popcount_counts_bit_errors(self, order, n, seed):
        # the popcount of decisions XOR the packed bits is the count of
        # differing bits, and a noiseless decision packs the bits it was sent
        k = bits_per_symbol(order)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, n * k)
        decisions = rng.integers(0, order, n).astype(np.uint8)
        sent = pack(bits, k)
        assert sent.dtype == np.uint8 and sent.shape == (n,)
        assert int(np.bitwise_count(decisions ^ sent).sum()) == np.count_nonzero(
            unpack(decisions, k) != bits)
        np.testing.assert_array_equal(qam_decide(qam_map(sent, order), order), sent)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_energy(self, order):
        symbols = qam_map(np.arange(order), order)
        assert abs(np.mean(np.abs(symbols) ** 2) - 1.0) < 1e-12

    def test_nearest_neighbor_decision(self):
        corner = (-3 - 3j) / np.sqrt(10)
        decision = qam_decide(np.array([corner]), 16)
        noisy = qam_decide(np.array([corner + 0.01 * (1 + 1j)]), 16)
        np.testing.assert_array_equal(noisy, decision)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_table_matches_per_axis_decision(self, order):
        m = int(np.sqrt(order))
        scale = np.sqrt(3.0 / (2.0 * (order - 1)))
        # the midpoints between levels (and those one ulp either side), the
        # outermost levels' far side, and signed zeros
        edges = scale * np.arange(-(m - 2), m - 1, 2.0)
        axis = np.concatenate([
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            scale * np.array([-(m - 1), m - 1, -1e3, 1e3]), [0.0, -0.0, 1e300, -1e300],
        ])
        rng = np.random.default_rng(order)
        noisy = 2.0 * (rng.standard_normal(5000) + 1j * rng.standard_normal(5000))
        symbols = np.concatenate([(axis[:, None] + 1j * axis[None, :]).ravel(), noisy])
        with np.errstate(invalid="ignore"):  # +-1e300 overflow the index cast in both
            got, want = qam_decide(symbols, order), per_axis_decide(symbols, order)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_pattern_out_of_range(self):
        for patterns in ([0, 16], [-1], np.zeros(2)):
            with pytest.raises(ValueError, match="patterns must be integers"):
                qam_map(patterns, 16)

    def test_qpsk_example(self):
        sym = qam_map([0], 4)
        np.testing.assert_allclose(sym, [(-1 - 1j) / np.sqrt(2)])

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            qam_map([0, 1], 8)


class TestGrid:
    def test_single_antenna_comb(self):
        ks = rs_subcarriers(16, 1, 4, RsMode.LEARNING, 0)
        np.testing.assert_array_equal(ks, [0, 4, 8, 12])

    @pytest.mark.parametrize("mode", list(RsMode))
    @pytest.mark.parametrize("spacing", [0, -4, 3])
    def test_spacing_must_divide_n_sc(self, mode, spacing):
        with pytest.raises(ValueError, match="positive divisor"):
            rs_subcarriers(16, 1, spacing, mode, 0)

    def test_conventional_combs_disjoint(self):
        grid, _ = make_grid(n_sc=64, n_tx=2, mode=RsMode.CONVENTIONAL)
        rs0, rs1 = (np.flatnonzero(grid[:, 0, a]) for a in range(2))
        np.testing.assert_array_equal(rs0, rs_subcarriers(64, 2, 4, RsMode.CONVENTIONAL, 0))
        np.testing.assert_array_equal(rs1, rs_subcarriers(64, 2, 4, RsMode.CONVENTIONAL, 1))
        # the other antenna is silent on each comb
        assert len(set(rs0) & set(rs1)) == 0

    def test_learning_combs_shared(self):
        grid, _ = make_grid(n_sc=64, n_tx=4, mode=RsMode.LEARNING)
        for a in range(4):
            np.testing.assert_array_equal(np.flatnonzero(grid[:, 0, a]),
                                          rs_subcarriers(64, 4, 4, RsMode.LEARNING, a))

    def test_partition_exhaustive_and_disjoint(self):
        # symbol 0 is the RS combs and exact zeros; every later RE holds a
        # QAM symbol, which is never 0
        grid, _ = make_grid(n_sc=32, n_tx=2, mode=RsMode.CONVENTIONAL)
        for a in range(2):
            rs = rs_subcarriers(32, 2, 4, RsMode.CONVENTIONAL, a)
            np.testing.assert_array_equal(np.flatnonzero(grid[:, 0, a]), rs)
        assert np.all(grid[:, 1:, :] != 0)

    def test_rs_unit_energy(self):
        grid, _ = make_grid()
        rs = grid[rs_subcarriers(64, 1, 4, RsMode.LEARNING, 0), 0, 0]
        np.testing.assert_allclose(np.abs(rs), 1.0)

    def test_payload_roundtrip(self):
        grid, bits = make_grid(order=16)
        np.testing.assert_array_equal(qam_decide(payload(grid), 16), pack(bits, 4))

    def test_spacing_must_divide(self):
        with pytest.raises(ValueError, match="positive divisor"):
            build_grid(64, 1, 5, RsMode.LEARNING, np.zeros(3 * 64, dtype=int), np.random.default_rng(0))

    @pytest.mark.parametrize("n_tx", [1, 2])
    def test_symbol_count_is_the_payload_count(self, n_tx):
        # n_sym is one RS symbol plus as many payload symbols as the patterns fill
        for n_data in (1, 3):
            patterns = np.zeros(n_data * 64 * n_tx, dtype=int)
            grid = build_grid(64, n_tx, 4, RsMode.LEARNING, patterns, np.random.default_rng(0))
            assert isinstance(grid, np.ndarray) and grid.shape == (64, n_data + 1, n_tx)

    def test_payload_count_checked(self):
        # an empty payload, or one a pattern short of whole symbols, fixes no n_sym
        for n_tx in (1, 2):
            for count in (0, 10, 3 * 64 * n_tx - 1):
                with pytest.raises(ValueError, match=f"whole symbols of {64 * n_tx} patterns, got"):
                    build_grid(64, n_tx, 4, RsMode.LEARNING, np.zeros(count, dtype=int),
                               np.random.default_rng(0))

    def test_batched_demap_is_per_element_demap(self):
        grid, bits = make_grid(n_sc=32, n_tx=2, mode=RsMode.CONVENTIONAL, spacing=4)
        rng = np.random.default_rng(5)
        batch = grid + 0.3 * rng.standard_normal((3,) + grid.shape)
        got = qam_decide(payload(batch), 16)
        assert got.shape == (3, bits.size // 4)
        for row, element in zip(got, batch):
            np.testing.assert_array_equal(row, qam_decide(payload(element), 16))
            np.testing.assert_array_equal(row, per_axis_decide(payload(element), 16))

    def test_payload_is_build_grid_fill_order(self):
        grid, bits = make_grid(n_sc=16, n_sym=3, n_tx=2, mode=RsMode.CONVENTIONAL, spacing=4)
        got = payload(grid)
        assert got.tobytes() == qam_map(pack(bits, 4), 16).tobytes()
        # antenna-major, then symbol, then subcarrier, over every RE after the RS symbol
        want = [grid[k, s, a] for a in range(2) for s in range(1, 3) for k in range(16)]
        np.testing.assert_array_equal(got, want)


class TestModulation:
    def test_roundtrip_exact(self):
        grid, _ = make_grid(n_sc=64, n_tx=2, mode=RsMode.CONVENTIONAL)
        samples = ofdm_modulate(grid, 8)
        est = ofdm_demodulate(samples, 64, 8)
        np.testing.assert_allclose(est, grid, atol=1e-12)

    def test_all_zero(self):
        est = ofdm_demodulate(np.zeros((1, 3 * 36)), 32, 4)
        np.testing.assert_array_equal(est, np.zeros((32, 3, 1)))

    def test_dc_tone_constant(self):
        grid = np.zeros((16, 1, 1), dtype=complex)
        grid[0, 0, 0] = 1.0
        samples = ofdm_modulate(grid, 0)
        np.testing.assert_allclose(samples, np.full((1, 16), 1 / 4), atol=1e-12)

    def test_cp_gives_per_subcarrier_multiplication(self):
        rng = np.random.default_rng(3)
        grid, _ = make_grid(n_sc=64, seed=4)
        h = rng.standard_normal(9) + 1j * rng.standard_normal(9)  # L-1 = 8 <= n_cp = 12
        tx = ofdm_modulate(grid, 12)
        rx = np.convolve(tx[0], h)[: tx.shape[1]]
        est = ofdm_demodulate(rx[None, :], 64, 12)
        h_freq = np.fft.fft(h, 64)
        np.testing.assert_allclose(est[:, :, 0], h_freq[:, None] * grid[:, :, 0], atol=1e-9)

    def test_batched_demodulation_is_per_element(self):
        grid, _ = make_grid(n_sc=64, n_tx=2, mode=RsMode.CONVENTIONAL)
        tx = ofdm_modulate(grid, 8)
        rng = np.random.default_rng(6)
        batch = tx + rng.standard_normal((3,) + tx.shape)
        got = ofdm_demodulate(batch, 64, 8)
        assert got.shape == (3,) + grid.shape
        for row, element in zip(got, batch):
            assert row.tobytes() == ofdm_demodulate(element, 64, 8).tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_symbol_count_is_the_sample_count(self, k):
        # k whole symbols of 36 samples demodulate to k symbols; one sample more is a partial symbol
        assert ofdm_demodulate(np.zeros((2, k * 36)), 32, 4).shape == (32, k, 2)
        with pytest.raises(ValueError, match="whole symbols of 36 samples per antenna, got"):
            ofdm_demodulate(np.zeros((2, k * 36 + 1)), 32, 4)

    def test_sample_count_checked(self):
        with pytest.raises(ValueError):
            ofdm_demodulate(np.zeros((1, 100)), 32, 4)

    @pytest.mark.parametrize("n_cp", [-1, 32])
    def test_cyclic_prefix_checked(self, n_cp):
        # a negative prefix would slice silently, and one of n_sc samples or more is no prefix
        want = f"need 0 <= n_cp < n_sc, got n_sc = 32, n_cp = {n_cp}"
        with pytest.raises(ValueError, match=want):
            ofdm_modulate(np.zeros((32, 1, 1), dtype=complex), n_cp)
        with pytest.raises(ValueError, match=want):
            ofdm_demodulate(np.zeros((1, 3 * 64)), 32, n_cp)

    def test_rs_waveform_matches_slot_prefix(self):
        grid, _ = make_grid(n_sc=64, n_tx=2, mode=RsMode.LEARNING)
        # the RS symbol modulated alone is the slot's first n_sc + n_cp samples, to the bit
        tx = ofdm_modulate(grid, 8)
        alone = ofdm_modulate(grid[:, :1], 8)
        assert alone.tobytes() == tx[:, : 64 + 8].tobytes()
        # both C-ordered, as the readout fit takes its target: the detector copies neither
        assert alone.flags.c_contiguous and tx.flags.c_contiguous

    def test_average_data_power(self):
        grid, _ = make_grid(n_sc=256, n_sym=8, seed=9)
        data = payload(grid)
        assert abs(np.mean(np.abs(data) ** 2) - 1.0) < 0.05
