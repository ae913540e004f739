import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclab.ofdm import (
    QAM_ORDERS,
    OfdmNumerology,
    ReKind,
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
    rs_time_waveform,
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


def make_grid(n_sc=64, n_cp=8, n_tx=1, n_sym=4, spacing=4, mode=RsMode.LEARNING, order=16, seed=0):
    num = OfdmNumerology(n_sc, n_cp)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, payload_bit_count(n_sc, n_sym, n_tx, order))
    grid = build_grid(num, n_tx, n_sym, spacing, mode, bits, rng, order=order)
    return num, grid, bits


class TestQam:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_roundtrip_exhaustive(self, order):
        k = bits_per_symbol(order)
        bits = ((np.arange(order)[:, None] >> np.arange(k - 1, -1, -1)) & 1).ravel()
        decisions = qam_decide(qam_map(bits, order), order)
        assert decisions.dtype == np.uint8
        np.testing.assert_array_equal(decisions, pack(bits, k))
        np.testing.assert_array_equal(decisions, np.arange(order))

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
        np.testing.assert_array_equal(qam_decide(qam_map(bits, order), order), sent)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_energy(self, order):
        k = bits_per_symbol(order)
        bits = ((np.arange(order)[:, None] >> np.arange(k - 1, -1, -1)) & 1).ravel()
        symbols = qam_map(bits, order)
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

    def test_bit_count_mismatch(self):
        with pytest.raises(ValueError):
            qam_map([0, 1, 0], 16)

    def test_qpsk_example(self):
        sym = qam_map([0, 0], 4)
        np.testing.assert_allclose(sym, [(-1 - 1j) / np.sqrt(2)])

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            qam_map([0, 1], 8)


class TestGrid:
    def test_single_antenna_comb(self):
        ks = rs_subcarriers(16, 1, 4, RsMode.LEARNING, 0)
        np.testing.assert_array_equal(ks, [0, 4, 8, 12])

    def test_conventional_combs_disjoint(self):
        num, grid, _ = make_grid(n_sc=64, n_tx=2, mode=RsMode.CONVENTIONAL)
        rs0 = np.flatnonzero(grid.kind[:, 0, 0] == ReKind.RS)
        rs1 = np.flatnonzero(grid.kind[:, 0, 1] == ReKind.RS)
        assert len(set(rs0) & set(rs1)) == 0
        # the other antenna is silent on each comb
        assert np.all(grid.kind[rs0, 0, 1] == ReKind.EMPTY_RS)
        assert np.all(grid.symbols[rs0, 0, 1] == 0)

    def test_learning_combs_shared(self):
        num, grid, _ = make_grid(n_sc=64, n_tx=4, mode=RsMode.LEARNING)
        combs = [np.flatnonzero(grid.kind[:, 0, a] == ReKind.RS) for a in range(4)]
        for c in combs[1:]:
            np.testing.assert_array_equal(c, combs[0])

    def test_partition_exhaustive_and_disjoint(self):
        _, grid, _ = make_grid(n_sc=32, n_tx=2, mode=RsMode.CONVENTIONAL)
        kinds = grid.kind
        assert np.all((kinds == 0) | (kinds == 1) | (kinds == 2))
        # RS symbol holds no data; data symbols hold only data
        assert not np.any(kinds[:, 0, :] == ReKind.DATA)
        assert np.all(kinds[:, 1:, :] == ReKind.DATA)

    def test_rs_unit_energy(self):
        _, grid, _ = make_grid()
        rs = grid.symbols[grid.kind == ReKind.RS]
        np.testing.assert_allclose(np.abs(rs), 1.0)

    def test_payload_roundtrip(self):
        _, grid, bits = make_grid(order=16)
        np.testing.assert_array_equal(qam_decide(payload(grid.symbols), 16), pack(bits, 4))

    def test_spacing_must_divide(self):
        num = OfdmNumerology(64, 8)
        with pytest.raises(ValueError):
            build_grid(num, 1, 4, 5, RsMode.LEARNING, np.zeros(0), np.random.default_rng(0))

    def test_payload_count_checked(self):
        num = OfdmNumerology(64, 8)
        with pytest.raises(ValueError):
            build_grid(num, 1, 4, 4, RsMode.LEARNING, np.zeros(10, dtype=int), np.random.default_rng(0))

    def test_batched_demap_is_per_element_demap(self):
        _, grid, bits = make_grid(n_sc=32, n_tx=2, mode=RsMode.CONVENTIONAL, spacing=4)
        rng = np.random.default_rng(5)
        batch = grid.symbols + 0.3 * rng.standard_normal((3,) + grid.symbols.shape)
        got = qam_decide(payload(batch), 16)
        assert got.shape == (3, bits.size // 4)
        for row, element in zip(got, batch):
            np.testing.assert_array_equal(row, qam_decide(payload(element), 16))
            np.testing.assert_array_equal(row, per_axis_decide(payload(element), 16))

    def test_payload_is_build_grid_fill_order(self):
        _, grid, bits = make_grid(n_sc=16, n_sym=3, n_tx=2, mode=RsMode.CONVENTIONAL, spacing=4)
        got = payload(grid.symbols)
        assert got.tobytes() == qam_map(bits, 16).tobytes()
        # antenna-major, then symbol, then subcarrier, over every RE after the RS symbol
        want = [grid.symbols[k, s, a] for a in range(2) for s in range(1, 3) for k in range(16)]
        np.testing.assert_array_equal(got, want)
        assert np.all(grid.kind[:, 1:, :] == ReKind.DATA)


class TestModulation:
    def test_roundtrip_exact(self):
        num, grid, _ = make_grid(n_sc=64, n_cp=8, n_tx=2, mode=RsMode.CONVENTIONAL)
        samples = ofdm_modulate(grid, num)
        est = ofdm_demodulate(samples, num, grid.n_sym)
        np.testing.assert_allclose(est, grid.symbols, atol=1e-12)

    def test_all_zero(self):
        num = OfdmNumerology(32, 4)
        est = ofdm_demodulate(np.zeros((1, 3 * 36)), num, 3)
        np.testing.assert_array_equal(est, np.zeros((32, 3, 1)))

    def test_dc_tone_constant(self):
        num = OfdmNumerology(16, 0)
        symbols = np.zeros((16, 1, 1), dtype=complex)
        symbols[0, 0, 0] = 1.0
        from rclab.ofdm import ResourceGrid

        grid = ResourceGrid(symbols=symbols, kind=np.zeros((16, 1, 1), np.int8), qam_order=16)
        samples = ofdm_modulate(grid, num)
        np.testing.assert_allclose(samples, np.full((1, 16), 1 / 4), atol=1e-12)

    def test_cp_gives_per_subcarrier_multiplication(self):
        rng = np.random.default_rng(3)
        num, grid, _ = make_grid(n_sc=64, n_cp=12, seed=4)
        h = rng.standard_normal(9) + 1j * rng.standard_normal(9)  # L-1 = 8 <= n_cp
        tx = ofdm_modulate(grid, num)
        rx = np.convolve(tx[0], h)[: tx.shape[1]]
        est = ofdm_demodulate(rx[None, :], num, grid.n_sym)
        h_freq = np.fft.fft(h, num.n_sc)
        np.testing.assert_allclose(est[:, :, 0], h_freq[:, None] * grid.symbols[:, :, 0], atol=1e-9)

    def test_batched_demodulation_is_per_element(self):
        num, grid, _ = make_grid(n_sc=64, n_cp=8, n_tx=2, mode=RsMode.CONVENTIONAL)
        tx = ofdm_modulate(grid, num)
        rng = np.random.default_rng(6)
        batch = tx + rng.standard_normal((3,) + tx.shape)
        got = ofdm_demodulate(batch, num, grid.n_sym)
        assert got.shape == (3,) + grid.symbols.shape
        for row, element in zip(got, batch):
            assert row.tobytes() == ofdm_demodulate(element, num, grid.n_sym).tobytes()

    def test_sample_count_checked(self):
        num = OfdmNumerology(32, 4)
        with pytest.raises(ValueError):
            ofdm_demodulate(np.zeros((1, 100)), num, 3)

    def test_rs_waveform_matches_slot_prefix(self):
        num, grid, _ = make_grid(n_sc=64, n_cp=8, n_tx=2, mode=RsMode.LEARNING)
        tx = ofdm_modulate(grid, num)
        np.testing.assert_allclose(rs_time_waveform(grid, num), tx[:, : num.symbol_len], atol=1e-12)

    def test_average_data_power(self):
        _, grid, _ = make_grid(n_sc=256, n_sym=8, seed=9)
        data = payload(grid.symbols)
        assert abs(np.mean(np.abs(data) ** 2) - 1.0) < 0.05
