import numpy as np
import pytest

from ncderev import dsp, rir


def masked_sample_room(rng, nominal_dims=rir.NOMINAL_DIMS):
    """sample_room with the placement rules written out as one inline mask,
    drawing from the generator in the same order."""
    dims = np.asarray(nominal_dims, dtype=np.float64) * rng.uniform(0.8, 1.2, size=3)
    rt60 = float(rng.uniform(*rir.RT60_RANGE))
    while True:
        src = rng.uniform(0.0, 1.0, size=(256, 3)) * dims
        mic = rng.uniform(0.0, 1.0, size=(256, 3)) * dims
        zhi = min(rir.HEIGHT_BAND[1], dims[2] - rir.WALL_MARGIN)
        ok = np.ones(256, dtype=bool)
        for pos in (src, mic):
            ok &= (pos[:, 0] >= rir.WALL_MARGIN) & (pos[:, 0] <= dims[0] - rir.WALL_MARGIN)
            ok &= (pos[:, 1] >= rir.WALL_MARGIN) & (pos[:, 1] <= dims[1] - rir.WALL_MARGIN)
            ok &= (pos[:, 2] >= rir.HEIGHT_BAND[0]) & (pos[:, 2] <= zhi)
        d = np.linalg.norm(src - mic, axis=1)
        ok &= (d >= rir.MIN_SRC_MIC_DIST) & (d <= rir.MAX_SRC_MIC_DIST)
        hits = np.flatnonzero(ok)
        if hits.size:
            return tuple(dims), tuple(src[hits[0]]), tuple(mic[hits[0]]), rt60


class TestSampleRoom:
    def test_same_rooms_as_an_inline_mask(self):
        for seed in range(300):
            spec = rir.sample_room(np.random.default_rng(seed))
            want = masked_sample_room(np.random.default_rng(seed))
            assert (spec.dims, spec.src, spec.mic, spec.rt60) == want

    def test_dims_within_20_percent_band(self):
        lo = np.array([6.36, 4.544, 3.6])
        hi = np.array([9.54, 6.816, 5.4])
        for seed in range(50):
            spec = rir.sample_room(np.random.default_rng(seed))
            assert np.all(np.array(spec.dims) >= lo)
            assert np.all(np.array(spec.dims) <= hi)

    def test_distance_band(self):
        for seed in range(50):
            spec = rir.sample_room(np.random.default_rng(seed))
            assert 0.144 <= spec.distance <= 2.816

    def test_geometric_invariants(self):
        for seed in range(300):
            spec = rir.sample_room(np.random.default_rng(seed))
            assert rir.placement_problems(spec.dims, spec.src, spec.mic) == []
            assert 0.4 <= spec.rt60 <= 1.99

    def test_small_nominal_room_infeasible(self):
        with pytest.raises(rir.GeometryError, match="too small"):
            rir.sample_room(np.random.default_rng(0), nominal_dims=(2.5, 2.5, 2.5))

    def test_determinism(self):
        a = rir.sample_room(np.random.default_rng(123))
        b = rir.sample_room(np.random.default_rng(123))
        assert a == b

    def test_rt60_range_override(self):
        spec = rir.sample_room(np.random.default_rng(9), rt60_range=(0.4, 0.5))
        assert 0.4 <= spec.rt60 <= 0.5


class TestRoomSpecInvariants:
    def test_rejects_position_on_margin_violation(self):
        with pytest.raises(rir.GeometryError, match="wall"):
            rir.RoomSpec((7, 5, 4), (0.5, 2.0, 1.5), (3.0, 2.0, 1.5), 0.6)

    def test_rejects_height_outside_band(self):
        with pytest.raises(rir.GeometryError, match="height"):
            rir.RoomSpec((7, 5, 4), (2.0, 2.0, 2.5), (3.0, 2.0, 1.5), 0.6)

    def test_rejects_bad_distance(self):
        with pytest.raises(rir.GeometryError, match="distance"):
            rir.RoomSpec((7, 5, 4), (2.0, 2.0, 1.5), (2.05, 2.0, 1.5), 0.6)

    def test_rejects_rt60_out_of_range(self):
        with pytest.raises(rir.GeometryError, match="rt60"):
            rir.RoomSpec((7, 5, 4), (2.0, 2.0, 1.5), (3.0, 2.0, 1.5), 2.5)

    @pytest.mark.parametrize("src, mic, message", [
        ((0.0, 2.0, 1.5), (1.5, 2.0, 1.5), "src not strictly inside the room"),
        ((2.0, 3.5, 1.5), (3.0, 5.0, 1.5), "mic not strictly inside the room"),
        ((2.0, 4.5, 1.5), (3.0, 2.0, 1.5), "src closer than 1.0 m to a wall"),
        ((2.0, 2.0, 3.5), (3.0, 2.0, 1.5),
         "src closer than 1.0 m to a wall; src height 3.500 outside (1.0, 2.0) m band"),
        ((2.0, 2.0, 1.5), (3.0, 2.0, 0.5), "mic height 0.500 outside (1.0, 2.0) m band"),
        ((1.5, 1.5, 1.5), (5.5, 3.5, 1.5), "src-mic distance 4.472 outside [0.144, 2.816] m"),
        ((2.0, 2.0, 1.5), (2.0, 2.0, 1.5), "src-mic distance 0.000 outside [0.144, 2.816] m"),
        ((-1.0, 2.0, 1.5), (3.0, 2.0, 2.5),
         "src not strictly inside the room; mic height 2.500 outside (1.0, 2.0) m band; "
         "src-mic distance 4.123 outside [0.144, 2.816] m"),
    ])
    def test_problems_are_named_in_order(self, src, mic, message):
        with pytest.raises(rir.GeometryError) as info:
            rir.RoomSpec((7, 5, 4), src, mic, 0.6)
        assert str(info.value) == "invalid RoomSpec: " + message

    def test_infinite_positions_rejected_without_warning(self):
        inf = float("inf")
        with pytest.raises(rir.GeometryError, match="src not strictly inside the room; "
                           "mic not strictly inside the room; src-mic distance nan"):
            rir.RoomSpec((7, 5, 4), (inf, 2.0, 1.5), (inf, 2.0, 1.5), 0.6)

    def test_default_rir_len(self):
        spec = rir.RoomSpec((7, 5, 4), (2.0, 2.0, 1.5), (3.0, 2.0, 1.5), 0.5)
        assert spec.max_rir_len == int(np.ceil(1.2 * 0.5 * 16000))


class TestImageMethod:
    def test_direct_path_delay(self):
        spec = rir.sample_room(np.random.default_rng(11), rt60_range=(0.4, 0.6))
        impulse = rir.image_method_rir(spec)
        first = int(np.flatnonzero(impulse.taps)[0])
        expected = round(spec.distance / rir.SPEED_OF_SOUND * dsp.SAMPLE_RATE)
        assert abs(first - expected) <= 2

    @pytest.mark.parametrize("side", [14.5, 20.0])
    def test_large_room_at_shortest_rt60_calibrates(self, side):
        # a large room at the shortest RT60 needs near-total absorption
        spec = rir.RoomSpec((side, side, side), (5.0, 5.0, 1.5), (5.0, 6.5, 1.5),
                            0.4)
        impulse = rir.image_method_rir(spec)
        assert abs(rir.estimate_rt60(impulse) - 0.4) <= 0.2 * 0.4

    def test_schroeder_estimate_near_target(self):
        spec = rir.RoomSpec((7.95, 5.68, 4.5), (2.0, 2.0, 1.5), (3.5, 2.8, 1.5),
                            0.6)
        impulse = rir.image_method_rir(spec)
        assert abs(rir.estimate_rt60(impulse) - 0.6) <= 0.2 * 0.6

    def test_determinism_bit_identical(self):
        spec = rir.sample_room(np.random.default_rng(21), rt60_range=(0.4, 0.5))
        a = rir.image_method_rir(spec)
        b = rir.image_method_rir(spec)
        assert np.array_equal(a.taps, b.taps)

    def test_one_lattice_pass_per_room(self, monkeypatch):
        calls = {"table": 0, "estimate": 0}
        table, estimate = rir.kernels.rir_order_table, rir.estimate_rt60

        def counted_table(*args, **kwargs):
            calls["table"] += 1
            return table(*args, **kwargs)

        def counted_estimate(*args, **kwargs):
            calls["estimate"] += 1
            return estimate(*args, **kwargs)

        monkeypatch.setattr(rir.kernels, "rir_order_table", counted_table)
        monkeypatch.setattr(rir, "estimate_rt60", counted_estimate)
        for seed, band in ((24, (0.4, 0.5)), (25, (1.5, 1.99))):
            calls.update(table=0, estimate=0)
            impulse = rir.image_method_rir(
                rir.sample_room(np.random.default_rng(seed), rt60_range=band))
            assert calls["table"] == 1
            assert 1 <= calls["estimate"] <= 4
            assert impulse.renders == calls["estimate"]

    def test_calibration_record(self):
        spec = rir.sample_room(np.random.default_rng(26), rt60_range=(0.6, 0.8))
        impulse = rir.image_method_rir(spec)
        assert impulse.measured_rt60 == rir.estimate_rt60(impulse)
        assert (abs(impulse.measured_rt60 / spec.rt60 - 1.0) <= 0.04
                or impulse.renders == 4)
        assert impulse.images >= np.count_nonzero(impulse.taps)

    def test_schroeder_curve_decay(self):
        spec = rir.sample_room(np.random.default_rng(23), rt60_range=(0.5, 0.7))
        impulse = rir.image_method_rir(spec)
        edc = rir.schroeder_curve(impulse.taps)
        assert np.all(np.diff(edc) <= 0)
        # strict decay over any 20 ms window once reflections are dense
        window = int(0.020 * dsp.SAMPLE_RATE)
        span = int(spec.rt60 * dsp.SAMPLE_RATE)
        start = int(np.flatnonzero(impulse.taps)[0]) + window
        values = edc[start:span]
        assert np.all(values[window:] < values[:-window])


class TestAbsorptionForRt60:
    def test_inverts_eyring_formula(self):
        dims = (7.95, 5.68, 4.5)
        volume = np.prod(dims)
        surface = 2 * (dims[0] * dims[1] + dims[0] * dims[2] + dims[1] * dims[2])
        for target in (0.4, 1.0, 1.99):
            alpha = rir.absorption_for_rt60(dims, target)
            t60 = 24 * np.log(10) * volume / (rir.SPEED_OF_SOUND * surface
                                               * -np.log(1 - alpha))
            assert abs(t60 - target) <= 1e-12 * target

    def test_unreachable_rt60(self):
        with pytest.raises(rir.GeometryError, match="unreachable"):
            rir.absorption_for_rt60((20.0, 20.0, 20.0), 1e-3)


class TestEstimateRt60:
    def test_constructed_exponential_decay(self):
        # amplitude e^(-6.9078 t / T) decays 60 dB in energy over T seconds
        fs = dsp.SAMPLE_RATE
        for target in (0.4, 0.8, 1.5):
            n = int(1.3 * target * fs)
            t = np.arange(n) / fs
            taps = np.exp(-6.907755278982137 * t / target)
            est = rir.estimate_rt60(taps)
            assert abs(est - target) <= 0.02 * target

    def test_unit_impulse_has_no_decay_range(self):
        with pytest.raises(rir.DecayRangeError):
            rir.estimate_rt60(np.array([1.0]))

    def test_short_decay_range_rejected(self):
        fs = dsp.SAMPLE_RATE
        t = np.arange(int(0.2 * fs)) / fs
        taps = np.exp(-6.9078 * t / 1.0)  # only ~12 dB of range
        with pytest.raises(rir.DecayRangeError, match="40 dB"):
            rir.estimate_rt60(taps)

    def test_generated_rir_within_20_percent(self):
        spec = rir.RoomSpec((7.95, 5.68, 4.5), (2.0, 2.0, 1.5), (3.5, 2.8, 1.5),
                            1.0)
        impulse = rir.image_method_rir(spec)
        assert abs(rir.estimate_rt60(impulse) - 1.0) <= 0.2


class TestMakeRirSet:
    def test_paper_scale_distinct_specs(self):
        specs = rir.make_rir_set(0, 8000)
        assert len(specs) == 8000
        assert len({(s.dims, s.src, s.mic, s.rt60) for s in specs}) == 8000

    def test_different_seeds_differ(self):
        a = rir.make_rir_set(1, 1)[0]
        b = rir.make_rir_set(2, 1)[0]
        assert a != b

    def test_same_seed_identical(self):
        a = rir.make_rir_set(3, 4)
        b = rir.make_rir_set(3, 4)
        assert a == b

    def test_count_validation(self):
        with pytest.raises(ValueError):
            rir.make_rir_set(0, 0)
